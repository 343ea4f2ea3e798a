package overlay

import (
	"reflect"
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

func seedRTT(t *Tracker, rtt time.Duration, sites ...wire.SiteID) {
	for _, s := range sites {
		t.Observe(s, rtt)
	}
}

func TestPlanBucketsByRTTAndElectsLowestID(t *testing.T) {
	tr := NewTracker(Config{})
	seedRTT(tr, 5*time.Millisecond, 2, 3, 4)
	seedRTT(tr, 52*time.Millisecond, 5, 6, 7)

	plan := tr.Plan([]wire.SiteID{2, 3, 4, 5, 6, 7})
	if len(plan.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (%+v)", len(plan.Groups), plan)
	}
	if len(plan.Direct) != 0 {
		t.Fatalf("direct = %v, want none", plan.Direct)
	}
	// Equal scores: the lowest site ID in each bucket is elected.
	if got := plan.Groups[0].Relay; got != 2 {
		t.Errorf("near bucket relay = %d, want 2", got)
	}
	if got := plan.Groups[1].Relay; got != 5 {
		t.Errorf("far bucket relay = %d, want 5", got)
	}
	if got := plan.Groups[0].Members; len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("near bucket members = %v, want [3 4]", got)
	}
}

func TestPlanUnknownRTTAndSingletonsGoDirect(t *testing.T) {
	tr := NewTracker(Config{})
	seedRTT(tr, 5*time.Millisecond, 2, 3)
	seedRTT(tr, 95*time.Millisecond, 9) // singleton bucket

	plan := tr.Plan([]wire.SiteID{2, 3, 8, 9}) // 8 was never observed
	if len(plan.Groups) != 1 || plan.Groups[0].Relay != 2 {
		t.Fatalf("plan groups = %+v, want one group with relay 2", plan.Groups)
	}
	if len(plan.Direct) != 2 || plan.Direct[0] != 8 || plan.Direct[1] != 9 {
		t.Fatalf("direct = %v, want [8 9]", plan.Direct)
	}
}

func TestLossDemotesRelayAndRoutesAround(t *testing.T) {
	tr := NewTracker(Config{})
	seedRTT(tr, 5*time.Millisecond, 2, 3, 4)

	// Two consecutive losses drop a perfect score below the 0.5 floor.
	tr.ObserveLoss(2)
	tr.ObserveLoss(2)
	if tr.Healthy(2) {
		t.Fatalf("site 2 still healthy after two losses, score %.3f", tr.Score(2))
	}
	plan := tr.Plan([]wire.SiteID{2, 3, 4})
	if len(plan.Groups) != 1 || plan.Groups[0].Relay != 3 {
		t.Fatalf("plan = %+v, want relay 3 after demoting 2", plan)
	}

	// A demoted peer is still a member — it must keep receiving versions.
	found := false
	for _, m := range plan.Groups[0].Members {
		if m == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("demoted site 2 missing from members %v", plan.Groups[0].Members)
	}

	// With every member demoted, the bucket degrades to direct pushes.
	for _, s := range []wire.SiteID{3, 4} {
		tr.ObserveLoss(s)
		tr.ObserveLoss(s)
	}
	plan = tr.Plan([]wire.SiteID{2, 3, 4})
	if len(plan.Groups) != 0 || len(plan.Direct) != 3 {
		t.Fatalf("plan = %+v, want all-direct degraded bucket", plan)
	}
}

func TestAckRecoversScoreAndSlowAckDemotes(t *testing.T) {
	tr := NewTracker(Config{})
	tr.Observe(2, 2*time.Millisecond)
	tr.ObserveLoss(2)
	tr.ObserveLoss(2)
	if tr.Healthy(2) {
		t.Fatal("expected demotion before recovery")
	}
	// Timely acks pull the score back up.
	for i := 0; i < 3; i++ {
		tr.ObserveAck(2, 4*time.Millisecond)
	}
	if !tr.Healthy(2) {
		t.Fatalf("score %.3f still below floor after three good acks", tr.Score(2))
	}

	// A pathologically slow aggregated ack counts against the relay.
	before := tr.Score(2)
	tr.ObserveAck(2, 10*time.Second)
	if after := tr.Score(2); after >= before {
		t.Fatalf("slow ack raised score: %.3f -> %.3f", before, after)
	}
}

func TestObserveSmoothsRTT(t *testing.T) {
	tr := NewTracker(Config{})
	tr.Observe(2, 10*time.Millisecond)
	tr.Observe(2, 20*time.Millisecond)
	rtt, ok := tr.RTT(2)
	if !ok {
		t.Fatal("no RTT after two samples")
	}
	if rtt != 15*time.Millisecond { // alpha 0.5 EWMA
		t.Fatalf("rtt = %v, want 15ms", rtt)
	}
	if _, ok := tr.RTT(3); ok {
		t.Fatal("unobserved site reported an RTT")
	}
	if tr.Score(3) != 1 {
		t.Fatalf("unobserved site score = %v, want 1", tr.Score(3))
	}
	tr.Observe(2, -time.Millisecond) // negative samples are ignored
	if got, _ := tr.RTT(2); got != 15*time.Millisecond {
		t.Fatalf("negative sample moved RTT to %v", got)
	}
}

func TestScoresPublishedToRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(Config{Metrics: reg})
	tr.Observe(7, time.Millisecond)
	if got := reg.RelayScoreValue(7); got != 1000 {
		t.Fatalf("published score = %d, want 1000", got)
	}
	tr.ObserveLoss(7)
	if got := reg.RelayScoreValue(7); got != 500 {
		t.Fatalf("published score after loss = %d, want 500", got)
	}
	tr.Plan([]wire.SiteID{})
	if got := reg.GaugeValue(obs.GRelayBuckets); got != 0 {
		t.Fatalf("bucket gauge = %d, want 0", got)
	}
}

// hopObs is one relay-reported hop, fed to ObserveHop in order.
type hopObs struct {
	relay, member wire.SiteID
	hop           time.Duration
}

// twice repeats each hop, the sample count that makes a far pair count.
func twice(hops ...hopObs) []hopObs {
	return append(append([]hopObs(nil), hops...), hops...)
}

// TestPlanSplitsBucketByMutualDistance covers the second cut: sites 2-7
// all sit 24 ms from the origin (one bucket), {2,3,4} and {5,6,7} being two
// regions an in-region hop apart internally and a backbone hop from each
// other.
func TestPlanSplitsBucketByMutualDistance(t *testing.T) {
	const near, far = 400 * time.Microsecond, 25 * time.Millisecond
	all := []wire.SiteID{2, 3, 4, 5, 6, 7}
	// What relay 2 reports after one release over the unsplit bucket.
	fromRelay2 := []hopObs{{2, 3, near}, {2, 4, near}, {2, 5, far}, {2, 6, far}, {2, 7, far}}

	tests := []struct {
		name    string
		targets []wire.SiteID
		hops    []hopObs
		losses  []wire.SiteID // two ObserveLoss each: below the health floor
		acks    int           // timely ObserveAcks from relay 2
		groups  []Group
		direct  []wire.SiteID
	}{
		{
			name:    "unknown pairs stay together",
			targets: all,
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4, 5, 6, 7}}},
		},
		{
			name:    "one far sample does not split",
			targets: all,
			hops:    fromRelay2,
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4, 5, 6, 7}}},
		},
		{
			name:    "two far samples split and each cluster elects its lowest ID",
			targets: all,
			hops:    twice(fromRelay2...),
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4}},
				{Relay: 5, Members: []wire.SiteID{6, 7}},
			},
		},
		{
			name:    "a near sample after a far one keeps the pair near",
			targets: all,
			hops:    append(twice(fromRelay2...), hopObs{2, 6, near}),
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4, 6}},
				{Relay: 5, Members: []wire.SiteID{7}},
			},
		},
		{
			name:    "a near sample before far ones keeps the pair near",
			targets: all,
			hops:    append([]hopObs{{6, 2, near}}, twice(fromRelay2...)...),
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4, 6}},
				{Relay: 5, Members: []wire.SiteID{7}},
			},
		},
		{
			name:    "a split that leaves one site sends it direct",
			targets: []wire.SiteID{2, 3, 4, 5},
			hops:    twice(hopObs{2, 3, near}, hopObs{2, 4, near}, hopObs{2, 5, far}),
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4}}},
			direct:  []wire.SiteID{5},
		},
		{
			name:    "a relay far from everyone goes direct and the rest regroup",
			targets: []wire.SiteID{2, 5, 6, 7},
			hops:    twice(hopObs{2, 5, far}, hopObs{2, 6, far}, hopObs{2, 7, far}),
			groups:  []Group{{Relay: 5, Members: []wire.SiteID{6, 7}}},
			direct:  []wire.SiteID{2},
		},
		{
			name:    "an unhealthy site is never the relay of its sub-cluster",
			targets: all,
			hops:    twice(fromRelay2...),
			losses:  []wire.SiteID{5},
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4}},
				{Relay: 6, Members: []wire.SiteID{5, 7}},
			},
		},
		{
			name:    "a sub-cluster with nobody healthy degrades to direct",
			targets: all,
			hops:    twice(fromRelay2...),
			losses:  []wire.SiteID{5, 6, 7},
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4}}},
			direct:  []wire.SiteID{5, 6, 7},
		},
		{
			name:    "the relay's 3rd ack leaves a far verdict standing",
			targets: all,
			hops:    twice(fromRelay2...),
			acks:    3,
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4}},
				{Relay: 5, Members: []wire.SiteID{6, 7}},
			},
		},
		{
			name:    "its 4th suspends it for one plan so the pair is measured again",
			targets: all,
			hops:    twice(fromRelay2...),
			acks:    4,
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4, 5, 6, 7}}},
		},
		{
			name:    "its 5th restores it",
			targets: all,
			hops:    twice(fromRelay2...),
			acks:    5,
			groups: []Group{
				{Relay: 2, Members: []wire.SiteID{3, 4}},
				{Relay: 5, Members: []wire.SiteID{6, 7}},
			},
		},
		{
			name:    "and its 8th suspends it again",
			targets: all,
			hops:    twice(fromRelay2...),
			acks:    8,
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3, 4, 5, 6, 7}}},
		},
		{
			name:    "the hop threshold is the bucket width",
			targets: []wire.SiteID{2, 3, 4},
			hops:    twice(hopObs{2, 3, 12*time.Millisecond - time.Microsecond}, hopObs{2, 4, 12 * time.Millisecond}),
			groups:  []Group{{Relay: 2, Members: []wire.SiteID{3}}},
			direct:  []wire.SiteID{4},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := NewTracker(Config{Metrics: reg})
			seedRTT(tr, 24*time.Millisecond, all...)
			for _, h := range tt.hops {
				tr.ObserveHop(h.relay, h.member, h.hop)
			}
			for _, s := range tt.losses {
				tr.ObserveLoss(s)
				tr.ObserveLoss(s)
			}
			for i := 0; i < tt.acks; i++ {
				tr.ObserveAck(2, 50*time.Millisecond)
			}
			want := Plan{Groups: tt.groups, Direct: tt.direct}
			// Same observations, same plan, every time.
			for i := 0; i < 100; i++ {
				if got := tr.Plan(tt.targets); !reflect.DeepEqual(got, want) {
					t.Fatalf("plan %d = %+v, want %+v", i, got, want)
				}
			}
			if got := reg.GaugeValue(obs.GRelayBuckets); got != int64(len(tt.groups)) {
				t.Errorf("bucket gauge = %d, want %d (groups planned)", got, len(tt.groups))
			}
		})
	}
}

// TestObserveHopIgnoresNonDistances: a relay's hop to itself (the zero its
// ack carries for its own entry) and a negative duration are not samples.
func TestObserveHopIgnoresNonDistances(t *testing.T) {
	tr := NewTracker(Config{})
	seedRTT(tr, 24*time.Millisecond, 2, 3)
	for i := 0; i < 2; i++ {
		tr.ObserveHop(2, 2, time.Second)
		tr.ObserveHop(2, 3, -time.Second)
	}
	tr.ObserveHop(2, 3, time.Second) // the pair's only real sample
	plan := tr.Plan([]wire.SiteID{2, 3})
	if len(plan.Groups) != 1 || plan.Groups[0].Relay != 2 {
		t.Fatalf("plan = %+v, want 2 relaying to 3 (one far sample so far)", plan)
	}
}
