package core

import (
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// treeCluster starts n sites with the dissemination tree enabled and the
// home tracker seeded with a two-band RTT geography: sites in nearBand at
// 5ms, sites in farBand at 52ms (distinct overlay buckets at the default
// 12ms width). With equal scores the lowest site ID in each band is the
// relay.
func treeCluster(t *testing.T, n int, opts clusterOpts, near, far []wire.SiteID) *testCluster {
	t.Helper()
	opts.tree = true
	opts.treeMin = 2
	tc := newTestCluster(t, n, opts)
	tr := tc.node(1).OverlayTracker()
	for _, s := range near {
		tr.Observe(s, 5*time.Millisecond)
	}
	for _, s := range far {
		tr.Observe(s, 52*time.Millisecond)
	}
	return tc
}

func TestDisseminateTreeRelays(t *testing.T) {
	opts := defaultOpts()
	opts.metrics = obs.NewRegistry()
	tc := treeCluster(t, 7, opts, []wire.SiteID{2, 3, 4}, []wire.SiteID{5, 6, 7})
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	rl1, r1 := mustCreate(t, h1, 9, "v", []int32{0}, 7)
	remotes := map[wire.SiteID]*ReplicaLock{}
	contents := map[wire.SiteID]*Replica{}
	for i := wire.SiteID(2); i <= 7; i++ {
		rl, r := mustAttach(t, tc.node(i).NewHandle("r"), 9, "v")
		remotes[i] = rl
		contents[i] = r
	}
	settle()

	rl1.SetUpdateReplicas(7)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 42
	uplinkBefore := tc.node(1).DisseminationUplinkSends()
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// One frame per locality bucket left the releaser's uplink, not one
	// per sharer.
	if got := tc.node(1).DisseminationUplinkSends() - uplinkBefore; got != 2 {
		t.Errorf("releaser uplink sends = %d, want 2 (one per bucket)", got)
	}
	reg := opts.metrics
	if got := reg.CounterValue(obs.CRelayPushes); got != 2 {
		t.Errorf("relay pushes = %d, want 2", got)
	}
	if got := reg.CounterValue(obs.CRelayAcks); got != 2 {
		t.Errorf("relay acks = %d, want 2", got)
	}
	// Each relay re-fanned to its two bucket mates.
	if got := reg.CounterValue(obs.CRelayFanout); got != 4 {
		t.Errorf("relay fanout pushes = %d, want 4", got)
	}
	if got := reg.CounterValue(obs.CRelayFallbacks); got != 0 {
		t.Errorf("relay fallbacks = %d, want 0", got)
	}
	if got := reg.Hist(obs.HRelayHop).Count; got != 2 {
		t.Errorf("relay hop observations = %d, want 2", got)
	}

	// Every sharer — relays and re-fanned members alike — applied the
	// version.
	released := rl1.Version()
	for i := wire.SiteID(2); i <= 7; i++ {
		if got := remotes[i].Version(); got != released {
			t.Errorf("site %d at version %d, want %d", i, got, released)
		}
		if got := contents[i].Content().IntsData()[0]; got != 42 {
			t.Errorf("site %d value %d, want 42", i, got)
		}
	}
}

func TestTreeDisabledBelowThreshold(t *testing.T) {
	opts := defaultOpts()
	opts.metrics = obs.NewRegistry()
	opts.tree = true
	opts.treeMin = 20 // sharer count stays below the threshold
	tc := newTestCluster(t, 4, opts)
	tr := tc.node(1).OverlayTracker()
	for _, s := range []wire.SiteID{2, 3, 4} {
		tr.Observe(s, 5*time.Millisecond)
	}
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	rl1, r1 := mustCreate(t, h1, 9, "v", []int32{0}, 4)
	remotes := map[wire.SiteID]*ReplicaLock{}
	for i := wire.SiteID(2); i <= 4; i++ {
		rl, _ := mustAttach(t, tc.node(i).NewHandle("r"), 9, "v")
		remotes[i] = rl
	}
	settle()

	rl1.SetUpdateReplicas(4)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 7
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	if got := opts.metrics.CounterValue(obs.CRelayPushes); got != 0 {
		t.Errorf("relay pushes below threshold = %d, want 0 (flat fan-out)", got)
	}
	released := rl1.Version()
	for i := wire.SiteID(2); i <= 4; i++ {
		if got := remotes[i].Version(); got != released {
			t.Errorf("site %d at version %d, want %d", i, got, released)
		}
	}
}

// TestRelayFailureFallsBackToDirect is the deterministic relay-death
// fault test: the near bucket's relay (site 2, the lowest ID) swallows
// the RelayPush — no apply, no re-fan, no ack. The origin's relay-ack
// wait must time out, the bucket must degrade to direct pushes, and every
// sharer must still apply the published version. The cluster's cleanup
// replays the full history through the entry-consistency checker.
func TestRelayFailureFallsBackToDirect(t *testing.T) {
	opts := defaultOpts()
	opts.metrics = obs.NewRegistry()
	opts.reqTO = 500 * time.Millisecond // one fast relay-ack timeout
	opts.faultHooks = map[wire.SiteID]FaultHook{
		2: func(fc FaultContext) FaultDecision {
			if fc.Point == FPDropRelayFan {
				return FaultDecision{Drop: true}
			}
			return FaultDecision{}
		},
	}
	tc := treeCluster(t, 7, opts, []wire.SiteID{2, 3, 4}, []wire.SiteID{5, 6, 7})
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	rl1, r1 := mustCreate(t, h1, 9, "v", []int32{0}, 7)
	remotes := map[wire.SiteID]*ReplicaLock{}
	contents := map[wire.SiteID]*Replica{}
	for i := wire.SiteID(2); i <= 7; i++ {
		rl, r := mustAttach(t, tc.node(i).NewHandle("r"), 9, "v")
		remotes[i] = rl
		contents[i] = r
	}
	settle()

	rl1.SetUpdateReplicas(7)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 42
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	reg := opts.metrics
	if got := reg.CounterValue(obs.CRelayFallbacks); got < 1 {
		t.Errorf("relay fallbacks = %d, want >= 1", got)
	}
	// The dead relay's bucket was direct-pushed: every sharer, including
	// the relay that dropped the RelayPush, applied the version.
	released := rl1.Version()
	for i := wire.SiteID(2); i <= 7; i++ {
		if got := remotes[i].Version(); got != released {
			t.Errorf("site %d at version %d, want %d", i, got, released)
		}
		if got := contents[i].Content().IntsData()[0]; got != 42 {
			t.Errorf("site %d value %d, want 42", i, got)
		}
	}
	// The timeout counted as a loss against the relay: its score dropped
	// and the next plan elects a better-scored bucket mate instead.
	tr := tc.node(1).OverlayTracker()
	if got := tr.Score(2); got >= 1 {
		t.Errorf("failed relay score = %.3f, want < 1", got)
	}
	plan := tr.Plan([]wire.SiteID{2, 3, 4})
	if len(plan.Groups) != 1 || plan.Groups[0].Relay == 2 {
		t.Errorf("plan after failure = %+v, want a relay other than 2", plan)
	}
}
