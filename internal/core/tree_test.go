package core

import (
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// treeSites is the relay-tree clusters' size: the home (site 1) and eight
// sharers, just enough to cross treeMinSharers.
const treeSites = 9

// treeNear is the near locality band treeCluster seeds.
var treeNear = []wire.SiteID{2, 3, 4, 5}

// treeCluster starts treeSites sites with the dissemination tree enabled
// and the home tracker seeded with a two-band RTT geography: sites 2-5 at
// 5ms, sites 6-9 at 52ms (distinct overlay buckets at the default 12ms
// width). With equal scores the lowest site ID in each band is the relay
// (2 and 6).
func treeCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	opts.DisseminationTree = true
	tc := newTestCluster(t, treeSites, opts)
	tr := tc.node(1).OverlayTracker()
	for _, s := range treeNear {
		tr.Observe(s, 5*time.Millisecond)
	}
	for _, s := range []wire.SiteID{6, 7, 8, 9} {
		tr.Observe(s, 52*time.Millisecond)
	}
	return tc
}

// releaseToAll creates lock 9 at site 1 of an n-site cluster, attaches
// every other site, releases a write at UR=n, and checks every sharer
// applied it. It returns the releaser's uplink sends for the release.
func releaseToAll(t *testing.T, tc *testCluster, n int) int64 {
	t.Helper()
	ctx := tctx(t)
	rl1, r1 := mustCreate(t, tc.node(1).NewHandle("w"), 9, "v", []int32{0}, n)
	remotes := map[wire.SiteID]*ReplicaLock{}
	contents := map[wire.SiteID]*Replica{}
	for i := wire.SiteID(2); int(i) <= n; i++ {
		remotes[i], contents[i] = mustAttach(t, tc.node(i).NewHandle("r"), 9, "v")
	}
	settle()
	rl1.SetUpdateReplicas(n)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 42
	before := tc.node(1).DisseminationUplinkSends()
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	for i, rl := range remotes {
		if got := contents[i].Content().IntsData()[0]; got != 42 || rl.Version() != rl1.Version() {
			t.Errorf("site %d holds %d at v%d, want 42 at v%d", i, got, rl.Version(), rl1.Version())
		}
	}
	return tc.node(1).DisseminationUplinkSends() - before
}

// TestDisseminateTreeRelays releases through both buckets' relays: every
// sharer — relays and re-fanned members alike — applies the version.
func TestDisseminateTreeRelays(t *testing.T) {
	opts := defaultOpts()
	opts.Metrics = obs.NewRegistry()
	tc := treeCluster(t, opts)

	// One frame per locality bucket left the releaser's uplink, not one
	// per sharer.
	if got := releaseToAll(t, tc, treeSites); got != 2 {
		t.Errorf("releaser uplink sends = %d, want 2 (one per bucket)", got)
	}
	reg := opts.Metrics
	if got := reg.CounterValue(obs.CRelayPushes); got != 2 {
		t.Errorf("relay pushes = %d, want 2", got)
	}
	if got := reg.CounterValue(obs.CRelayAcks); got != 2 {
		t.Errorf("relay acks = %d, want 2", got)
	}
	// Each relay re-fanned to its three bucket mates.
	if got := reg.CounterValue(obs.CRelayFanout); got != 6 {
		t.Errorf("relay fanout pushes = %d, want 6", got)
	}
	if got := reg.CounterValue(obs.CRelayFallbacks); got != 0 {
		t.Errorf("relay fallbacks = %d, want 0", got)
	}
	if got := reg.Hist(obs.HRelayHop).Count; got != 2 {
		t.Errorf("relay hop observations = %d, want 2", got)
	}
}

// TestTreeDisabledBelowThreshold releases to three sharers one bucket apart
// with the tree off and with the tree on, below its sharer threshold: both
// fan out flat, one push per sharer from the releaser's uplink and no
// relay push.
func TestTreeDisabledBelowThreshold(t *testing.T) {
	for _, c := range []struct {
		name string
		tree bool
	}{
		{name: "tree-off"},
		{name: "below-threshold", tree: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := defaultOpts()
			opts.Metrics = obs.NewRegistry()
			opts.DisseminationTree = c.tree
			tc := newTestCluster(t, 4, opts)
			tr := tc.node(1).OverlayTracker()
			for _, s := range []wire.SiteID{2, 3, 4} {
				tr.Observe(s, 5*time.Millisecond)
			}
			if got := releaseToAll(t, tc, 4); got != 3 {
				t.Errorf("releaser uplink sends = %d, want 3 (one per sharer)", got)
			}
			if got := opts.Metrics.CounterValue(obs.CRelayPushes); got != 0 {
				t.Errorf("relay pushes = %d, want 0 (flat fan-out)", got)
			}
		})
	}
}

// TestRelayFailureFallsBackToDirect is the deterministic relay-death
// fault test: the near bucket's relay (site 2, the lowest ID) swallows
// the RelayPush — no apply, no re-fan, no ack. The origin's relay-ack
// wait must time out, the bucket must degrade to direct pushes, and every
// sharer, the relay that dropped the RelayPush included, must still apply
// the published version.
func TestRelayFailureFallsBackToDirect(t *testing.T) {
	opts := defaultOpts()
	opts.Metrics = obs.NewRegistry()
	opts.RequestTimeout = 500 * time.Millisecond // one fast relay-ack timeout
	opts.faultHooks = map[wire.SiteID]FaultHook{
		2: func(fc FaultContext) FaultDecision {
			return FaultDecision{Drop: fc.Point == FPDropRelayFan}
		},
	}
	tc := treeCluster(t, opts)
	releaseToAll(t, tc, treeSites)

	if got := opts.Metrics.CounterValue(obs.CRelayFallbacks); got < 1 {
		t.Errorf("relay fallbacks = %d, want >= 1", got)
	}
	// The timeout counted as a loss against the relay: its score dropped
	// and the next plan elects a better-scored bucket mate instead.
	tr := tc.node(1).OverlayTracker()
	if got := tr.Score(2); got >= 1 {
		t.Errorf("failed relay score = %.3f, want < 1", got)
	}
	plan := tr.Plan(treeNear)
	if len(plan.Groups) != 1 || plan.Groups[0].Relay == 2 {
		t.Errorf("plan after failure = %+v, want a relay other than 2", plan)
	}
}
