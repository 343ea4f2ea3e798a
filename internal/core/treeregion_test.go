package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/wire"
)

// These tests cover the relay plan's second cut (S33, pair distance): two
// regions equally far from the releaser share one origin-RTT bucket, the
// relay's RelayAck reports its hop to every member, and from then on the
// origin plans one relay per region. Every cluster replays its history
// through the entry-consistency checker at cleanup.

const regionLock wire.LockID = 9

// regionRig is nine sites in three regions of three ({1,4,7}, {2,5,8},
// {3,6,9}), tree + delta on, with the releaser (site 2) in the middle
// region: both other regions are one backbone hop from it, so their six
// sites read as one bucket from where it stands. The lock's manager is
// site 1.
type regionRig struct {
	t        *testing.T
	tc       *testCluster
	geo      netsim.Geography
	rl       *ReplicaLock
	r        *Replica
	contents map[wire.SiteID]*Replica
	round    int32
}

const (
	regionSites  = 9
	regionOrigin = wire.SiteID(2)
)

func newRegionRig(t *testing.T, opts clusterOpts) *regionRig {
	t.Helper()
	opts.delta = true
	opts.tree = true
	opts.treeMin = 2
	// Backbone round trips are 24 ms: keep mnet from retransmitting into them.
	opts.mnetCfg = mnet.Config{RTO: 200 * time.Millisecond, MaxRetries: 4}
	tc := newTestCluster(t, regionSites, opts)
	geo := netsim.RegionalWAN(3).Scaled(0.5)
	ids := make([]netsim.NodeID, 0, regionSites)
	for i := 1; i <= regionSites; i++ {
		ids = append(ids, netsim.NodeID(i))
	}
	geo.Apply(tc.sn.Underlying(), ids)

	// The probe phase, played as benchmark/ plays it: the releaser's tracker
	// is told the nominal round trip to every peer.
	tracker := tc.node(regionOrigin).OverlayTracker()
	for _, id := range ids {
		if peer := wire.SiteID(id); peer != regionOrigin {
			tracker.Observe(peer, 2*geo.LinkProfile(netsim.NodeID(regionOrigin), id).PropDelay)
		}
	}

	rig := &regionRig{t: t, tc: tc, geo: geo, contents: map[wire.SiteID]*Replica{}}
	rig.rl, rig.r = mustCreate(t, tc.node(regionOrigin).NewHandle("w"), regionLock, "v", make([]int32, 1024), regionSites)
	for i := wire.SiteID(1); i <= regionSites; i++ {
		if i != regionOrigin {
			_, r := mustAttach(t, tc.node(i).NewHandle("r"), regionLock, "v")
			rig.contents[i] = r
		}
	}
	time.Sleep(100 * time.Millisecond) // registrations cross the backbone
	rig.rl.SetUpdateReplicas(regionSites)
	return rig
}

// release takes the lock at the releaser, writes one element, releases, and
// returns the version released and the releaser's uplink sends for it.
func (rig *regionRig) release() (version uint64, uplink int64) {
	rig.t.Helper()
	ctx := tctx(rig.t)
	origin := rig.tc.node(regionOrigin)
	if err := rig.rl.Lock(ctx); err != nil {
		rig.t.Fatal(err)
	}
	rig.round++
	if err := rig.r.Content().SetIntAt(int(rig.round)*7, 1000+rig.round); err != nil {
		rig.t.Fatal(err)
	}
	before := origin.DisseminationUplinkSends()
	if err := rig.rl.Unlock(ctx); err != nil {
		rig.t.Fatal(err)
	}
	return rig.rl.Version(), origin.DisseminationUplinkSends() - before
}

// wantRegionalRelease checks one release went out over the converged plan:
// three frames left the releaser (one per region), every re-fan stayed
// inside its relay's region, and every sharer holds the writer's bytes.
func (rig *regionRig) wantRegionalRelease(version uint64, uplink int64) {
	rig.t.Helper()
	if uplink != 3 {
		rig.t.Errorf("v%d: releaser uplink sends = %d, want 3 (one per region)", version, uplink)
	}
	refans := 0
	for _, ev := range rig.tc.rec.Events() {
		if ev.Kind != wire.HistRelay || ev.Lock != regionLock || ev.Version != version {
			continue
		}
		refans++
		for _, member := range ev.Sites.Sites() {
			if rig.geo.RegionOf(netsim.NodeID(member)) != rig.geo.RegionOf(netsim.NodeID(ev.Site)) {
				rig.t.Errorf("v%d: relay %d (region %d) re-fanned to site %d (region %d) across the backbone",
					version, ev.Site, rig.geo.RegionOf(netsim.NodeID(ev.Site)), member, rig.geo.RegionOf(netsim.NodeID(member)))
			}
		}
	}
	if refans != 3 {
		rig.t.Errorf("v%d: %d relays re-fanned, want 3", version, refans)
	}
	rig.wantAllHold(version)
}

// wantAllHold checks every sharer is at version with the writer's bytes.
func (rig *regionRig) wantAllHold(version uint64) {
	rig.t.Helper()
	want := rig.r.Content().IntsData()
	for site, r := range rig.contents {
		st := rig.tc.node(site).getLockLocal(regionLock)
		st.mu.Lock()
		got := st.version
		st.mu.Unlock()
		if got != version {
			rig.t.Errorf("site %d at version %d, want %d", site, got, version)
		}
		if !reflect.DeepEqual(r.Content().IntsData(), want) {
			rig.t.Errorf("site %d does not hold the bytes released at v%d", site, version)
		}
	}
}

// TestTreeSplitsEquidistantRegions: the first two releases go out over the
// origin-RTT plan ({5,8} and one relay for all six remote sites, whose
// re-fan crosses the backbone); its two hop reports make the cross-region
// pairs far, and the third release is planned region by region.
func TestTreeSplitsEquidistantRegions(t *testing.T) {
	rig := newRegionRig(t, defaultOpts())
	if _, uplink := rig.release(); uplink != 2 {
		t.Errorf("first release: uplink sends = %d, want 2 (nothing learned yet: local group, remote bucket)", uplink)
	}
	rig.release()
	rig.wantRegionalRelease(rig.release())
	rig.wantRegionalRelease(rig.release())
	// The remote relay's fourth ack suspends its far verdicts for one
	// release, so a pair two slow pushes split wrongly is measured again;
	// these pairs are far, and the plan after it is regional as before.
	if _, uplink := rig.release(); uplink != 2 {
		t.Errorf("fifth release: uplink sends = %d, want 2 (far pairs re-measured over the unsplit bucket)", uplink)
	}
	rig.wantRegionalRelease(rig.release())
}

// TestTreeSplitConvergesAfterDroppedRelayFan: both relays swallow the first
// release's RelayPush. A dropped re-fan reports no hops — not bad ones —
// so nothing is learned from it; the buckets are repaired by direct pushes,
// the relays that dropped are outscored, and the next relays' reports split
// the regions just the same, one release later.
func TestTreeSplitConvergesAfterDroppedRelayFan(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	drop := func(fc FaultContext) FaultDecision {
		return FaultDecision{Drop: fc.Point == FPDropRelayFan && armed.Load()}
	}
	opts := defaultOpts()
	opts.reqTO = 500 * time.Millisecond // one fast relay-ack timeout
	opts.faultHooks = map[wire.SiteID]FaultHook{}
	for i := wire.SiteID(1); i <= regionSites; i++ {
		opts.faultHooks[i] = drop
	}
	rig := newRegionRig(t, opts)

	version, _ := rig.release()
	armed.Store(false)
	rig.wantAllHold(version) // repaired by direct pushes
	rig.release()
	rig.release()
	rig.wantRegionalRelease(rig.release())
}
