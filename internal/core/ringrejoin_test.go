package core

import (
	"testing"
	"time"

	"mocha/internal/netsim"
	"mocha/internal/wire"
)

// TestRejoinedManagerDoesNotReclaimSlice pins the ring-membership gap in
// the consistent-hash home placement: standby promotion is one-shot and
// the static ring has no rejoin protocol (see homeState.monitor), so a
// manager that was partitioned away and later heals never reclaims its
// lock slice from the promoted standby. The standby keeps serving, and
// the rejoined manager is left holding a stale record that nothing ever
// reconciles or garbage-collects.
//
// TRACKING: this test asserts today's behavior on purpose. When a rejoin
// protocol lands (the healed manager reclaims its slice — or cleanly
// drops its records and defers to the promoted standby), flip the two
// expectations below: the stale record should then either carry the
// advanced version or be gone entirely.
func TestRejoinedManagerDoesNotReclaimSlice(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(33)
	tc := newTestCluster(t, sites, placementOpts())
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	third := otherSite(t, sites, home, standby)

	hc := tc.node(home).NewHandle("creator")
	rlC, _ := mustCreate(t, hc, lockID, "slice", []int32{1}, sites)
	_ = rlC
	hw := tc.node(third).NewHandle("writer")
	rlW, repW := mustAttach(t, hw, lockID, "slice")
	settle()

	// Commit one write through the original home so its record (and the
	// shadow streamed to the standby) carries a real committed version.
	if err := rlW.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	repW.Content().IntsData()[0] = 2
	if err := rlW.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	settle()

	staleRec := tc.node(home).Sync().lookupLock(lockID)
	if staleRec == nil {
		t.Fatal("no record at the original home")
	}
	staleRec.mu.Lock()
	staleVersion := staleRec.version
	staleRec.mu.Unlock()

	// Partition the home from the rest of the cluster (both directions —
	// a dead-to-the-world manager, but one that can come back, which
	// tc.kill cannot model) and promote its standby.
	net := tc.sn.Underlying()
	for i := 1; i <= sites; i++ {
		if wire.SiteID(i) != home {
			net.Partition(netsim.NodeID(home), netsim.NodeID(i), true)
		}
	}
	tc.node(standby).PromoteStandby(home)
	settle()

	// The promoted standby serves the slice: a write from the third site
	// lands at the standby and advances the version past the partitioned
	// manager's record.
	if err := rlW.Lock(ctx); err != nil {
		t.Fatalf("acquire via promoted standby: %v", err)
	}
	repW.Content().IntsData()[0] = 3
	if err := rlW.Unlock(ctx); err != nil {
		t.Fatalf("release into promoted standby: %v", err)
	}

	// Heal: the original manager rejoins the network intact, records and
	// all. Give housekeeping a few sweeps to do whatever it is going to
	// do — which, today, is nothing.
	for i := 1; i <= sites; i++ {
		if wire.SiteID(i) != home {
			net.Partition(netsim.NodeID(home), netsim.NodeID(i), false)
		}
	}
	settle()
	time.Sleep(200 * time.Millisecond)

	// The standby still owns the slice after the heal: acquires keep
	// resolving to the standby's record and its version keeps advancing.
	if err := rlW.Lock(ctx); err != nil {
		t.Fatalf("acquire after heal: %v", err)
	}
	if got := repW.Content().IntsData()[0]; got != 3 {
		t.Fatalf("post-heal read = %d, want 3", got)
	}
	repW.Content().IntsData()[0] = 4
	if err := rlW.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	settle()

	standbyRec := tc.node(standby).Sync().lookupLock(lockID)
	if standbyRec == nil {
		t.Fatal("promoted standby lost the record")
	}
	standbyRec.mu.Lock()
	succVersion := standbyRec.version
	standbyRec.mu.Unlock()
	if succVersion <= staleVersion {
		t.Fatalf("standby record version %d never advanced past the pre-partition %d",
			succVersion, staleVersion)
	}

	// The gap itself: the rejoined manager still holds its pre-partition
	// record, frozen at the stale version — no reclaim, no reconciliation,
	// no GC. (Flip to == succVersion, or to a nil lookup, once a rejoin
	// protocol exists.)
	rejoined := tc.node(home).Sync().lookupLock(lockID)
	if rejoined == nil {
		t.Fatal("rejoined manager dropped its record: a rejoin protocol " +
			"appeared — update this test's expectations")
	}
	rejoined.mu.Lock()
	rejoinedVersion := rejoined.version
	rejoined.mu.Unlock()
	if rejoinedVersion != staleVersion {
		t.Fatalf("rejoined manager's record moved from v%d to v%d: reconciliation "+
			"appeared — update this test's expectations", staleVersion, rejoinedVersion)
	}
}
