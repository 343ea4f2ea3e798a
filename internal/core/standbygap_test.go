package core

import (
	"testing"
	"time"

	"mocha/internal/wire"
)

// TestLocksWhoseStandbyDiedStayUnreplicated pins the standby
// re-replication gap in the consistent-hash home placement: a manager's
// standby (homeState.standby) is chosen once, before its first stream, and
// never again, and a standby's death triggers promotion of the locks it
// *homed* but nothing for the locks it *shadowed*. So when site V dies,
// its own standby W promotes V's slice — but every lock homed at a site P
// that chose V had its only shadow on V, and P keeps streaming
// StandbyUpdates into the void. Those locks run with no live replica of
// their manager state until a migration moves them to a manager with a
// live standby; a second failure (of P) in that window strands them.
//
// TRACKING: this test asserts today's behavior on purpose. When
// re-replication after standby death lands (P chooses again over the live
// ring and re-streams its records — or promotion fans the dead site's
// shadow set onward), flip the expectations below: P's standby should
// move off the dead site and a live site should hold a shadow of the
// P-homed lock at the post-kill version.
func TestLocksWhoseStandbyDiedStayUnreplicated(t *testing.T) {
	const sites = 3
	const lockP = wire.LockID(33)
	tc := newTestCluster(t, sites, placementOpts())
	ctx := tctx(t)

	// Standby geometry: lockP is homed at P, whose standby is the victim;
	// the victim's own standby W will promote the victim's slice. The
	// writer sits at the site that is neither P nor the victim.
	home, _ := tc.node(1).homeOf(lockP)
	victim := tc.standbyOf(home)
	third := otherSite(t, sites, home, victim)

	// A second lock homed at the victim contrasts the two fates: the
	// victim's own locks survive through promotion, while the locks it
	// merely shadowed do not get a replacement standby.
	var lockV wire.LockID
	for id := wire.LockID(100); id < 600; id++ {
		if h, _ := tc.node(1).homeOf(id); h == victim {
			lockV = id
			break
		}
	}
	if lockV == 0 {
		t.Fatal("no lock hashes to the victim site")
	}
	w := tc.standbyOf(victim)

	hcP := tc.node(home).NewHandle("creator-p")
	mustCreate(t, hcP, lockP, "shadowed", []int32{1}, sites)
	hcV := tc.node(victim).NewHandle("creator-v")
	mustCreate(t, hcV, lockV, "promoted", []int32{1}, sites)
	hw := tc.node(third).NewHandle("writer")
	rlP, repP := mustAttach(t, hw, lockP, "shadowed")
	rlV, repV := mustAttach(t, hw, lockV, "promoted")
	settle()

	// Commit one write on each so both homes stream real shadows: lockP's
	// shadow lands on the victim, lockV's on W.
	for _, op := range []struct {
		rl  *ReplicaLock
		rep *Replica
	}{{rlP, repP}, {rlV, repV}} {
		if err := op.rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		op.rep.Content().IntsData()[0] = 2
		if err := op.rl.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Unlock returns on the transport ack; let both homes process the
	// releases so the versions read below are the committed ones.
	settle()
	recP := tc.node(home).Sync().lookupLock(lockP)
	if recP == nil {
		t.Fatal("no record at lockP's home")
	}
	recP.mu.Lock()
	preVersion := recP.version
	recP.mu.Unlock()
	recV := tc.node(victim).Sync().lookupLock(lockV)
	if recV == nil {
		t.Fatal("no record at lockV's home")
	}
	recV.mu.Lock()
	committedV := recV.version
	recV.mu.Unlock()

	// Shadow streaming is asynchronous; wait until both standbys hold the
	// committed versions before pulling the plug, so the promotion below
	// restores current state rather than a stale in-flight snapshot.
	if waitShadow(t, tc.node(victim), lockP, preVersion) == nil {
		t.Fatalf("victim never received a v%d shadow of lock %d from its home", preVersion, lockP)
	}
	if waitShadow(t, tc.node(w), lockV, committedV) == nil {
		t.Fatalf("site %d never received a v%d shadow of lock %d from the victim", w, committedV, lockV)
	}

	// Fail-stop the victim and promote its slice, as the standby monitor
	// would after missed probes.
	tc.kill(victim)
	tc.node(w).PromoteStandby(victim)
	settle()

	// The victim's own locks live on: W serves lockV from the promoted
	// shadow, content intact.
	if err := rlV.Lock(ctx); err != nil {
		t.Fatalf("acquire promoted lock %d: %v", lockV, err)
	}
	if got := repV.Content().IntsData()[0]; got != 2 {
		t.Fatalf("promoted lock read = %d, want 2", got)
	}
	repV.Content().IntsData()[0] = 3
	if err := rlV.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Commit a new version of lockP through its (still live) home. The
	// home streams the standby update to its dead standby, where it is
	// silently lost.
	if err := rlP.Lock(ctx); err != nil {
		t.Fatalf("acquire lock %d at surviving home: %v", lockP, err)
	}
	repP.Content().IntsData()[0] = 3
	if err := rlP.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	settle()
	time.Sleep(200 * time.Millisecond)

	recP.mu.Lock()
	postVersion := recP.version
	recP.mu.Unlock()
	if postVersion <= preVersion {
		t.Fatalf("lockP's home never committed past v%d", preVersion)
	}

	// The gap itself. First half: the home's standby still is the dead
	// site — nothing chooses again over the live ring. (Flip to a live site
	// once re-choosing exists.)
	if got := tc.standbyOf(home); got != victim {
		t.Fatalf("home's standby moved from dead site %d to %d: "+
			"standby re-choice appeared — update this test's expectations",
			victim, got)
	}

	// Second half: no live site shadows lockP, so v%d exists only at its
	// home. (Flip to a non-nil shadow at a live site carrying postVersion
	// once re-replication after standby death exists.)
	if sh := shadowOf(tc.node(third), lockP); sh != nil {
		t.Fatalf("site %d holds a shadow of lock %d (v%d): re-replication "+
			"appeared — update this test's expectations", third, lockP, sh.rec.Version)
	}
	if sh := shadowOf(tc.node(home), lockP); sh != nil {
		t.Fatalf("lockP's own home holds a shadow of it (v%d)?", sh.rec.Version)
	}
}

// shadowOf reads one entry of a node's standby shadow table.
func shadowOf(n *Node, lock wire.LockID) *shadowRecord {
	hs := n.Sync().home
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.shadows[lock]
}

// waitShadow polls for the (asynchronous) arrival of a shadow carrying
// at least the given version.
func waitShadow(t *testing.T, n *Node, lock wire.LockID, version uint64) *shadowRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sh := shadowOf(n, lock); sh != nil && sh.rec.Version >= version {
			return sh
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}
