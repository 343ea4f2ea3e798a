package core

import (
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// placementOpts is the cluster configuration the home-placement tests
// share: mobile namespace on, short sweeps so migrations and failovers
// resolve quickly, and a shared metrics registry for counter assertions.
func placementOpts() clusterOpts {
	opts := defaultOpts()
	opts.placement = true
	opts.lease = 5 * time.Second
	opts.metrics = obs.NewRegistry()
	return opts
}

// otherSite returns a live site different from every excluded one.
func otherSite(t *testing.T, n int, exclude ...wire.SiteID) wire.SiteID {
	t.Helper()
next:
	for i := 1; i <= n; i++ {
		site := wire.SiteID(i)
		for _, ex := range exclude {
			if site == ex {
				continue next
			}
		}
		return site
	}
	t.Fatal("no site left")
	return 0
}

// TestStandbyPromotionPreservesLockState kills a lock's home while a
// client holds the lock and verifies the standby's promoted record
// carries the hold (with a live remaining lease), the committed version,
// the version floor, and the dirty set — and that the lock remains fully
// usable: the surviving holder releases into the new home and another
// thread acquires.
func TestStandbyPromotionPreservesLockState(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(30)
	tc := newTestCluster(t, sites, placementOpts())
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	holderSite := otherSite(t, sites, home)

	// Create at the home's own site so setup survives the later kill
	// cleanly, then attach the holder.
	hc := tc.node(home).NewHandle("creator")
	rlC, _ := mustCreate(t, hc, lockID, "mobile", []int32{7}, sites)
	_ = rlC
	hh := tc.node(holderSite).NewHandle("survivor")
	rlH, repH := mustAttach(t, hh, lockID, "mobile")
	settle()

	if err := rlH.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	repH.Content().IntsData()[0] = 8

	// Decorate the home's record with a dirty marker and re-stream, so the
	// test proves the shadow carries the dirty set, not just the hold.
	sHome := tc.node(home).Sync()
	l := sHome.lookupLock(lockID)
	if l == nil {
		t.Fatal("no record at home")
	}
	l.mu.Lock()
	l.dirty.Add(9)
	wantVersion, wantFloor := l.version, l.highWater
	l.mu.Unlock()
	sHome.home.streamHoldSync(l)
	// The stream returns on the transport ack; let the standby's
	// dispatcher apply the update before its source disappears.
	settle()

	tc.kill(home)
	tc.node(standby).PromoteStandby(home)
	settle()

	got := tc.node(standby).Sync().lookupLock(lockID)
	if got == nil {
		t.Fatal("promotion installed no record at the standby")
	}
	got.mu.Lock()
	h := got.holder
	version, floor := got.version, got.highWater
	dirty := got.dirty.Clone()
	got.mu.Unlock()
	if h == nil || h.thread != hh.ID() {
		t.Fatalf("promoted record holder = %+v, want thread %d", h, hh.ID())
	}
	if !h.restored {
		t.Fatal("promoted hold not marked restored")
	}
	if remaining := h.lease - time.Since(h.grantedAt); remaining <= 0 {
		t.Fatalf("promoted hold's lease already expired (remaining %v)", remaining)
	}
	if version != wantVersion || floor < wantFloor {
		t.Fatalf("promoted record v%d floor %d, want v%d floor >= %d", version, floor, wantVersion, wantFloor)
	}
	if !dirty.Contains(9) {
		t.Fatalf("promoted record dirty set %v lost the streamed marker", dirty.Sites())
	}
	if v := tc.node(standby).metrics.CounterValue(obs.CStandbyPromotions); v < 1 {
		t.Fatalf("CStandbyPromotions = %d, want >= 1", v)
	}

	// The survivor's release must land at the new home (the HomeMoved
	// broadcast taught its daemon the route), and a fresh thread must be
	// able to acquire and read the held write.
	if err := rlH.Unlock(ctx); err != nil {
		t.Fatalf("release into promoted home: %v", err)
	}
	third := otherSite(t, sites, home, holderSite)
	if third == 0 {
		third = standby
	}
	h2 := tc.node(third).NewHandle("after")
	rl2, rep2 := mustAttach(t, h2, lockID, "mobile")
	settle()
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("acquire after promotion: %v", err)
	}
	if data := rep2.Content().IntsData(); len(data) == 0 || data[0] != 8 {
		t.Fatalf("post-promotion read = %v, want [8]", data)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHomeMigratesTowardLocality drives every acquire of a lock from one
// remote site and verifies the sweep hands the lock's home to it: the
// accessor ends up adopted as home, the migration counter moves, and the
// lock stays acquirable from the old home's site afterwards.
func TestHomeMigratesTowardLocality(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(31)
	opts := placementOpts()
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	accessor := otherSite(t, sites, home)

	hc := tc.node(home).NewHandle("creator")
	rlC, _ := mustCreate(t, hc, lockID, "drifter", []int32{0}, sites)
	_ = rlC
	ha := tc.node(accessor).NewHandle("local")
	rlA, repA := mustAttach(t, ha, lockID, "drifter")
	settle()

	for i := 0; i < 2*migrateMinAcquires; i++ {
		if err := rlA.Lock(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		repA.Content().IntsData()[0]++
		if err := rlA.Unlock(ctx); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}

	// The sweep migrates once the record is idle with a dominant tally.
	hs := tc.node(accessor).Sync().home
	deadline := time.Now().Add(5 * time.Second)
	for !hs.isAdopted(lockID) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !hs.isAdopted(lockID) {
		t.Fatal("home never migrated to the dominant accessor")
	}
	if v := opts.metrics.CounterValue(obs.CHomeMigrations); v < 1 {
		t.Fatalf("CHomeMigrations = %d, want >= 1", v)
	}

	// The old home redirects: an acquire from its own site must still work.
	ho := tc.node(home).NewHandle("behind")
	rlO, repO := mustAttach(t, ho, lockID, "drifter")
	settle()
	if err := rlO.Lock(ctx); err != nil {
		t.Fatalf("acquire after migration: %v", err)
	}
	if data := repO.Content().IntsData(); len(data) == 0 || data[0] != int32(2*migrateMinAcquires) {
		t.Fatalf("post-migration read = %v, want [%d]", data, 2*migrateMinAcquires)
	}
	if err := rlO.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}
