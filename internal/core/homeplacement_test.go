package core

import (
	"fmt"
	"testing"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// placementOpts is the cluster configuration the home-placement tests
// share: mobile namespace on, short sweeps so migrations and failovers
// resolve quickly, and a shared metrics registry for counter assertions.
func placementOpts() clusterOpts {
	opts := defaultOpts()
	opts.HomePlacement = true
	opts.DefaultLease = 5 * time.Second
	opts.Metrics = obs.NewRegistry()
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
	if v := opts.Metrics.CounterValue(obs.CHomeMigrations); v < 1 {
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

// TestMigrationTarget pins the migration rule as a pure function of a
// lock's tally, its incumbent home and the incumbent's round trips.
func TestMigrationTarget(t *testing.T) {
	const self = wire.SiteID(1)
	rttOf := func(rtts map[wire.SiteID]time.Duration) func(wire.SiteID) (time.Duration, bool) {
		return func(site wire.SiteID) (time.Duration, bool) {
			d, ok := rtts[site]
			return d, ok
		}
	}
	cases := []struct {
		name   string
		acq    map[wire.SiteID]uint64
		rtts   map[wire.SiteID]time.Duration
		member func(wire.SiteID) bool
		want   wire.SiteID // 0: stay
	}{
		{name: "a tie with the incumbent stays", acq: map[wire.SiteID]uint64{self: 4, 2: 4}},
		{name: "a tie stays whatever the round trip", acq: map[wire.SiteID]uint64{self: 6, 2: 6},
			rtts: map[wire.SiteID]time.Duration{2: 30 * time.Millisecond}},
		{name: "a 2:1 challenger moves", acq: map[wire.SiteID]uint64{self: 3, 2: 6}, want: 2},
		{name: "short of the margin stays", acq: map[wire.SiteID]uint64{self: 4, 2: 6}},
		{name: "a non-acquiring home moves to the heavier acquirer",
			acq: map[wire.SiteID]uint64{2: 5, 3: 3}, want: 2},
		{name: "equal challengers resolve to the lower site",
			acq: map[wire.SiteID]uint64{3: 4, 2: 4}, want: 2},
		{name: "a tally below migrateMinAcquires stays",
			acq: map[wire.SiteID]uint64{2: migrateMinAcquires - 1}},
		{name: "round trips pick among challengers",
			acq:  map[wire.SiteID]uint64{2: 5, 3: 4},
			rtts: map[wire.SiteID]time.Duration{2: 15 * time.Millisecond, 3: 30 * time.Millisecond}, want: 3},
		{name: "round trips do not decide stay against move",
			acq:  map[wire.SiteID]uint64{self: 4, 2: 6},
			rtts: map[wire.SiteID]time.Duration{2: 30 * time.Millisecond}},
		{name: "acquirers near the incumbent count against the move",
			acq:  map[wire.SiteID]uint64{4: 5, 2: 7},
			rtts: map[wire.SiteID]time.Duration{4: time.Millisecond, 2: 30 * time.Millisecond}},
		{name: "a site outside the ring is no target",
			acq: map[wire.SiteID]uint64{9: 12}, member: func(s wire.SiteID) bool { return s != 9 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total uint64
			for _, n := range tc.acq {
				total += n
			}
			member := tc.member
			if member == nil {
				member = func(wire.SiteID) bool { return true }
			}
			to, ok := migrationTarget(tc.acq, total, self, member, rttOf(tc.rtts))
			if !ok {
				to = 0
			}
			if to != tc.want {
				t.Fatalf("migrationTarget(%v) = %d, %v; want %d", tc.acq, to, ok, tc.want)
			}
		})
	}
}

// TestHomesSettleBetweenRegions runs two clients in different regions
// (a backbone round trip apart) taking strict turns on locks homed at
// neither. Each lock's home moves once, to one of the clients, and then
// stays: an even split is a tie, and a tie does not move.
func TestHomesSettleBetweenRegions(t *testing.T) {
	const sites = 4
	opts := placementOpts()
	opts.mnetCfg = mnet.Config{RTO: 100 * time.Millisecond, MaxRetries: 2}
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)
	geo := netsim.RegionalWAN(2).Scaled(0.5)
	ids := make([]netsim.NodeID, 0, sites)
	for i := 1; i <= sites; i++ {
		ids = append(ids, netsim.NodeID(i))
	}
	geo.Apply(tc.sn.Underlying(), ids)
	// Site 1 and site 2 are the clients, one per region; sites 3 and 4
	// only manage.
	clients := []wire.SiteID{1, 2}
	var locks []wire.LockID
	for lock := wire.LockID(40); len(locks) < 3; lock++ {
		if h, _ := tc.node(1).homeOf(lock); h > 2 {
			locks = append(locks, lock)
		}
	}
	type view struct {
		rl  *ReplicaLock
		rep *Replica
	}
	views := make([][]view, len(clients))
	for i, site := range clients {
		for _, lock := range locks {
			name := fmt.Sprintf("turns-%d", lock)
			var rl *ReplicaLock
			var rep *Replica
			if i == 0 {
				rl, rep = mustCreate(t, tc.node(site).NewHandle(name), lock, name, []int32{0}, sites)
			} else {
				rl, rep = mustAttach(t, tc.node(site).NewHandle(name), lock, name)
			}
			views[i] = append(views[i], view{rl, rep})
		}
	}
	time.Sleep(100 * time.Millisecond) // registrations cross the backbone
	next := int32(0)
	round := func() {
		for j := range locks {
			for i := range clients {
				v := views[i][j]
				if err := v.rl.Lock(ctx); err != nil {
					t.Fatalf("site %d lock %d: %v", clients[i], locks[j], err)
				}
				if got := v.rep.Content().IntsData()[0]; j == 0 && got != next {
					t.Fatalf("site %d read %d, want %d", clients[i], got, next)
				}
				if j == 0 {
					next++
					v.rep.Content().IntsData()[0] = next
				}
				if err := v.rl.Unlock(ctx); err != nil {
					t.Fatalf("site %d unlock %d: %v", clients[i], locks[j], err)
				}
			}
		}
	}
	migrations := func() int64 { return opts.Metrics.CounterValue(obs.CHomeMigrations) }
	for r := 0; migrations() < int64(len(locks)); r++ {
		if r == 40 {
			t.Fatalf("after %d rounds %d of %d locks have moved", r, migrations(), len(locks))
		}
		round()
	}
	settled := migrations()
	if settled != int64(len(locks)) {
		t.Fatalf("CHomeMigrations = %d before every lock settled, want one move per lock (%d)", settled, len(locks))
	}
	// Every tally now holds at least migrateMinAcquires, so every sweep
	// from here on decides each idle lock again.
	for r := 0; r < migrateMinAcquires; r++ {
		round()
	}
	time.Sleep(3 * opts.LeaseSweep)
	if got := migrations(); got != settled {
		t.Fatalf("CHomeMigrations went %d -> %d while the clients kept taking turns; homes should stay put", settled, got)
	}
}
