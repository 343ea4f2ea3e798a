package core

import (
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// A dead home's records are taken over in one of two ways: an operator
// starts a surrogate from the fixed home's snapshot, which takes the whole
// ring slice, or a home's standby promotes the shadows it was streamed,
// lock by lock. These tests pin what each kind of takeover serves.

// TestSurrogateKeepsLiveHold takes the fixed home's snapshot while site 3
// holds the lock on a long lease, kills the home and starts a surrogate
// from the snapshot. The hold survives the takeover like a standby
// promotion's: site 3's release commits its version at the surrogate, and
// a reader on site 2 reads site 3's bytes at that version.
func TestSurrogateKeepsLiveHold(t *testing.T) {
	opts := defaultOpts()
	opts.RequestTimeout = 400 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	mustCreate(t, h1, 6, "state", []int32{1}, 3)
	h2 := tc.node(2).NewHandle("reader")
	rl2, r2 := mustAttach(t, h2, 6, "state")
	h3 := tc.node(3).NewHandle("holder")
	h3.SetLease(time.Minute)
	rl3, r3 := mustAttach(t, h3, 6, "state")
	rl3.SetUpdateReplicas(1)
	settle()

	if err := rl3.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	held := rl3.Version()
	state := tc.node(1).Sync().Snapshot()
	if rec := state.Locks[6]; !rec.HasHolder || rec.Holder.Thread != h3.ID() {
		t.Fatalf("snapshot record %+v does not carry site 3's hold", rec)
	}
	tc.kill(1)
	if err := tc.node(2).StartSurrogate(ctx, state); err != nil {
		t.Fatal(err)
	}

	r3.Content().IntsData()[0] = 42
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatalf("release into the surrogate: %v", err)
	}
	l := tc.node(2).Sync().lookupLock(6)
	l.mu.Lock()
	version, holder := l.version, l.holder
	l.mu.Unlock()
	if version != held+1 || holder != nil {
		t.Fatalf("surrogate record at v%d holder %+v, want v%d released", version, holder, held+1)
	}

	if err := rl2.LockShared(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r2.Content().IntsData()[0]; got != 42 || rl2.Version() != held+1 {
		t.Fatalf("reader holds %d at v%d, want site 3's 42 at v%d", got, rl2.Version(), held+1)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSurrogateServesLockRegisteredAfterTakeover registers, grants and
// releases a lock first created after a surrogate took over: the surrogate
// serves the dead home's whole slice, not just the records its snapshot
// carried, and every site routes there.
func TestSurrogateServesLockRegisteredAfterTakeover(t *testing.T) {
	opts := defaultOpts()
	opts.RequestTimeout = 400 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	state := tc.node(1).Sync().Snapshot()
	tc.kill(1)
	if err := tc.node(2).StartSurrogate(ctx, state); err != nil {
		t.Fatal(err)
	}

	h3 := tc.node(3).NewHandle("creator")
	rl3, r3 := mustCreate(t, h3, 8, "fresh", []int32{5}, 2)
	h2 := tc.node(2).NewHandle("surrogate-site")
	rl2, r2 := mustAttach(t, h2, 8, "fresh")
	settle()
	if tc.node(2).Sync().lookupLock(8) == nil {
		t.Fatal("the surrogate holds no record of the lock registered after takeover")
	}

	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("acquire at the surrogate: %v", err)
	}
	if got := r2.Content().IntsData()[0]; got != 5 {
		t.Fatalf("read %d, want the creator's 5", got)
	}
	r2.Content().IntsData()[0] = 6
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl3.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r3.Content().IntsData()[0]; got != 6 {
		t.Fatalf("read %d, want site 2's 6", got)
	}
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPromotedStandbyDoesNotRecreateMigratedLock migrates a lock away from
// its ring home, kills the old home and promotes its standby. A site that
// never learned the migration still routes the lock by the ring, and even
// a register delivered straight to the promoted standby must not create a
// second home for it there: a standby takes over the records it was
// streamed, lock by lock, never the dead home's whole slice.
func TestPromotedStandbyDoesNotRecreateMigratedLock(t *testing.T) {
	const sites = 5
	const lockID = wire.LockID(31)
	opts := placementOpts()
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	accessor := otherSite(t, sites, home, standby)
	stranger := otherSite(t, sites, home, standby, accessor)

	hc := tc.node(home).NewHandle("creator")
	mustCreate(t, hc, lockID, "drifter", []int32{0}, sites)
	ha := tc.node(accessor).NewHandle("local")
	rlA, _ := mustAttach(t, ha, lockID, "drifter")
	settle()
	for i := 0; i < 2*migrateMinAcquires; i++ {
		if err := rlA.Lock(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if err := rlA.Unlock(ctx); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if !eventually(t, func() bool { return tc.node(accessor).Sync().home.isAdopted(lockID) }) {
		t.Fatal("home never migrated to the dominant accessor")
	}

	tc.kill(home)
	tc.node(standby).PromoteStandby(home)
	settle()
	if to, _ := tc.node(stranger).homeOf(lockID); to != home {
		t.Fatalf("site %d routes lock %d to site %d; it never learned a route, want the ring's %d",
			stranger, lockID, to, home)
	}
	reg := &wire.RegisterReplica{Lock: lockID, Site: stranger, Names: []string{"drifter"}}
	if err := tc.node(stranger).client.sendToSite(ctx, reg, standby); err != nil {
		t.Fatal(err)
	}
	settle()
	if tc.node(standby).Sync().lookupLock(lockID) != nil {
		t.Fatalf("promoted standby %d created a record for lock %d, which lives at site %d", standby, lockID, accessor)
	}
	if l := tc.node(accessor).Sync().lookupLock(lockID); l == nil {
		t.Fatalf("site %d lost its record of lock %d", accessor, lockID)
	}
}

// TestFixedHomeStreamsNothing runs lock traffic on the paper's fixed home —
// a ring of one — past the tally that would migrate a placed lock, and
// checks that it streams no standby update, times no standby stream and
// migrates nothing.
func TestFixedHomeStreamsNothing(t *testing.T) {
	opts := defaultOpts()
	opts.Metrics = obs.NewRegistry()
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	mustCreate(t, h1, 9, "fixed", []int32{0}, 3)
	h3 := tc.node(3).NewHandle("remote")
	rl3, r3 := mustAttach(t, h3, 9, "fixed")
	settle()
	for i := 0; i < 2*migrateMinAcquires; i++ {
		if err := rl3.Lock(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		r3.Content().IntsData()[0]++
		if err := rl3.Unlock(ctx); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	time.Sleep(4 * opts.LeaseSweep)

	m := opts.Metrics
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"standby updates", m.CounterValue(obs.CStandbyUpdates)},
		{"standby_stream observations", m.Hist(obs.HStandbyStream).Count},
		{"migrations", m.CounterValue(obs.CHomeMigrations)},
		{"handoffs", m.CounterValue(obs.CHandoffsOut)},
	} {
		if c.got != 0 {
			t.Errorf("%s = %d on a fixed home, want 0", c.name, c.got)
		}
	}
	if got := m.CounterValue(obs.CGrants); got < 2*migrateMinAcquires {
		t.Errorf("grants = %d, want at least %d", got, 2*migrateMinAcquires)
	}
}
