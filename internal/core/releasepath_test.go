package core

import (
	"errors"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/placement"
	"mocha/internal/store"
	"mocha/internal/wire"
)

// These tests pin the release path by what happens before what — link
// delays far above the scheduler's noise, blocking fault hooks, recorded
// history — not by comparing stopwatches: under home placement Unlock hands
// the RELEASELOCK to the release carriage and returns, the same lock's next
// acquire from this site leaves only after that release is acknowledged
// (whatever rung of the ladder the acknowledgment came from), every other
// lock proceeds at once, a release nobody acknowledged is counted, Close
// waits the carriage out, and the paper's fixed home still blocks.

// remoteHomedLock returns a lock ID the ring homes at a site other than
// releaser, together with that home.
func remoteHomedLock(t *testing.T, n *Node, releaser wire.SiteID, from wire.LockID) (wire.LockID, wire.SiteID) {
	t.Helper()
	for id := from; id < from+500; id++ {
		if home, _ := n.homeOf(id); home != releaser {
			return id, home
		}
	}
	t.Fatal("every lock hashes to the releaser")
	return 0, 0
}

// ringOf builds the placement ring a cluster of sites 1..n will use, for
// tests that must pick their sites before the cluster exists.
func ringOf(n int) *placement.Ring {
	members := make([]wire.SiteID, n)
	for i := range members {
		members[i] = wire.SiteID(i + 1)
	}
	return placement.New(members, placement.DefaultVirtualNodes)
}

// slowLink puts d each way between two sites.
func slowLink(tc *testCluster, a, b wire.SiteID, d time.Duration) {
	net := tc.sn.Underlying()
	net.SetLinkProfile(netsim.NodeID(a), netsim.NodeID(b), netsim.Profile{PropDelay: d})
	net.SetLinkProfile(netsim.NodeID(b), netsim.NodeID(a), netsim.Profile{PropDelay: d})
}

// lockEvents returns the home-side events (ACQUIRE, GRANT, RELEASE, BREAK)
// recorded for one lock, in history order.
func lockEvents(tc *testCluster, lock wire.LockID) []wire.HistoryEvent {
	var out []wire.HistoryEvent
	for _, ev := range tc.rec.Events() {
		if ev.Lock != lock {
			continue
		}
		switch ev.Kind {
		case wire.HistAcquire, wire.HistGrant, wire.HistRelease, wire.HistBreak:
			out = append(out, ev)
		}
	}
	return out
}

// assertReleaseBeforeReacquire checks the home's view of one thread's two
// consecutive holds of a lock: ACQUIRE GRANT RELEASE ACQUIRE GRANT, no
// grant revised, no restored hold broken as stale — the duplicate-acquire
// path an overtaking ACQUIRE would have taken.
func assertReleaseBeforeReacquire(t *testing.T, tc *testCluster, lock wire.LockID, thread wire.ThreadID) {
	t.Helper()
	var kinds []wire.HistoryKind
	for _, ev := range lockEvents(tc, lock) {
		if ev.Kind == wire.HistBreak {
			t.Errorf("hold of lock %d broken (%s): the re-acquire overtook its release", lock, ev.Note)
		}
		if ev.Thread != thread {
			continue
		}
		if ev.Kind == wire.HistGrant && ev.Revised {
			t.Errorf("revised grant of lock %d to thread %d: the home saw an ACQUIRE from its recorded holder", lock, thread)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []wire.HistoryKind{wire.HistAcquire, wire.HistGrant, wire.HistRelease, wire.HistAcquire, wire.HistGrant}
	if len(kinds) < len(want) {
		t.Fatalf("home history of lock %d for thread %d = %v, want at least %v", lock, thread, kinds, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("home history of lock %d for thread %d = %v, want %v first", lock, thread, kinds, want)
		}
	}
}

// TestUnlockLeavesHomeAckToCarriage puts 100 ms each way between a
// releaser and its lock's home. Under placement Unlock returns with the
// RELEASELOCK still on the wire; the round trip shows in release_ack and in
// the queue wait of the same lock's next acquire, which the home sees after
// the RELEASE; a different lock homed behind the same link is not held up.
// With the fixed home the same Unlock blocks for the round trip and the
// RELEASE is in the history when it returns.
func TestUnlockLeavesHomeAckToCarriage(t *testing.T) {
	const slow = 100 * time.Millisecond
	for _, placement := range []bool{true, false} {
		placement := placement
		name := "fixed-home"
		if placement {
			name = "placement"
		}
		t.Run(name, func(t *testing.T) {
			opts := defaultOpts()
			opts.placement = placement
			// The RTO must clear the slow link's round trip.
			opts.mnetCfg = mnet.Config{RTO: 3 * slow, MaxRetries: 4}
			opts.metrics = obs.NewRegistry()
			tc := newTestCluster(t, 3, opts)
			ctx := tctx(t)

			const releaser = wire.SiteID(2)
			lockA, home := remoteHomedLock(t, tc.node(1), releaser, 40)
			lockB := lockA
			for h := wire.SiteID(0); h != home; {
				lockB, h = remoteHomedLock(t, tc.node(1), releaser, lockB+1)
			}
			hc := tc.node(home).NewHandle("creator")
			mustCreate(t, hc, lockA, "a", []int32{1}, 3)
			mustCreate(t, hc, lockB, "b", []int32{1}, 3)
			hr := tc.node(releaser).NewHandle("releaser")
			rlA, rA := mustAttach(t, hr, lockA, "a")
			rlB, _ := mustAttach(t, tc.node(releaser).NewHandle("bystander"), lockB, "b")
			settle()
			if err := rlA.Lock(ctx); err != nil {
				t.Fatal(err)
			}
			rA.Content().IntsData()[0] = 2

			slowLink(tc, releaser, home, slow)
			released := func() bool {
				for _, ev := range lockEvents(tc, lockA) {
					if ev.Kind == wire.HistRelease {
						return true
					}
				}
				return false
			}
			if err := rlA.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
			if released() != !placement {
				t.Fatalf("RELEASE recorded at Unlock's return = %v with placement %v", released(), placement)
			}
			if err := rlA.Unlock(ctx); !errors.Is(err, ErrNotHeld) {
				t.Fatalf("second Unlock = %v, want ErrNotHeld", err)
			}
			if !placement {
				return
			}

			// Another lock behind the same link: its request leaves at once.
			bDone := make(chan error, 1)
			go func() {
				err := rlB.Lock(ctx)
				if err == nil {
					err = rlB.Unlock(ctx)
				}
				bDone <- err
			}()
			// The same lock again, from the thread the home still records as
			// holder until the RELEASE lands.
			if err := rlA.Lock(ctx); err != nil {
				t.Fatal(err)
			}
			if got := rlA.Version(); got != 2 {
				t.Fatalf("re-acquired at v%d, want v2", got)
			}
			if err := rlA.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
			if err := <-bDone; err != nil {
				t.Fatal(err)
			}
			assertReleaseBeforeReacquire(t, tc, lockA, hr.ID())

			var waitA, waitB []time.Duration
			for _, sp := range opts.metrics.Spans() {
				if sp.Op != "acquire" || wire.SiteID(sp.Site) != releaser {
					continue
				}
				for _, ph := range sp.Phases {
					if ph.Name != obs.HQueueWait.PhaseName() {
						continue
					}
					if wire.LockID(sp.Lock) == lockA {
						waitA = append(waitA, ph.Dur)
					} else if wire.LockID(sp.Lock) == lockB {
						waitB = append(waitB, ph.Dur)
					}
				}
			}
			if len(waitA) != 2 || waitA[1] < slow {
				t.Errorf("queue waits of lock %d = %v, want the second to sit out the release's round trip (%v)", lockA, waitA, 2*slow)
			}
			if len(waitB) != 1 || waitB[0] > slow/2 {
				t.Errorf("queue waits of lock %d = %v, want one near zero: another lock's release must not hold it", lockB, waitB)
			}
			// The last two acknowledgments are still on their way back.
			if !eventually(t, func() bool { return opts.metrics.CounterValue(obs.CReleases) == 3 }) {
				t.Fatalf("releases = %d, want 3", opts.metrics.CounterValue(obs.CReleases))
			}
			if ack := opts.metrics.Hist(obs.HReleaseAck); ack.Count != 3 || ack.Sum < 3*2*slow {
				t.Errorf("release_ack = %d observations summing to %v, want 3 of a slow round trip (%v) each", ack.Count, ack.Sum, 2*slow)
			}
			if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 0 {
				t.Errorf("release failures = %d, want 0", got)
			}
		})
	}
}

// TestReacquireWaitsOutReleaseLadder kills a lock's home under its holder.
// Unlock returns at once; the carriage fails against the dead home and
// delivers the release on the re-resolved route to the standby, promoted
// meanwhile (its HomeMoved broadcast taught the releaser the route); the
// same thread's next Lock waits at the gate for all of that. Had its ACQUIRE
// left first, the promoted home would have met its own restored holder
// asking again, broken the hold as stale and dropped the release — and v2
// with it.
func TestReacquireWaitsOutReleaseLadder(t *testing.T) {
	const sites = 3
	opts := placementOpts()
	opts.reqTO = 400 * time.Millisecond
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	const lockID = wire.LockID(30)
	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	releaser := otherSite(t, sites, home, standby)

	mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "mobile", []int32{1}, sites)
	hr := tc.node(releaser).NewHandle("survivor")
	rl, rep := mustAttach(t, hr, lockID, "mobile")
	settle()
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rep.Content().IntsData()[0] = 2
	// The grant left after the hold was streamed; let the standby's
	// dispatcher apply it before its source disappears.
	settle()
	tc.kill(home)

	if err := rl.Unlock(ctx); err != nil {
		t.Fatalf("unlock with the home dead: %v", err)
	}
	relocked := make(chan error, 1)
	go func() { relocked <- rl.Lock(ctx) }()
	// The carriage is still failing against the dead home (mnet gives up
	// after four 25 ms retries); only now does the standby take over.
	tc.node(standby).PromoteStandby(home)

	if err := <-relocked; err != nil {
		t.Fatalf("re-acquire through the promoted home: %v", err)
	}
	if got := rep.Content().IntsData()[0]; got != 2 || rl.Version() != 2 {
		t.Fatalf("re-acquired %d at v%d, want 2 at v2", got, rl.Version())
	}
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	assertReleaseBeforeReacquire(t, tc, lockID, hr.ID())
	if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 0 {
		t.Errorf("release failures = %d, want 0: the promoted standby acknowledged", got)
	}
}

// TestUndeliveredReleaseIsCounted leaves a releaser with nobody to release
// to. Under placement — home and standby both dead — Unlock still returns
// nil, the failure lands on the counter, and the gate reopens so the next
// acquire fails on its own account instead of hanging. With the fixed home
// dead, Unlock itself reports ErrNoSync as it always did.
func TestUndeliveredReleaseIsCounted(t *testing.T) {
	t.Run("placement", func(t *testing.T) {
		const sites = 3
		opts := placementOpts()
		opts.reqTO = 300 * time.Millisecond
		tc := newTestCluster(t, sites, opts)
		ctx := tctx(t)

		const lockID = wire.LockID(30)
		home, _ := tc.node(1).homeOf(lockID)
		standby := tc.standbyOf(home)
		releaser := otherSite(t, sites, home, standby)
		mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "orphan", []int32{1}, sites)
		rl, _ := mustAttach(t, tc.node(releaser).NewHandle("stranded"), lockID, "orphan")
		settle()
		if err := rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		tc.kill(home)
		tc.kill(standby)

		if err := rl.Unlock(ctx); err != nil {
			t.Fatalf("unlock = %v, want nil: the release is the carriage's", err)
		}
		if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 0 {
			t.Fatalf("release failures = %d with the ladder still climbing", got)
		}
		if err := rl.Lock(ctx); !errors.Is(err, ErrNoSync) {
			t.Fatalf("re-acquire with every manager dead = %v, want ErrNoSync", err)
		}
		if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 1 {
			t.Fatalf("release failures = %d after the gate reopened, want 1", got)
		}
		if got := opts.metrics.CounterValue(obs.CReleases); got != 0 {
			t.Fatalf("releases = %d, want 0", got)
		}
	})
	t.Run("fixed-home", func(t *testing.T) {
		opts := defaultOpts()
		opts.reqTO = 300 * time.Millisecond
		opts.metrics = obs.NewRegistry()
		tc := newTestCluster(t, 2, opts)
		ctx := tctx(t)

		mustCreate(t, tc.node(1).NewHandle("creator"), 6, "orphan", []int32{1}, 2)
		rl, _ := mustAttach(t, tc.node(2).NewHandle("stranded"), 6, "orphan")
		settle()
		if err := rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		tc.kill(1)
		if err := rl.Unlock(ctx); !errors.Is(err, ErrNoSync) {
			t.Fatalf("unlock with the home dead = %v, want ErrNoSync", err)
		}
		if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 1 {
			t.Fatalf("release failures = %d, want 1", got)
		}
	})
}

// TestReleaseBeforePromotionIsCounted kills a lock's home under its holder
// and releases while the standby is alive but has not promoted yet. The
// ladder used to end at the standby: its endpoint acknowledged the
// RELEASELOCK, its manager dropped it as not its own, and the carriage
// counted a delivery while the release was lost. The loss is now on the
// failure counter, and the lease ends the hold: once the standby promotes
// and the holder's site is gone too, the hold breaks and a reader gets the
// lock at the last committed version.
func TestReleaseBeforePromotionIsCounted(t *testing.T) {
	const sites = 4
	const lockID = wire.LockID(30)
	opts := placementOpts()
	opts.lease = 300 * time.Millisecond
	// The carriage gives up on the dead home after five 25 ms sends; three
	// missed standby probes at this cadence take over a second.
	opts.sweep = 400 * time.Millisecond
	opts.reqTO = 300 * time.Millisecond
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	releaser := otherSite(t, sites, home, standby)
	reader := otherSite(t, sites, home, standby, releaser)
	// Created at the reader, so v1 outlives both kills.
	rlR, rR := mustCreate(t, tc.node(reader).NewHandle("reader"), lockID, "lost", []int32{1}, sites)
	rlW, rW := mustAttach(t, tc.node(releaser).NewHandle("writer"), lockID, "lost")
	settle()
	if err := rlW.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rW.Content().IntsData()[0] = 2
	settle() // the standby applies the streamed hold
	tc.kill(home)

	if err := rlW.Unlock(ctx); err != nil {
		t.Fatalf("unlock = %v, want nil: the release is the carriage's", err)
	}
	failures := func() int64 { return opts.metrics.CounterValue(obs.CReleaseFailures) }
	if !eventually(t, func() bool { return failures() == 1 }) {
		t.Fatalf("release failures = %d, want the lost release counted once", failures())
	}
	if got := opts.metrics.CounterValue(obs.CStandbyPromotions); got != 0 {
		t.Fatalf("standby promoted %d times before the carriage gave up: the window under test is gone", got)
	}

	tc.node(standby).PromoteStandby(home)
	tc.kill(releaser)
	if err := rlR.Lock(ctx); err != nil {
		t.Fatalf("acquire behind the lost release: %v", err)
	}
	if got := rR.Content().IntsData()[0]; got != 1 || rlR.Version() != 1 {
		t.Fatalf("reader holds %d at v%d, want the committed 1 at v1", got, rlR.Version())
	}
	if err := rlR.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := opts.metrics.CounterValue(obs.CLeaseBreaks); got != 1 {
		t.Errorf("lease breaks = %d, want 1", got)
	}
	if got := failures(); got != 1 {
		t.Errorf("release failures = %d, want 1", got)
	}
	mon := check.NewMonitor(0)
	for _, ev := range tc.rec.Events() {
		mon.Record(ev)
		if ev.Kind == wire.HistRelease && ev.Site == releaser {
			t.Errorf("the lost release reached a manager: %v", ev)
		}
	}
	if cx := mon.Err(); cx != nil {
		t.Errorf("monitor: %v", cx)
	}
}

// TestCloseWaitsOutReleaseCarriage holds a release inside the carriage with
// a blocking fault hook: Unlock has returned, Close must not — and once the
// hook lets go, Close returns with the release on exactly one of the two
// counters, for good.
func TestCloseWaitsOutReleaseCarriage(t *testing.T) {
	const releaser = wire.SiteID(2)
	opts := placementOpts()
	entered := make(chan struct{})
	letGo := make(chan struct{})
	opts.faultHooks = map[wire.SiteID]FaultHook{
		releaser: func(fc FaultContext) FaultDecision {
			if fc.Point == FPDropRelease {
				close(entered)
				<-letGo
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	lockID, home := remoteHomedLock(t, tc.node(1), releaser, 40)
	mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "last", []int32{1}, 3)
	rl, _ := mustAttach(t, tc.node(releaser).NewHandle("leaver"), lockID, "last")
	settle()
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		_ = tc.node(releaser).Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a release still in the carriage")
	case <-time.After(100 * time.Millisecond):
	}
	close(letGo)
	<-closed

	tally := func() int64 {
		return opts.metrics.CounterValue(obs.CReleases) + opts.metrics.CounterValue(obs.CReleaseFailures)
	}
	if got := tally(); got != 1 {
		t.Fatalf("releases + release failures = %d after Close, want 1", got)
	}
	time.Sleep(100 * time.Millisecond)
	if got := tally(); got != 1 {
		t.Fatalf("releases + release failures moved to %d after Close returned", got)
	}
	// A release handed over after Close fails at once and is counted.
	<-tc.node(releaser).client.carryRelease(&wire.ReleaseLock{Lock: lockID, Releaser: releaser}, nil, nil)
	if got := opts.metrics.CounterValue(obs.CReleaseFailures); got < 1 {
		t.Fatalf("release failures = %d after a post-Close release, want it counted", got)
	}
}

// TestForwardedReleaseRidesCarriage sends a holder's release to a manager
// that only has a forwarding route for the lock. The forward reaches the
// real home through the forwarder's release carriage; with the real home
// and its standby dead the forward is retried down the ladder and its loss
// is on the forwarder's failure counter — it used to be one unchecked send
// in a bare goroutine.
func TestForwardedReleaseRidesCarriage(t *testing.T) {
	for _, homeAlive := range []bool{true, false} {
		homeAlive := homeAlive
		name := "home-dead"
		if homeAlive {
			name = "home-alive"
		}
		t.Run(name, func(t *testing.T) {
			const sites = 4
			opts := placementOpts()
			opts.reqTO = 300 * time.Millisecond
			tc := newTestCluster(t, sites, opts)
			ctx := tctx(t)

			const lockID = wire.LockID(30)
			home, _ := tc.node(1).homeOf(lockID)
			standby := tc.standbyOf(home)
			forwarder := otherSite(t, sites, home, standby)
			releaser := otherSite(t, sites, home, standby, forwarder)
			mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "moved", []int32{1}, sites)
			hr := tc.node(releaser).NewHandle("holder")
			rl, rep := mustAttach(t, hr, lockID, "moved")
			settle()
			if err := rl.Lock(ctx); err != nil {
				t.Fatal(err)
			}
			rep.Content().IntsData()[0] = 2

			// The forwarder believes it handed the lock to its real home; the
			// releaser believes the forwarder is the home.
			hs := tc.node(forwarder).Sync().home
			hs.mu.Lock()
			hs.moved[lockID] = &homeRoute{to: home, epoch: 1}
			hs.mu.Unlock()
			tc.node(releaser).learnHome(lockID, forwarder, 9)
			if !homeAlive {
				tc.kill(home)
				tc.kill(standby)
			}

			if err := rl.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
			failures := func() int64 { return opts.metrics.CounterValue(obs.CReleaseFailures) }
			if !homeAlive {
				if !eventually(t, func() bool { return failures() == 1 }) {
					t.Fatalf("release failures = %d, want the lost forward counted once", failures())
				}
				return
			}
			l := tc.node(home).Sync().lookupLock(lockID)
			if !eventually(t, func() bool {
				l.mu.Lock()
				defer l.mu.Unlock()
				return l.holder == nil && l.version == 2
			}) {
				t.Fatal("the forwarded release never reached the lock's home")
			}
			if failures() != 0 {
				t.Fatalf("release failures = %d, want 0", failures())
			}
			// The forwarder's own router learned the route it forwarded along.
			if to, _ := tc.node(forwarder).homeOf(lockID); to != home {
				t.Fatalf("forwarder routes lock %d to site %d, want %d", lockID, to, home)
			}
		})
	}
}

// TestDropReleaseRecoversPushedVersion is the drop-release fault point's
// deterministic case: a site dies in the window placement opened — Unlock
// returned, the pushes landed, the RELEASELOCK never left. The lease
// breaks, the committed version's only owner is the dead site, so the
// recovery poll runs and finds the pushed version at a sharer; the next
// acquirer elsewhere reads the released bytes. The dead site's durable
// record of that version replays dirty — its release was never acknowledged.
func TestDropReleaseRecoversPushedVersion(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(30)
	opts := placementOpts()
	opts.lease = 200 * time.Millisecond
	opts.sweep = 50 * time.Millisecond
	opts.reqTO = 400 * time.Millisecond

	// The hooks and store directory are per site and fixed before the
	// cluster exists, so ask the ring NewNode will build.
	home := ringOf(sites).Home(lockID)
	releaser := otherSite(t, sites, home)
	reader := otherSite(t, sites, home, releaser)

	dir := t.TempDir()
	opts.storeDirs = map[wire.SiteID]string{releaser: dir}
	dropped := make(chan struct{})
	opts.faultHooks = map[wire.SiteID]FaultHook{
		releaser: func(fc FaultContext) FaultDecision {
			if fc.Point == FPDropRelease && fc.Version == 3 {
				close(dropped)
				return FaultDecision{Drop: true}
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "cash", []int32{100}, sites)
	rlW, rW := mustAttach(t, tc.node(releaser).NewHandle("writer"), lockID, "cash")
	settle()

	// v2 lives at the releaser alone, so it is the committed version's only
	// up-to-date site and last owner.
	writeVersion(t, rlW, rW, 200)
	// v3 is pushed to the one other sharer and then its release is lost.
	rlW.SetUpdateReplicas(2)
	if err := rlW.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rW.Content().IntsData()[0] = 300
	if err := rlW.Unlock(ctx); err != nil {
		t.Fatalf("unlock = %v, want nil: the site dies after Unlock returned", err)
	}
	<-dropped
	tc.kill(releaser)

	// A site that was not there for the push: what it reads, it reads
	// through the recovery.
	rlR, rR := mustAttach(t, tc.node(reader).NewHandle("reader"), lockID, "cash")
	settle()
	if err := rlR.Lock(ctx); err != nil {
		t.Fatalf("acquire behind the lost release: %v", err)
	}
	if got := rR.Content().IntsData()[0]; got != 300 || rlR.Version() != 3 {
		t.Fatalf("reader holds %d at v%d, want the released 300 at v3", got, rlR.Version())
	}
	if err := rlR.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	var broke, recovered bool
	mon := check.NewMonitor(0)
	for _, ev := range tc.rec.Events() {
		mon.Record(ev)
		if ev.Lock != lockID {
			continue
		}
		switch ev.Kind {
		case wire.HistBreak:
			broke = broke || ev.Site == releaser
		case wire.HistRecover:
			recovered = recovered || (ev.Version == 3 && ev.Site != releaser)
		case wire.HistRelease:
			if ev.Site == releaser && ev.Version == 3 {
				t.Errorf("the dropped release reached the home: %v", ev)
			}
		}
	}
	if !broke || !recovered {
		t.Errorf("lease broken = %v, poll recovered v3 at a sharer = %v; want both", broke, recovered)
	}
	if cx := mon.Err(); cx != nil {
		t.Errorf("monitor: %v", cx)
	}
	if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 1 {
		t.Errorf("release failures = %d, want 1", got)
	}

	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	recs, err := fs.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Lock == lockID {
			if rec.Version != 3 || !rec.Dirty {
				t.Fatalf("releaser's record replays v%d dirty=%v, want v3 dirty", rec.Version, rec.Dirty)
			}
			return
		}
	}
	t.Fatalf("no record of lock %d in the releaser's store", lockID)
}

// TestLostReleaseVersionNotReused is the other half of the drop-release
// window: the orphaned version is *not* found by a poll, because the
// committed version still has a clean owner and the next writer is served
// from it. That writer must not publish under the number the dead holder
// spent: a sharer holding the orphan would take the push for a duplicate,
// acknowledge it, be listed up to date — and serve the dead thread's bytes
// as the new version.
func TestLostReleaseVersionNotReused(t *testing.T) {
	const sites = 4
	const sharer = wire.SiteID(1) // lowest ID: a UR=2 push goes here first
	opts := placementOpts()
	opts.lease = 200 * time.Millisecond
	opts.sweep = 50 * time.Millisecond
	opts.reqTO = 400 * time.Millisecond

	ring := ringOf(sites)
	lockID := wire.LockID(30)
	for ring.Home(lockID) == sharer {
		lockID++
	}
	home := ring.Home(lockID)
	writer := otherSite(t, sites, sharer, home)
	next := otherSite(t, sites, sharer, home, writer)

	dropped := make(chan struct{})
	opts.faultHooks = map[wire.SiteID]FaultHook{
		writer: func(fc FaultContext) FaultDecision {
			if fc.Point == FPDropRelease {
				close(dropped)
				return FaultDecision{Drop: true}
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)

	mustCreate(t, tc.node(home).NewHandle("creator"), lockID, "cash", []int32{100}, sites)
	rlW, rW := mustAttach(t, tc.node(writer).NewHandle("writer"), lockID, "cash")
	rlS, rS := mustAttach(t, tc.node(sharer).NewHandle("sharer"), lockID, "cash")
	rlN, rN := mustAttach(t, tc.node(next).NewHandle("next"), lockID, "cash")
	settle()

	// The writer pushes its v2 to the sharer and dies with the release.
	rlW.SetUpdateReplicas(2)
	if err := rlW.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rW.Content().IntsData()[0] = 200
	if err := rlW.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	<-dropped
	tc.kill(writer)
	if !eventually(t, func() bool { return rlS.Version() == 2 }) {
		t.Fatalf("sharer at v%d, want the orphaned v2", rlS.Version())
	}

	// The next writer is brought up to the committed v1 by its clean owner
	// and pushes its own release to the same sharer.
	rlN.SetUpdateReplicas(2)
	if err := rlN.Lock(ctx); err != nil {
		t.Fatalf("acquire behind the lost release: %v", err)
	}
	if got := rN.Content().IntsData()[0]; got != 100 {
		t.Fatalf("next writer reads %d, want the committed 100", got)
	}
	rN.Content().IntsData()[0] = 300
	if err := rlN.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rlN.Version(); got <= 2 {
		t.Fatalf("next writer published v%d: the dead holder's number was reused", got)
	}

	if err := rlS.LockShared(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rS.Content().IntsData()[0]; got != 300 {
		t.Fatalf("sharer reads %d under the lock, want 300 (200 is the dead thread's orphan)", got)
	}
	if err := rlS.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}
