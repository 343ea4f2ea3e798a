package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// These tests pin the NEEDNEWVERSION path's hop count and its ordering
// guarantees by what happens before what — link delays far above the
// scheduler's noise, blocking fault hooks, recorded history — not by
// comparing stopwatches: the transfer directive leaves the home with the
// GRANT, recovery and revised grants still follow the original grant, an
// undeliverable grant discards the directive's outcome, and a source
// daemon's dispatcher never waits on a destination.

// writeVersion takes the lock at a site, stores v in element 0 and
// releases, producing one new version owned by that site.
func writeVersion(t *testing.T, rl *ReplicaLock, r *Replica, v int32) {
	t.Helper()
	ctx := tctx(t)
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r.Content().IntsData()[0] = v
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// phaseOf returns the named phase of the first acquire span a site
// recorded for a lock.
func phaseOf(t *testing.T, reg *obs.Registry, site wire.SiteID, lock wire.LockID, h obs.HistID) time.Duration {
	t.Helper()
	for _, sp := range reg.Spans() {
		if sp.Op != "acquire" || wire.SiteID(sp.Site) != site || wire.LockID(sp.Lock) != lock {
			continue
		}
		for _, ph := range sp.Phases {
			if ph.Name == h.PhaseName() {
				return ph.Dur
			}
		}
	}
	t.Fatalf("no %s phase in an acquire span of lock %d at site %d", h.PhaseName(), lock, site)
	return 0
}

// transfersToward returns the recorded TRANSFER-SEND events whose
// destination is dest, in history order.
func transfersToward(tc *testCluster, dest wire.SiteID) []wire.HistoryEvent {
	var sends []wire.HistoryEvent
	for _, ev := range tc.rec.Events() {
		if ev.Kind == wire.HistTransferSend && ev.Sites.Contains(dest) {
			sends = append(sends, ev)
		}
	}
	return sends
}

// TestTransferOvertakesGrantOnSlowHomeLink puts 150 ms each way between the
// home and the requester and nothing between the source and either: a
// directive that leaves with the grant lands the data one slow hop after
// the ACQUIRELOCK, a full slow hop before the GRANT can arrive, so the
// grantee finds the version already there and its transfer wait is nil. A
// directive sent after the grant's ack would land the data a slow hop
// after the GRANT instead.
func TestTransferOvertakesGrantOnSlowHomeLink(t *testing.T) {
	const slow = 150 * time.Millisecond
	opts := defaultOpts()
	// The RTO must clear the slow link's round trip.
	opts.mnetCfg = mnet.Config{RTO: 3 * slow, MaxRetries: 4}
	opts.metrics = obs.NewRegistry()
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	_, _ = mustCreate(t, tc.node(1).NewHandle("creator"), 6, "v", []int32{1}, 3)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("source"), 6, "v")
	rl3, r3 := mustAttach(t, tc.node(3).NewHandle("requester"), 6, "v")
	settle()
	writeVersion(t, rl2, r2, 200) // v2 lives at site 2 only

	net := tc.sn.Underlying()
	net.SetLinkProfile(1, 3, netsim.Profile{PropDelay: slow})
	net.SetLinkProfile(3, 1, netsim.Profile{PropDelay: slow})

	if err := rl3.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r3.Content().IntsData()[0]; got != 200 {
		t.Fatalf("site 3 reads %d under the lock, want 200", got)
	}
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	if rtt := phaseOf(t, opts.metrics, 3, 6, obs.HRequestRTT); rtt < 2*slow {
		t.Fatalf("request round trip %v is under two slow hops (%v): the link delay did not apply", rtt, 2*slow)
	}
	// The phase runs from the GRANT's arrival to the version being there:
	// a slow hop or more if the directive waited for the grant's ack.
	if wait := phaseOf(t, opts.metrics, 3, 6, obs.HTransferWait); wait > slow/2 {
		t.Fatalf("transfer wait %v after the GRANT, want ~0 (the data was already there)", wait)
	}
	// Same fact from the history: the apply is recorded before the thread
	// enters the lock, and nothing else was sent toward site 3.
	if sends := transfersToward(tc, 3); len(sends) != 1 || sends[0].Site != 2 || sends[0].Version != 2 {
		t.Fatalf("transfers toward site 3 = %+v, want one, from site 2 at v2", sends)
	}
}

// TestUndeliverableGrantDiscardsDirective kills the grantee between the
// grant decision and the GRANT's delivery, with the directive already on
// its way: the hold is dropped and the next requester granted exactly as
// before, the directive's outcome starts no recovery poll for a hold that
// no longer exists, and no goroutine of the abandoned session outlives
// RequestTimeout.
func TestUndeliverableGrantDiscardsDirective(t *testing.T) {
	for _, mode := range []string{"fault", "dead-site"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			opts := defaultOpts()
			opts.reqTO = 400 * time.Millisecond
			opts.metrics = obs.NewRegistry()
			var armed atomic.Bool
			if mode == "fault" {
				opts.faultHooks = map[wire.SiteID]FaultHook{
					1: func(fc FaultContext) FaultDecision {
						return FaultDecision{Drop: fc.Point == FPCrashBeforeGrant && fc.Peer == 3 && armed.Load()}
					},
				}
			}
			tc := newTestCluster(t, 4, opts)
			ctx := tctx(t)

			rl1, _ := mustCreate(t, tc.node(1).NewHandle("creator"), 6, "v", []int32{1}, 4)
			rl2, r2 := mustAttach(t, tc.node(2).NewHandle("source"), 6, "v")
			rl3, _ := mustAttach(t, tc.node(3).NewHandle("doomed"), 6, "v")
			rl4, r4 := mustAttach(t, tc.node(4).NewHandle("next"), 6, "v")
			settle()
			writeVersion(t, rl2, r2, 200)
			baseline := runtime.NumGoroutine()

			// Site 1 holds the lock while sites 3 and 4 queue, in that order.
			if err := rl1.LockShared(ctx); err != nil {
				t.Fatal(err)
			}
			doomedCtx, cancelDoomed := context.WithCancel(ctx)
			doomed := make(chan error, 1)
			go func() { doomed <- rl3.Lock(doomedCtx) }()
			queued := func(n int) func() bool {
				return func() bool {
					l := tc.node(1).Sync().lookupLock(6)
					l.mu.Lock()
					defer l.mu.Unlock()
					return len(l.queue) == n
				}
			}
			if !eventually(t, queued(1)) {
				t.Fatal("site 3 never queued")
			}
			next := make(chan error, 1)
			go func() { next <- rl4.Lock(ctx) }()
			if !eventually(t, queued(2)) {
				t.Fatal("site 4 never queued")
			}
			if mode == "fault" {
				armed.Store(true)
			} else {
				tc.kill(3)
			}
			if err := rl1.Unlock(ctx); err != nil {
				t.Fatal(err)
			}

			if err := <-next; err != nil {
				t.Fatalf("site 4 behind the undeliverable grant: %v", err)
			}
			if got := r4.Content().IntsData()[0]; got != 200 {
				t.Fatalf("site 4 reads %d, want 200", got)
			}
			if err := rl4.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
			cancelDoomed()
			if err := <-doomed; err == nil {
				t.Fatal("site 3's acquire succeeded without a grant")
			}

			dropped := 0
			for _, ev := range tc.rec.Events() {
				if ev.Kind == wire.HistGrantDropped && ev.Site == 3 {
					dropped++
				}
			}
			if dropped != 1 {
				t.Errorf("%d GRANT-DROPPED events for site 3, want 1", dropped)
			}
			// The directive left with the grant, so it is out although the
			// grant never was.
			if !eventually(t, func() bool { return len(transfersToward(tc, 3)) == 1 }) {
				t.Errorf("%d transfers sent toward site 3, want 1", len(transfersToward(tc, 3)))
			}
			if polls := opts.metrics.CounterValue(obs.CDaemonPolls); polls != 0 {
				t.Errorf("%d daemon polls: an undeliverable grant must not start transfer recovery", polls)
			}
			if mode == "dead-site" {
				// The source's carriage toward the dead site fails off the
				// dispatcher and is visible in the plane.
				if !eventually(t, func() bool { return opts.metrics.CounterValue(obs.CTransferFailures) == 1 }) {
					t.Errorf("transfer failures = %d, want 1", opts.metrics.CounterValue(obs.CTransferFailures))
				}
			}
			deadline := time.Now().Add(opts.reqTO)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines %v after the abandoned grant, baseline %d", n, opts.reqTO, baseline)
			}
			assertSyncInvariants(t, tc)
		})
	}
}

// TestRevisedGrantFollowsOriginal is the holder_crash benchmark's source-
// crash cycle as a unit test: the only site holding v2 is dead, so the
// directive fails — here while the original GRANT is still held back at
// the home, the order a concurrent directive makes possible. Recovery must
// wait for that grant's delivery all the same: no poll before it, and the
// client sees the original NEEDNEWVERSION grant first, the revised one
// second, and ends on the best surviving version.
func TestRevisedGrantFollowsOriginal(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 400 * time.Millisecond
	opts.metrics = obs.NewRegistry()
	opts.mnetCfg.Metrics = opts.metrics
	releaseGrant := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(releaseGrant) }) }
	defer release() // never strand the hook's worker on a failed assertion
	opts.faultHooks = map[wire.SiteID]FaultHook{
		1: func(fc FaultContext) FaultDecision {
			if fc.Point == FPCrashBeforeGrant && fc.Peer == 3 {
				<-releaseGrant // hold the GRANT back; deliver it normally after
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	_, _ = mustCreate(t, tc.node(1).NewHandle("creator"), 6, "v", []int32{100}, 3)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("writer"), 6, "v")
	h3 := tc.node(3).NewHandle("reader")
	rl3, r3 := mustAttach(t, h3, 6, "v")
	settle()
	writeVersion(t, rl2, r2, 200)
	tc.kill(2)

	// Drive the acquire by hand so the test reads the client port's grant
	// deliveries itself, in arrival order.
	c3 := tc.node(3).client
	grants := c3.expectGrant(6, h3.ID())
	defer c3.dropGrant(6, h3.ID())
	failuresBefore := opts.metrics.CounterValue(obs.CSendFailures)
	if err := c3.sendToHome(ctx, &wire.AcquireLock{Lock: 6, Requester: 3, Thread: h3.ID()}, 6); err != nil {
		t.Fatal(err)
	}
	// The directive toward the dead source exhausts its retries while the
	// grant is still held back.
	if !eventually(t, func() bool { return opts.metrics.CounterValue(obs.CSendFailures) > failuresBefore }) {
		t.Fatal("the directive to the dead source never failed")
	}
	if polls := opts.metrics.CounterValue(obs.CDaemonPolls); polls != 0 {
		t.Fatalf("%d daemon polls before the original grant was delivered", polls)
	}
	select {
	case g := <-grants:
		t.Fatalf("a grant (%+v) arrived while the original was held back", g.grant)
	default:
	}
	release()

	recv := func() *wire.Grant {
		t.Helper()
		select {
		case g := <-grants:
			if g.grant == nil {
				t.Fatalf("nack %+v, want a grant", g.nack)
			}
			return g.grant
		case <-ctx.Done():
			t.Fatal("no grant")
			return nil
		}
	}
	if g := recv(); g.Revised || g.Flag != wire.NeedNewVersion || g.Version != 2 {
		t.Fatalf("first grant = v%d %s revised=%v, want the original NEEDNEWVERSION v2", g.Version, g.Flag, g.Revised)
	}
	revised := recv()
	if !revised.Revised || revised.Flag != wire.NeedNewVersion || revised.Version != 1 {
		t.Fatalf("second grant = v%d %s revised=%v, want a revised NEEDNEWVERSION v1 (poll-best)", revised.Version, revised.Flag, revised.Revised)
	}
	if !eventually(t, func() bool { return rl3.Version() == 1 }) {
		t.Fatalf("site 3 at v%d, want the poll-best v1", rl3.Version())
	}
	if got := r3.Content().IntsData()[0]; got != 100 {
		t.Fatalf("site 3 holds %d, want the creator's 100", got)
	}
	c3.autoRelease(revised)
	assertSyncInvariants(t, tc)
}

// TestDeadTransferDestDoesNotStallDaemon is the daemon-side counterpart of
// TestDeadPeerDoesNotStallUnrelatedLock: while site 2 carries a directive's
// replicas toward a dead destination — a send that only fails at the
// transfer timeout — the REPLICADATA of site 2's own NEEDNEWVERSION acquire
// and a version poll both get through its daemon dispatcher at once, and
// closing site 2 cancels the carriage instead of sitting the timeout out.
// Over mnet the carriage waits on retransmissions; over a reused stream it
// waits on the ack byte of a connection whose peer is gone.
func TestDeadTransferDestDoesNotStallDaemon(t *testing.T) {
	for _, mode := range []TransferMode{ModeMNet, ModeHybrid} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opts := defaultOpts()
			opts.mode = mode
			opts.reuse = true
			opts.reqTO = 1 * time.Second
			opts.xferTO = 2 * time.Second
			// Patient retransmission: the send to the dead site stays in
			// flight until the transfer timeout.
			opts.mnetCfg = mnet.Config{RTO: 2 * time.Second, MaxRetries: 5}
			opts.metrics = obs.NewRegistry()
			tc := newTestCluster(t, 3, opts)
			ctx := tctx(t)

			h1 := tc.node(1).NewHandle("creator")
			_, _ = mustCreate(t, h1, 40, "stalled", []int32{1}, 3)
			rlB1, rB1 := mustCreate(t, h1, 41, "healthy", []int32{1}, 2)
			h2 := tc.node(2).NewHandle("source")
			rlA2, rA2 := mustAttach(t, h2, 40, "stalled")
			rlB2, rB2 := mustAttach(t, h2, 41, "healthy")
			rlA3, _ := mustAttach(t, tc.node(3).NewHandle("doomed"), 40, "stalled")
			settle()
			writeVersion(t, rlA2, rA2, 2)  // site 2 owns lock 40's newest version
			writeVersion(t, rlB1, rB1, 77) // site 2 needs a transfer to take lock 41
			// One healthy transfer 2 -> 3 first, so the stream mode has a
			// cached connection to strand.
			if err := rlA3.LockShared(ctx); err != nil {
				t.Fatal(err)
			}
			if err := rlA3.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
			eventually(t, func() bool { return tc.node(2).FullTransfersSent() == 1 })
			// The machine drops off the network without closing anything:
			// no FIN tells site 2 its cached connection is dead.
			tc.sn.Kill(3)

			// A directive for lock 40 toward the dead site reaches site 2's
			// daemon.
			s := tc.node(1).Sync()
			if err := s.sendDirective(40, 2, 3, 0, 2); err != nil {
				t.Fatalf("directive to the live source: %v", err)
			}
			// Its TRANSFER-SEND follows the healthy one in site 2's history.
			if !eventually(t, func() bool { return len(transfersToward(tc, 3)) == 2 }) {
				t.Fatal("site 2 never took up the directive")
			}

			limit := opts.mnetCfg.RTO / 4
			start := time.Now()
			if err := rlB2.Lock(ctx); err != nil {
				t.Fatal(err)
			}
			if lat := time.Since(start); lat > limit {
				t.Fatalf("site 2's own transfer-bearing acquire took %v behind a transfer to a dead site (limit %v)", lat, limit)
			}
			if got := rB2.Content().IntsData()[0]; got != 77 {
				t.Fatalf("site 2 reads %d on lock 41, want 77", got)
			}
			if err := rlB2.Unlock(ctx); err != nil {
				t.Fatal(err)
			}

			start = time.Now()
			best, found := s.pollDaemons(s.lookupLock(40), map[wire.SiteID]bool{3: true})
			if lat := time.Since(start); lat > limit {
				t.Fatalf("version poll took %v behind a transfer to a dead site (limit %v)", lat, limit)
			}
			if !found || best.Site != 2 || best.Version != 2 {
				t.Fatalf("poll best = %+v (found %v), want site 2 at v2", best, found)
			}
			if got := opts.metrics.CounterValue(obs.CTransferFailures); got != 0 {
				t.Fatalf("transfer failures = %d with the carriage still in flight", got)
			}

			// Closing the source returns only once its carriage is gone, and
			// the aborted send is on the failure counter, not the transfer
			// tallies.
			full := tc.node(2).FullTransfersSent()
			start = time.Now()
			tc.kill(2)
			if lat := time.Since(start); lat > limit {
				t.Fatalf("closing site 2 took %v: carriage was not cancelled", lat)
			}
			if got := opts.metrics.CounterValue(obs.CTransferFailures); got != 1 {
				t.Fatalf("transfer failures = %d after close, want 1", got)
			}
			if got := tc.node(2).FullTransfersSent(); got != full {
				t.Fatalf("full transfers moved %d -> %d across close", full, got)
			}
		})
	}
}

// TestDirectiveSourceFixedAtGrant replays the history that used to differ
// between two runs of one seed: site 3 reaches v2 through a shared acquire
// (which leaves it out of the home's up-to-date set), so its exclusive
// acquire is granted NEEDNEWVERSION although its copy is current, and it
// proceeds, writes and releases before the redundant directive has gone
// anywhere. The directive names the source the grant decision saw — site 2
// at v2 — never the last owner at whatever time its worker runs, which by
// then is site 3 itself.
func TestDirectiveSourceFixedAtGrant(t *testing.T) {
	tc := newTestCluster(t, 3, defaultOpts())
	ctx := tctx(t)

	_, _ = mustCreate(t, tc.node(1).NewHandle("creator"), 6, "v", []int32{1}, 3)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("writer"), 6, "v")
	rl3, r3 := mustAttach(t, tc.node(3).NewHandle("reader"), 6, "v")
	settle()
	writeVersion(t, rl2, r2, 200)

	if err := rl3.LockShared(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	writeVersion(t, rl3, r3, 300) // exclusive, at the current version

	eventually(t, func() bool { return len(transfersToward(tc, 3)) == 2 })
	sends := transfersToward(tc, 3)
	if len(sends) != 2 {
		t.Fatalf("%d transfers toward site 3, want 2 (shared acquire, redundant exclusive): %+v", len(sends), sends)
	}
	for _, ev := range sends {
		if ev.Site != 2 || ev.Version != 2 {
			t.Errorf("TRANSFER-SEND site=%d v=%d -> 3, want site=2 v=2", ev.Site, ev.Version)
		}
	}
}
