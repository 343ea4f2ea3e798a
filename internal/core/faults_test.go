package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/wire"
)

// TestLockHolderFailureBreaksLock exercises "Failure of Lock Owning
// Application Thread": the holder dies, the lease expires, the heartbeat
// times out, the synchronization thread breaks the lock and gives it to
// the next thread, and the dead thread is banned.
func TestLockHolderFailureBreaksLock(t *testing.T) {
	opts := defaultOpts()
	opts.lease = 200 * time.Millisecond
	opts.sweep = 50 * time.Millisecond
	opts.reqTO = 500 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 6, "held", []int32{1}, 3)
	h2 := tc.node(2).NewHandle("doomed")
	rl2, _ := mustAttach(t, h2, 6, "held")
	settle()

	// Site 2 takes the lock and dies holding it.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	doomedThread := h2.ID()
	tc.kill(2)

	// Site 1 must eventually get the lock via lease breaking.
	lockCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := rl1.Lock(lockCtx); err != nil {
		t.Fatalf("lock never broken: %v", err)
	}
	t.Logf("lock broken and reacquired after %v", time.Since(start))
	// The most recent *released* state is still v1 from the creator.
	if got := r1.Content().IntsData()[0]; got != 1 {
		t.Fatalf("data after break = %d, want 1", got)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	if !tc.node(1).Sync().Banned(doomedThread) {
		t.Fatal("dead holder was not banned")
	}
	if tc.node(1).Log().CountCategory("fault") == 0 {
		t.Fatal("no fault events logged for the break")
	}
}

// TestBannedThreadNacked verifies that a banned thread's future requests
// are refused.
func TestBannedThreadNacked(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 500 * time.Millisecond
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 6, "x", []int32{1}, 2)
	settle()
	_ = rl1

	// Ban site 2's thread directly (the break path is covered above).
	h2 := tc.node(2).NewHandle("banned")
	tc.node(1).Sync().ban(h2.ID(), 6, 2)

	rl2, _ := mustAttach(t, h2, 6, "x")
	settle()
	err := rl2.Lock(ctx)
	if !errors.Is(err, ErrBanned) {
		t.Fatalf("banned thread Lock = %v, want ErrBanned", err)
	}
}

// TestTransferSourceFailureWithoutDissemination exercises "Failure of
// Non-Lock Owning Application Thread" with UR=1: the site holding the only
// copy of the newest version dies, so the synchronization thread polls the
// surviving daemons and forwards "the most recently available old version"
// — weakened consistency.
func TestTransferSourceFailureWithoutDissemination(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 400 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 6, "fragile", []int32{100}, 3)
	_ = rl1
	_ = r1
	h2 := tc.node(2).NewHandle("writer")
	rl2, r2 := mustAttach(t, h2, 6, "fragile")
	h3 := tc.node(3).NewHandle("reader")
	rl3, r3 := mustAttach(t, h3, 6, "fragile")
	settle()

	// Site 2 produces v2 (value 200) that nobody else has, then dies.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 200
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	tc.kill(2)

	// Site 3 acquires: the newest version is lost; it must receive the
	// creator's v1 (value 100) instead of hanging.
	lockCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := rl3.Lock(lockCtx); err != nil {
		t.Fatalf("recovery lock failed: %v", err)
	}
	defer func() { _ = rl3.Unlock(ctx) }()
	if got := r3.Content().IntsData()[0]; got != 100 {
		t.Fatalf("recovered value = %d, want 100 (most recent surviving old version)", got)
	}
}

// TestTransferSourceFailureWithDissemination is the headline availability
// result: with UR=2 the newest version survives the writer's death because
// it was pushed to another daemon at release time.
func TestTransferSourceFailureWithDissemination(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 400 * time.Millisecond
	tc := newTestCluster(t, 4, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	_, _ = mustCreate(t, h1, 6, "precious", []int32{100}, 4)
	h2 := tc.node(2).NewHandle("writer")
	rl2, r2 := mustAttach(t, h2, 6, "precious")
	h3 := tc.node(3).NewHandle("backup")
	_, _ = mustAttach(t, h3, 6, "precious")
	h4 := tc.node(4).NewHandle("reader")
	rl4, r4 := mustAttach(t, h4, 6, "precious")
	settle()

	// Site 2 writes v2=200 with UR=2 (pushed to one more daemon), then
	// dies.
	rl2.SetUpdateReplicas(2)
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 200
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	tc.kill(2)

	// Site 4 acquires. The synchronization thread's up-to-date set knows
	// another daemon holds v2, or at worst the poll finds it: the newest
	// value must survive.
	lockCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := rl4.Lock(lockCtx); err != nil {
		t.Fatalf("recovery lock failed: %v", err)
	}
	defer func() { _ = rl4.Unlock(ctx) }()
	if got := r4.Content().IntsData()[0]; got != 200 {
		t.Fatalf("recovered value = %d, want 200 (dissemination must preserve the newest version)", got)
	}
}

// TestDisseminationTargetFailure: pushing to a dead daemon must not wedge
// the release; the releaser picks another candidate.
func TestDisseminationTargetFailure(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 400 * time.Millisecond
	tc := newTestCluster(t, 4, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 6, "robust", []int32{0}, 4)
	h2 := tc.node(2).NewHandle("s2")
	_, _ = mustAttach(t, h2, 6, "robust")
	h3 := tc.node(3).NewHandle("s3")
	_, r3 := mustAttach(t, h3, 6, "robust")
	settle()

	// Kill site 2 (an eligible push target, lowest ID so tried first).
	tc.kill(2)

	rl1.SetUpdateReplicas(2)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 31
	start := time.Now()
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatalf("unlock with dead push target: %v", err)
	}
	t.Logf("release with failover took %v", time.Since(start))

	// The push must have fallen over to site 3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r3.Content().IntsData() != nil && len(r3.Content().IntsData()) > 0 && r3.Content().IntsData()[0] == 31 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover push never reached site 3: %v", r3.Content().IntsData())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tc.node(1).Log().CountCategory("fault") == 0 {
		t.Fatal("dissemination failure not logged")
	}
}

// TestSurrogateSyncThread exercises the Section 4 recovery sketch: the
// home site dies, a surrogate restores from the logged state, informs the
// daemons, and lock traffic continues against the new manager.
func TestSurrogateSyncThread(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 400 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("home")
	rl1, r1 := mustCreate(t, h1, 6, "state", []int32{0}, 3)
	h2 := tc.node(2).NewHandle("backup")
	_, _ = mustAttach(t, h2, 6, "state")
	h3 := tc.node(3).NewHandle("worker")
	rl3, r3 := mustAttach(t, h3, 6, "state")
	settle()

	// Produce v2 and push it everywhere so state survives the home.
	rl1.SetUpdateReplicas(3)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 55
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Log the state once the release has committed at the home (its ack
	// precedes its handling), then lose the home site.
	if !eventually(t, func() bool { return tc.node(1).Sync().Snapshot().Locks[6].Version == 2 }) {
		t.Fatal("release never committed at the home")
	}
	state := tc.node(1).Sync().Snapshot()
	tc.kill(1)

	// Site 2 spawns the surrogate and informs the daemons.
	if err := tc.node(2).StartSurrogate(ctx, state); err != nil {
		t.Fatal(err)
	}
	settle()

	// Site 3's lock traffic must now succeed against the surrogate.
	lockCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := rl3.Lock(lockCtx); err != nil {
		t.Fatalf("lock via surrogate: %v", err)
	}
	if got := r3.Content().IntsData()[0]; got != 55 {
		t.Fatalf("value after failover = %d, want 55", got)
	}
	r3.Content().IntsData()[0] = 56
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatalf("unlock via surrogate: %v", err)
	}
	if got := tc.node(2).Sync().Epoch(); got != state.Epoch+1 {
		t.Fatalf("surrogate epoch = %d, want %d", got, state.Epoch+1)
	}
}

// TestAbandonedGrantAutoReleased: a requester whose context expires while
// waiting must not leave the lock permanently held by a phantom.
func TestAbandonedGrantAutoReleased(t *testing.T) {
	opts := defaultOpts()
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("holder")
	rl1, _ := mustCreate(t, h1, 6, "x", []int32{1}, 2)
	h2 := tc.node(2).NewHandle("impatient")
	rl2, _ := mustAttach(t, h2, 6, "x")
	settle()

	// Site 1 holds the lock while site 2's request times out in queue.
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	shortCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err := rl2.Lock(shortCtx)
	cancel()
	if err == nil {
		t.Fatal("queued lock acquired while held elsewhere")
	}

	// Site 1 releases; the grant goes to the departed site-2 thread,
	// which must auto-release it so site 1 can reacquire.
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	lockCtx, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := rl1.Lock(lockCtx); err != nil {
		t.Fatalf("lock stuck with phantom holder: %v", err)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadRequesterSkipped: a queued requester that dies before its grant
// must not stall the queue behind it.
func TestDeadRequesterSkipped(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 300 * time.Millisecond
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("holder")
	rl1, _ := mustCreate(t, h1, 6, "q", []int32{1}, 3)
	h2 := tc.node(2).NewHandle("dies-queued")
	rl2, _ := mustAttach(t, h2, 6, "q")
	h3 := tc.node(3).NewHandle("patient")
	rl3, _ := mustAttach(t, h3, 6, "q")
	settle()

	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	// Site 2 queues up, then dies.
	queued := make(chan error, 1)
	go func() { queued <- rl2.Lock(ctx) }()
	time.Sleep(100 * time.Millisecond)
	tc.kill(2)

	// Site 3 queues behind the dead requester.
	got3 := make(chan error, 1)
	go func() { got3 <- rl3.Lock(ctx) }()
	time.Sleep(50 * time.Millisecond)

	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got3:
		if err != nil {
			t.Fatalf("site 3 lock: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queue stalled behind a dead requester")
	}
	_ = rl3.Unlock(ctx)
	<-queued // site 2's goroutine fails via closed node; drain it
}

// TestWireSiteSetInGrant sanity-checks that sharer sets round-trip through
// real grants (regression guard for the bit-vector encoding in context).
func TestWireSiteSetInGrant(t *testing.T) {
	tc := newTestCluster(t, 3, defaultOpts())
	ctx := tctx(t)
	h1 := tc.node(1).NewHandle("a")
	rl1, _ := mustCreate(t, h1, 6, "s", []int32{1}, 3)
	h2 := tc.node(2).NewHandle("b")
	_, _ = mustAttach(t, h2, 6, "s")
	settle()

	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	grant := func() *wire.Grant {
		rl1.st.mu.Lock()
		defer rl1.st.mu.Unlock()
		return rl1.st.heldGrant
	}()
	if !grant.Sharers.Contains(1) || !grant.Sharers.Contains(2) {
		t.Fatalf("grant sharers = %s, want {1,2}", grant.Sharers)
	}
	_ = rl1.Unlock(ctx)
}

// TestAbortDuringTransferWait: an acquirer whose context expires while
// waiting for replica data (grant already held) must hand the lock back
// (Aborted release) so the system recovers without lease-breaking it.
func TestAbortDuringTransferWait(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 2 * time.Second
	// Slow failure detection (long retransmit schedule) so recovery takes
	// longer than the acquirer is willing to wait.
	opts.mnetCfg = mnet.Config{RTO: 400 * time.Millisecond, MaxRetries: 5}
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 17, "fragile", []int32{10}, 3)
	h2 := tc.node(2).NewHandle("writer")
	rl2, r2 := mustAttach(t, h2, 17, "fragile")
	h3 := tc.node(3).NewHandle("impatient")
	rl3, _ := mustAttach(t, h3, 17, "fragile")
	settle()

	// Site 2 produces the newest version, then dies: the next transfer
	// directive will hang until the sync thread's timeout.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 20
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	tc.kill(2)

	// Site 3 acquires with less patience than the recovery path needs:
	// it gets the grant, waits for data that cannot arrive in time, and
	// aborts.
	shortCtx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
	err := rl3.Lock(shortCtx)
	cancel()
	if err == nil {
		t.Fatal("impatient lock succeeded without data")
	}

	// The aborted hold must not wedge the lock: the creator reacquires
	// (recovery eventually falls back to its v1 copy).
	lockCtx, cancel2 := context.WithTimeout(ctx, 20*time.Second)
	defer cancel2()
	if err := rl1.Lock(lockCtx); err != nil {
		t.Fatalf("lock wedged after aborted acquisition: %v", err)
	}
	if got := r1.Content().IntsData()[0]; got != 10 {
		t.Fatalf("value = %d, want the surviving 10", got)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}
