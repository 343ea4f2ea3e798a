package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/wire"
)

// assertSyncInvariants fails the test if the home site's lock table
// violates a protocol invariant.
func assertSyncInvariants(t *testing.T, tc *testCluster) {
	t.Helper()
	if err := tc.node(1).Sync().checkInvariants(); err != nil {
		t.Fatalf("sync invariant violated: %v", err)
	}
}

// TestDeadPeerDoesNotStallUnrelatedLock is the S30 regression test: a
// grant on lock A whose transfer source is dead forces the Section 4
// recovery (directive timeout + daemon poll), but an acquire on unrelated
// lock B during that window must stay within a small multiple of the
// healthy baseline instead of queueing behind the stalled recovery for up
// to RequestTimeout.
func TestDeadPeerDoesNotStallUnrelatedLock(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 1 * time.Second
	// Patient retransmission: sends to the dead site fail only at the
	// RequestTimeout deadline, reproducing the worst-case stall the old
	// inline-I/O dispatcher imposed on every lock.
	opts.mnetCfg = mnet.Config{RTO: 2 * time.Second, MaxRetries: 5}
	tc := newTestCluster(t, 4, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rlA1, _ := mustCreate(t, h1, 40, "stalled", []int32{1}, 3)
	_, _ = mustCreate(t, h1, 41, "healthy", []int32{1}, 2)
	_ = rlA1
	h4 := tc.node(4).NewHandle("doomed")
	rlA4, rA4 := mustAttach(t, h4, 40, "stalled")
	h2 := tc.node(2).NewHandle("recoverer")
	rlA2, _ := mustAttach(t, h2, 40, "stalled")
	h3 := tc.node(3).NewHandle("prober")
	rlB3, _ := mustAttach(t, h3, 41, "healthy")
	settle()

	// Site 4 becomes the sole holder of lock A's newest version (UR=1).
	if err := rlA4.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rA4.Content().IntsData()[0] = 2
	if err := rlA4.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	cycleB := func() time.Duration {
		t.Helper()
		start := time.Now()
		if err := rlB3.Lock(ctx); err != nil {
			t.Fatalf("lock B: %v", err)
		}
		lat := time.Since(start)
		if err := rlB3.Unlock(ctx); err != nil {
			t.Fatalf("unlock B: %v", err)
		}
		return lat
	}
	// Warm up (first acquire pays the initial transfer), then baseline.
	cycleB()
	cycleB()
	var baseline time.Duration
	for i := 0; i < 3; i++ {
		baseline += cycleB()
	}
	baseline /= 3

	// Kill the transfer source and drive lock A's recovery from site 2.
	tc.kill(4)
	recovered := make(chan error, 1)
	go func() {
		if err := rlA2.Lock(ctx); err != nil {
			recovered <- err
			return
		}
		recovered <- rlA2.Unlock(ctx)
	}()
	// Let the acquire reach the home site and enter the directive stall.
	time.Sleep(150 * time.Millisecond)

	// Grant latency on the unrelated lock during the stall window.
	for i := 0; i < 3; i++ {
		lat := cycleB()
		if lat > opts.reqTO/2 {
			t.Fatalf("unrelated lock grant took %v during recovery of lock 40 (healthy baseline %v): head-of-line blocking",
				lat, baseline)
		}
	}

	if err := <-recovered; err != nil {
		t.Fatalf("recovery acquire of lock 40: %v", err)
	}
	assertSyncInvariants(t, tc)
}

// TestUnknownLockNacked verifies that acquiring a lock ID no daemon ever
// registered is refused with ErrUnknownLock and fabricates no record.
func TestUnknownLockNacked(t *testing.T) {
	opts := defaultOpts()
	opts.reqTO = 500 * time.Millisecond
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 6, "real", []int32{1}, 2)
	_ = rl1
	settle()

	before := tc.node(1).Sync().lockCount()
	h2 := tc.node(2).NewHandle("guesser")
	err := h2.ReplicaLock(99).Lock(ctx)
	if !errors.Is(err, ErrUnknownLock) {
		t.Fatalf("Lock(99) = %v, want ErrUnknownLock", err)
	}
	if got := tc.node(1).Sync().lockCount(); got != before {
		t.Fatalf("lock table grew from %d to %d records on a refused acquire", before, got)
	}

	// The registered lock still works for the same (unbanned) thread.
	rl2, _ := mustAttach(t, h2, 6, "real")
	settle()
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("registered lock after nack: %v", err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	assertSyncInvariants(t, tc)
}

// TestEmptyLockRecordsCollected verifies the lease sweep garbage-collects
// lock records that carry no state (as a surrogate restore can leave
// behind) while keeping live records.
func TestEmptyLockRecordsCollected(t *testing.T) {
	tc := newTestCluster(t, 1, defaultOpts())
	s := tc.node(1).Sync()

	s.ensureLockCreated(77) // empty: no sharers, holds, queue, names, version
	live, _ := s.ensureLockCreated(78)
	live.mu.Lock()
	live.sharers.Add(1)
	live.version = 1
	live.mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for s.lookupLock(77) != nil && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if s.lookupLock(77) != nil {
		t.Fatal("empty lock record 77 survived the sweep")
	}
	if s.lookupLock(78) == nil {
		t.Fatal("live lock record 78 was collected")
	}
}

// TestBannedTablePermanent verifies bans never age out: the FIFO eviction
// the table once had let a banned thread return from the dead after enough
// other failures pushed its record off the end. Overflowing the old bound
// must leave the earliest ban enforced, and a re-ban must not alter the
// record (each ban is two integers, so the table can afford them all).
func TestBannedTablePermanent(t *testing.T) {
	s := &syncThread{banned: make(map[wire.ThreadID]banRecord)}
	const n = 1500
	for i := 1; i <= n; i++ {
		s.ban(wire.MakeThreadID(2, uint32(i)), wire.LockID(i), 3)
	}
	if got := len(s.banned); got != n {
		t.Fatalf("banned table has %d entries, want %d", got, n)
	}
	if !s.Banned(wire.MakeThreadID(2, 1)) {
		t.Fatal("earliest ban evicted; bans must be permanent")
	}
	if !s.Banned(wire.MakeThreadID(2, n)) {
		t.Fatal("newest ban missing")
	}
	reason, ok := s.bannedReason(wire.MakeThreadID(2, 1))
	if !ok || reason != banReason(banRecord{lock: 1, site: 3}) {
		t.Fatalf("earliest ban reason = %q, %v", reason, ok)
	}
	// Re-banning an already-banned thread keeps the original record.
	s.ban(wire.MakeThreadID(2, 1), 999, 9)
	if got, _ := s.bannedReason(wire.MakeThreadID(2, 1)); got != reason {
		t.Fatalf("re-ban rewrote record: %q, want %q", got, reason)
	}
	if got := len(s.banned); got != n {
		t.Fatalf("banned table has %d entries after re-ban, want %d", got, n)
	}
}

// TestStressShardedSync hammers several locks across shards from three
// sites while a fourth site dies holding a lock, mixing acquire/release
// traffic with a concurrent lease-break; run under -race by `make race`.
// Afterwards the protocol invariants must hold and no increment may be
// lost.
func TestStressShardedSync(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers    = 3
		locks      = 6
		increments = 5
	)
	// Lock IDs chosen to collide: the six counters land on four shards
	// (two pairs share one), and the lock that gets broken shares a shard
	// with a counter under load.
	lockID := func(l int) wire.LockID { return wire.LockID(50 + l%4 + syncShards*(l/4)) }
	const breakLock = wire.LockID(52 + 2*syncShards)
	tc := newTestCluster(t, 4, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	creatorLocks := make([]*ReplicaLock, locks)
	for l := 0; l < locks; l++ {
		rl, _ := mustCreate(t, h1, lockID(l), fmt.Sprintf("sctr%d", l), []int32{0}, 3)
		creatorLocks[l] = rl
	}
	// breakLock will be held by site 4 when it dies.
	_, _ = mustCreate(t, h1, breakLock, "breakme", []int32{0}, 2)
	h4 := tc.node(4).NewHandle("doomed")
	h4.SetLease(150 * time.Millisecond)
	rl4, _ := mustAttach(t, h4, breakLock, "breakme")
	settle()

	if err := rl4.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	tc.kill(4) // dies holding breakLock

	var wg sync.WaitGroup
	errCh := make(chan error, workers*locks+1)
	for s := 1; s <= workers; s++ {
		site := wire.SiteID(s)
		for l := 0; l < locks; l++ {
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tc.node(site).NewHandle(fmt.Sprintf("sw%d-%d", site, l))
				var r *Replica
				rl := h.ReplicaLock(lockID(l))
				if site == 1 {
					r = creatorLocks[l].Replicas()[0]
				} else {
					var err error
					r, err = tc.node(site).AttachReplica(fmt.Sprintf("sctr%d", l), marshal.Ints(nil))
					if err != nil {
						errCh <- err
						return
					}
					if err := rl.Associate(ctx, r); err != nil {
						errCh <- err
						return
					}
				}
				for i := 0; i < increments; i++ {
					if err := rl.Lock(ctx); err != nil {
						errCh <- fmt.Errorf("site %d lock %d: %w", site, l, err)
						return
					}
					r.Content().IntsData()[0]++
					if err := rl.Unlock(ctx); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}()
		}
	}
	// Concurrently, site 2 waits out the lease break of breakLock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tc.node(2).NewHandle("taker")
		r, err := tc.node(2).AttachReplica("breakme", marshal.Ints(nil))
		if err != nil {
			errCh <- err
			return
		}
		rl := h.ReplicaLock(breakLock)
		if err := rl.Associate(ctx, r); err != nil {
			errCh <- err
			return
		}
		if err := rl.Lock(ctx); err != nil {
			errCh <- fmt.Errorf("acquire after lease break: %w", err)
			return
		}
		errCh <- rl.Unlock(ctx)
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !tc.node(1).Sync().Banned(h4.ID()) {
		t.Fatal("dead holder of the broken lock was not banned")
	}
	for l, rl := range creatorLocks {
		if err := rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if got := rl.Replicas()[0].Content().IntsData()[0]; got != workers*increments {
			t.Fatalf("lock %d: final = %d, want %d", lockID(l), got, workers*increments)
		}
		if err := rl.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	assertSyncInvariants(t, tc)
}
