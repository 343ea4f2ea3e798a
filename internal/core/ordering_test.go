package core

import (
	"testing"
	"time"

	"mocha/internal/wire"
)

// TestDuplicateAcquireSuppression replays the client-retry races the
// explorer surfaced under a home failover: a re-sent ACQUIRE from the
// current holder must re-issue the existing hold as a revised grant (not
// queue the holder behind itself), and a re-sent ACQUIRE from a thread
// already queued must not enqueue a second entry. The cluster's history
// checker verifies the recorded trace at cleanup — a double queue or a
// non-revised duplicate grant would trip ErrHolderQueued/ErrOrphanGrant.
func TestDuplicateAcquireSuppression(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(40)
	tc := newTestCluster(t, sites, placementOpts())
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	holderSite := otherSite(t, sites, home)

	hc := tc.node(home).NewHandle("creator")
	rlC, _ := mustCreate(t, hc, lockID, "dup", []int32{1}, sites)
	_ = rlC
	hh := tc.node(holderSite).NewHandle("holder")
	rlH, _ := mustAttach(t, hh, lockID, "dup")
	settle()

	if err := rlH.Lock(ctx); err != nil {
		t.Fatal(err)
	}

	sHome := tc.node(home).Sync()
	l := sHome.lookupLock(lockID)
	if l == nil {
		t.Fatal("no record at home")
	}

	// The holder's retry: must be answered with a revised grant re-issuing
	// the hold, leaving the holder in place and the queue empty.
	sHome.onAcquire(&wire.AcquireLock{Lock: lockID, Requester: holderSite, Thread: hh.ID()})
	settle()
	l.mu.Lock()
	holder := l.holder
	queueLen := len(l.queue)
	l.mu.Unlock()
	if holder == nil || holder.thread != hh.ID() {
		t.Fatalf("holder after duplicate acquire = %+v, want thread %d", holder, hh.ID())
	}
	if queueLen != 0 {
		t.Fatalf("queue depth after holder's duplicate acquire = %d, want 0", queueLen)
	}

	// A waiter's retry: the second copy must ride the first one's queue
	// entry, never duplicate it.
	waiter := wire.ThreadID(uint64(holderSite)<<32 | 99)
	req := &wire.AcquireLock{Lock: lockID, Requester: holderSite, Thread: waiter}
	sHome.onAcquire(req)
	sHome.onAcquire(req)
	l.mu.Lock()
	entries := 0
	for _, q := range l.queue {
		if q.thread == waiter {
			entries++
		}
	}
	l.mu.Unlock()
	if entries != 1 {
		t.Fatalf("queue entries for retried waiter = %d, want 1", entries)
	}

	if err := rlH.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRetryAfterPromotionIsStale pins the double-commit bug the
// stream-first ordering closes: a release processed by a dying home may
// never be acked to the client, which then retries it at the promoted
// standby. Because the release streamed to the standby before it was
// recorded, the promoted record already shows the hold cleared — the
// retry must read as stale and leave the version untouched. A second
// commit would be caught at cleanup by the checker (ErrVersionRegress:
// the release would re-commit an already-committed version).
func TestReleaseRetryAfterPromotionIsStale(t *testing.T) {
	const sites = 3
	const lockID = wire.LockID(41)
	tc := newTestCluster(t, sites, placementOpts())
	ctx := tctx(t)

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	holderSite := otherSite(t, sites, home)

	hc := tc.node(home).NewHandle("creator")
	rlC, _ := mustCreate(t, hc, lockID, "retry", []int32{1}, sites)
	_ = rlC
	hh := tc.node(holderSite).NewHandle("holder")
	rlH, repH := mustAttach(t, hh, lockID, "retry")
	settle()

	if err := rlH.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	repH.Content().IntsData()[0] = 2
	if err := rlH.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	settle()

	tc.kill(home)
	tc.node(standby).PromoteStandby(home)
	settle()

	sNew := tc.node(standby).Sync()
	l := sNew.lookupLock(lockID)
	if l == nil {
		t.Fatal("promotion installed no record at the standby")
	}
	l.mu.Lock()
	version := l.version
	l.mu.Unlock()

	// The client's retry of the already-committed release, landing at the
	// promoted home.
	sNew.onRelease(&wire.ReleaseLock{
		Lock:       lockID,
		Releaser:   holderSite,
		Thread:     hh.ID(),
		NewVersion: version,
		UpToDate:   wire.NewSiteSet(holderSite),
	})
	time.Sleep(50 * time.Millisecond)

	l.mu.Lock()
	after := l.version
	holder := l.holder
	l.mu.Unlock()
	if after != version {
		t.Fatalf("retried release moved the version: v%d -> v%d", version, after)
	}
	if holder != nil {
		t.Fatalf("retried release resurrected a holder: %+v", holder)
	}

	// The lock stays usable at the promoted home.
	third := otherSite(t, sites, home, holderSite)
	h2 := tc.node(third).NewHandle("after")
	rl2, rep2 := mustAttach(t, h2, lockID, "retry")
	settle()
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("acquire after retried release: %v", err)
	}
	if data := rep2.Content().IntsData(); len(data) == 0 || data[0] != 2 {
		t.Fatalf("post-retry read = %v, want [2]", data)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}
