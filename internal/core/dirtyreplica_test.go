package core

import (
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/wire"
)

// TestBrokenHoldDirtyBytesRefetched is the regression test for a stale
// read the coverage-guided explorer found: a holder crashes after
// committing locally (crash-after-release-before-push), leaving its
// site's replica bytes scribbled on while the version label stays at the
// committed number. After the lease break evicts the site from the
// up-to-date set, the next acquirer at that same site used to satisfy its
// NEEDNEWVERSION wait from the local version label alone and observe the
// dead thread's dirty bytes. The uncommitted flag must hold the acquirer
// until the committed bytes are re-fetched from a clean copy.
func TestBrokenHoldDirtyBytesRefetched(t *testing.T) {
	var armed atomic.Bool
	opts := defaultOpts()
	opts.DefaultLease = 200 * time.Millisecond
	opts.LeaseSweep = 50 * time.Millisecond
	opts.RequestTimeout = 500 * time.Millisecond
	opts.faultHooks = map[wire.SiteID]FaultHook{
		2: func(fc FaultContext) FaultDecision {
			if fc.Point == FPCrashAfterReleaseBeforePush && armed.CompareAndSwap(true, false) {
				return FaultDecision{Drop: true}
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	_, _ = mustCreate(t, h1, 6, "cash", []int32{100}, 3)
	h2 := tc.node(2).NewHandle("writer")
	rl2, r2 := mustAttach(t, h2, 6, "cash")
	settle()

	// Site 2 commits v2 = 200 with UR=2, so a second site (the push
	// target) holds the committed bytes and survives site 2 going dirty.
	rl2.SetUpdateReplicas(2)
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 200
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// A second thread at site 2 takes the lock, scribbles on the replica
	// in place, and crashes before releasing: the local version label
	// still says v2, but the bytes under it are the dead thread's.
	h2b := tc.node(2).NewHandle("victim")
	rl2b := h2b.ReplicaLock(6)
	if err := rl2b.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 999
	armed.Store(true)
	if err := rl2b.Unlock(ctx); err == nil {
		t.Fatal("crash fault did not fire")
	}

	// Cut home→site-2 so the heartbeat probe fails and the lease sweep
	// breaks the dead hold (a live site answers probes, so without the
	// cut the sweep would extend the lease forever).
	tc.sn.Underlying().PartitionOneWay(1, 2, true)
	deadline := time.Now().Add(10 * time.Second)
	for !tc.node(1).Sync().Banned(h2b.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("lease break never banned the dead holder")
		}
		time.Sleep(20 * time.Millisecond)
	}
	tc.sn.Underlying().PartitionOneWay(1, 2, false)

	// The writer reacquires at the dirty site. The break evicted site 2
	// from the up-to-date set, so the grant is NEEDNEWVERSION: the
	// acquirer must block until the committed v2 bytes arrive from the
	// clean copy, not trust the local label and read 999.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("reacquire at dirty site: %v", err)
	}
	if got := r2.Content().IntsData()[0]; got != 200 {
		t.Fatalf("observed %d at reacquire, want committed 200 (dirty bytes served)", got)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}
