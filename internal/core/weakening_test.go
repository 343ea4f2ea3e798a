package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"mocha/internal/wire"
)

// TestCrashedHoldMarksContentUncommitted pins down the dirty-read leak the
// seeded explorer found: an exclusive holder mutates its replicas in place,
// crashes between the local commit point and dissemination, and the site's
// daemon — still reachable — must not serve the scribbled bytes under the
// stale version label. After the site dies and the lease breaks, the
// manager must evict it from the up-to-date set so recovery hands the next
// holder the last committed version.
func TestCrashedHoldMarksContentUncommitted(t *testing.T) {
	opts := defaultOpts()
	opts.lease = 200 * time.Millisecond
	opts.sweep = 50 * time.Millisecond
	opts.reqTO = 500 * time.Millisecond
	opts.faultHooks = map[wire.SiteID]FaultHook{
		2: func(fc FaultContext) FaultDecision {
			if fc.Point == FPCrashAfterReleaseBeforePush {
				return FaultDecision{Drop: true}
			}
			return FaultDecision{}
		},
	}
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 7, "dirty", []int32{1}, 1)
	h2 := tc.node(2).NewHandle("crasher")
	rl2, r2 := mustAttach(t, h2, 7, "dirty")
	settle()

	// Site 2 acquires, rewrites the content in place, and "crashes" at the
	// injection point: nothing is disseminated, no release is sent, and
	// Unlock reports the injected failure.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 99
	if err := rl2.Unlock(ctx); err == nil {
		t.Fatal("unlock succeeded despite injected crash")
	}

	rl2.st.mu.Lock()
	dirty := rl2.st.uncommitted
	rl2.st.mu.Unlock()
	if !dirty {
		t.Fatal("aborted exclusive release did not mark content uncommitted")
	}

	// The daemon refuses transfer directives while the content is dirty:
	// serving it would publish uncommitted bytes as the committed version.
	err := tc.node(2).xfer.sendReplicas(&wire.TransferReplica{
		Lock: 7, Dest: 3, Version: 1, RequestID: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("transfer from dirty site = %v, want uncommitted refusal", err)
	}

	// Site 2 dies for real; the lease break must contaminate its copy at
	// the manager and recovery must give site 1 the committed v1.
	tc.kill(2)
	lockCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := rl1.Lock(lockCtx); err != nil {
		t.Fatalf("lock never broken: %v", err)
	}
	if got := r1.Content().IntsData()[0]; got != 1 {
		t.Fatalf("data after break = %d, want committed 1", got)
	}
	l := tc.node(1).Sync().lookupLock(7)
	l.mu.Lock()
	dirtySet := l.dirty.Clone()
	upToDate := l.upToDate.Clone()
	l.mu.Unlock()
	if !dirtySet.Contains(2) {
		t.Fatal("manager did not mark the broken holder's site dirty")
	}
	if upToDate.Contains(2) {
		t.Fatal("manager left the broken holder's site in the up-to-date set")
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGrantCarriesCommittedVersionFloor verifies the manager's defense
// against version-number reuse: every grant carries the per-lock high-water
// committed version, and releases publish strictly above it, so a lineage
// recovered from an older surviving copy climbs past the numbers the lost
// lineage already committed instead of re-issuing them.
func TestGrantCarriesCommittedVersionFloor(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("writer")
	rl1, r1 := mustCreate(t, h1, 9, "floor", []int32{5}, 2)
	h2 := tc.node(2).NewHandle("reader")
	rl2, _ := mustAttach(t, h2, 9, "floor")
	settle()

	// Two exclusive commits move the lock to v3; the manager's high-water
	// mark must follow.
	for i := 0; i < 2; i++ {
		if err := rl1.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		r1.Content().IntsData()[0]++
		if err := rl1.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rl2.st.mu.Lock()
	floor := rl2.st.heldGrant.VersionFloor
	version := rl2.st.version
	rl2.st.mu.Unlock()
	if version != 3 {
		t.Fatalf("version after two commits = %d, want 3", version)
	}
	if floor != 3 {
		t.Fatalf("grant floor = %d, want the committed high-water 3", floor)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// The release travels to the manager asynchronously; wait for the
	// high-water mark to follow the commit.
	l := tc.node(1).Sync().lookupLock(9)
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		hw := l.highWater
		l.mu.Unlock()
		if hw == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("high-water after site 2's commit = %d, want 4", hw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
