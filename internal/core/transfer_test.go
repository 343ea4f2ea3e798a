package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mocha/internal/transport"
	"mocha/internal/wire"
)

// transferCycle performs one write-at-A, read-at-B cycle and verifies the
// value moved.
func transferCycle(t *testing.T, rlA, rlB *ReplicaLock, rA, rB *Replica, value int32) {
	t.Helper()
	ctx := tctx(t)
	if err := rlA.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rA.Content().IntsData()[0] = value
	if err := rlA.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rlB.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rB.Content().IntsData()[0]; got != value {
		t.Fatalf("transferred value = %d, want %d", got, value)
	}
	if err := rlB.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReuseCachesConnections(t *testing.T) {
	run := func(reuse bool) (int64, int64) {
		opts := defaultOpts()
		opts.Mode = ModeHybrid
		opts.StreamReuse = reuse
		tc := newTestCluster(t, 2, opts)

		h1 := tc.node(1).NewHandle("a")
		rl1, r1 := mustCreate(t, h1, 5, "v", []int32{0}, 2)
		h2 := tc.node(2).NewHandle("b")
		rl2, r2 := mustAttach(t, h2, 5, "v")
		settle()

		const cycles = 3
		for i := 0; i < cycles; i++ {
			transferCycle(t, rl1, rl2, r1, r2, int32(10+i))
			transferCycle(t, rl2, rl1, r2, r1, int32(20+i))
		}
		return tc.node(1).StreamsEstablished(), tc.node(2).StreamsEstablished()
	}

	e1, e2 := run(false)
	if e1 < 3 || e2 < 3 {
		t.Fatalf("per-transfer mode established %d/%d connections, want >= 3 each", e1, e2)
	}
	r1, r2 := run(true)
	if r1 != 1 || r2 != 1 {
		t.Fatalf("reuse mode established %d/%d connections, want exactly 1 each", r1, r2)
	}
}

// brokenDialStack wraps a stack whose outbound stream dials always fail,
// simulating a hybrid path broken by firewalls or a dead TCP stack while
// MNet still works.
type brokenDialStack struct {
	transport.Stack
}

func (b *brokenDialStack) DialStream(string) (transport.Conn, error) {
	return nil, fmt.Errorf("simulated dial failure")
}

func TestHybridFallsBackToMNet(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeHybrid
	opts.TransferTimeout = 2 * time.Second
	opts.wrapStack = func(site wire.SiteID, s transport.Stack) transport.Stack {
		return &brokenDialStack{Stack: s}
	}
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("a")
	rl1, r1 := mustCreate(t, h1, 5, "v", []int32{1}, 2)
	h2 := tc.node(2).NewHandle("b")
	rl2, r2 := mustAttach(t, h2, 5, "v")
	settle()

	// The stream path is dead; the transfer must still complete over MNet.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("lock with broken stream path: %v", err)
	}
	if got := r2.Content().IntsData()[0]; got != 1 {
		t.Fatalf("fallback transfer value = %d, want 1", got)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if tc.node(1).Log().CountCategory("fault") == 0 {
		t.Fatal("fallback not logged as a fault event")
	}

	// A push shares the directive's fallback: a UR = 2 release from site 2
	// must still reach the other sharer over MNet.
	fellBack := func(n *Node) (count int) {
		for _, ev := range n.Log().Events() {
			if ev.Category == "fault" && strings.Contains(ev.Render(), "falling back to mnet") {
				count++
			}
		}
		return count
	}
	before := fellBack(tc.node(2))
	rl2.SetUpdateReplicas(2)
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r2.Content().IntsData()[0] = 7
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := rl1.Version(), rl2.Version(); got != want {
		t.Fatalf("sharer at version %d after a UR=2 release with a broken stream path, want %d", got, want)
	}
	if got := r1.Content().IntsData()[0]; got != 7 {
		t.Fatalf("pushed value = %d, want 7", got)
	}
	if fellBack(tc.node(2)) == before {
		t.Fatal("push fallback not logged as a fault event")
	}
}

func TestAdaptiveThresholdRouting(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeAdaptive
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("a")
	// Small replica: below the 2048-byte default threshold -> MNet path,
	// no stream establishment.
	rlSmall, rSmall := mustCreate(t, h1, 5, "small", []int32{1}, 2)
	h2 := tc.node(2).NewHandle("b")
	rl2, r2 := mustAttach(t, h2, 5, "small")
	settle()
	_ = rlSmall
	_ = rSmall
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.node(1).StreamsEstablished(); got != 0 {
		t.Fatalf("small transfer used %d streams, want 0", got)
	}
	_ = r2

	// Large replica: above the threshold -> stream path.
	rlBig, _ := mustCreate(t, h1, 6, "big", make([]int32, 4096), 2)
	h2b := tc.node(2).NewHandle("c")
	rlBig2, _ := mustAttach(t, h2b, 6, "big")
	settle()
	_ = rlBig
	if err := rlBig2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rlBig2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.node(1).StreamsEstablished(); got != 1 {
		t.Fatalf("large transfer used %d streams, want 1", got)
	}
}
