package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// provokeDoubleGrant re-introduces a double-grant bug via the
// debugIgnoreHolder switch and drives a two-site cluster into it: site 1's
// thread acquires exclusively, then site 2's acquire is granted while the
// first hold is still live. Every protocol event flows into sink. The
// cluster is not a newTestCluster because that harness fails any test
// whose history violates entry consistency, which is the callers' point.
func provokeDoubleGrant(t *testing.T, sink HistorySink) {
	t.Helper()
	debugIgnoreHolder = true
	defer func() { debugIgnoreHolder = false }()

	sn := transport.NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: 5})
	defer func() { _ = sn.Close() }()

	const n = 2
	nodes, err := StartSimSites(sn, n, func(s *SimSite) {
		s.MNet = mnet.Config{RTO: 25 * time.Millisecond, MaxRetries: 4}
		s.RequestTimeout = 2 * time.Second
		s.TransferTimeout = 5 * time.Second
		s.LeaseSweep = 50 * time.Millisecond
		s.Log = eventlog.New(1 << 14)
		s.History = sink
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, node := range nodes {
			_ = node.Close()
		}
	}()

	ctx := tctx(t)
	hA := nodes[1].NewHandle("first")
	rlA, _ := mustCreate(t, hA, 50, "dual", []int32{0}, n)
	settle()
	if err := rlA.Lock(ctx); err != nil {
		t.Fatal(err)
	}

	// With the bug re-introduced, site 2's acquire is granted while site 1's
	// thread still holds the lock exclusively.
	hB := nodes[2].NewHandle("second")
	rB, err := nodes[2].AttachReplica("dual", marshal.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rlB := hB.ReplicaLock(50)
	if err := rlB.Associate(ctx, rB); err != nil {
		t.Fatal(err)
	}
	if err := rlB.Lock(ctx); err != nil {
		t.Fatalf("buggy grant path did not grant: %v", err)
	}
}

// TestCheckerCatchesDoubleGrant asserts the offline history checker flags
// a seeded double-grant run with ErrDualHolder — the regression fixture
// proving the oracle would catch this defect class if it ever crept back
// in.
func TestCheckerCatchesDoubleGrant(t *testing.T) {
	rec := check.NewRecorder(0, nil)
	provokeDoubleGrant(t, rec)

	v := check.Check(rec.Events())
	if v == nil {
		t.Fatal("checker passed a double-grant history")
	}
	if !errors.Is(v, check.ErrDualHolder) {
		t.Fatalf("checker flagged %v, want ErrDualHolder", v)
	}
}

// TestMonitorCatchesSeededDoubleGrantOnline runs the same seeded violation
// with the online monitor in the live event stream: the breach must latch
// as it happens — no end-of-run pass — and the counterexample must carry
// the offending window and the registered one-command replay handle.
func TestMonitorCatchesSeededDoubleGrantOnline(t *testing.T) {
	const replay = "go test ./internal/core -run TestMonitorCatchesSeededDoubleGrantOnline"
	mon := check.NewMonitor(check.DefaultWindow)
	mon.SetReplay(replay)
	rec := check.NewRecorder(0, nil)
	provokeDoubleGrant(t, check.MultiSink(rec, mon))

	cx := mon.Err()
	if cx == nil {
		t.Fatal("online monitor missed the seeded double grant")
	}
	if !errors.Is(cx, check.ErrDualHolder) {
		t.Fatalf("monitor latched %v, want ErrDualHolder", cx.Violation)
	}
	if cx.Replay != replay {
		t.Fatalf("counterexample replay = %q, want the registered command", cx.Replay)
	}
	if len(cx.Window) == 0 {
		t.Fatal("counterexample carries no event window")
	}
	// The window ends at the violating event: the second GRANT of the lock
	// both threads were given.
	last := cx.Window[len(cx.Window)-1]
	if last.Kind != wire.HistGrant || last.Lock != 50 {
		t.Fatalf("window ends at %v, want the violating grant of lock 50", last)
	}
	if !strings.Contains(cx.Error(), "replay: "+replay) {
		t.Fatalf("rendered counterexample lacks the replay line:\n%s", cx)
	}
	// The full recorded history agrees with the online verdict.
	if v := check.Check(rec.Events()); !errors.Is(v, check.ErrDualHolder) {
		t.Fatalf("offline checker disagrees with the monitor: %v", v)
	}
}
