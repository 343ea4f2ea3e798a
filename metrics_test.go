package mocha_test

import (
	"testing"
	"time"

	"mocha"
	"mocha/internal/check"
	"mocha/internal/obs"
)

// TestMetricsDeadPeerScenario exercises the observability plane end to
// end through the public API: a site takes a lock and is fail-stopped,
// the home breaks the lease and recovers, and afterwards the cluster's
// default metrics registry must expose the whole story — nonzero
// lease-break and retransmit counters, per-phase latency histograms, and
// operation spans tagged with (site, lock, version).
func TestMetricsDeadPeerScenario(t *testing.T) {
	rec := check.NewRecorder(0, nil)
	cluster, err := mocha.NewSimCluster(3,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithLease(200*time.Millisecond),
		mocha.WithLeaseSweep(50*time.Millisecond),
		mocha.WithRequestTimeout(500*time.Millisecond),
		mocha.WithHistory(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	m := cluster.Metrics()
	if m == nil {
		t.Fatal("sim cluster should carry a default metrics registry")
	}

	bagHome := cluster.Home().Bag("home")
	r, err := bagHome.CreateReplica("value", mocha.Ints([]int32{7}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rlHome := bagHome.ReplicaLock(4)
	if err := rlHome.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}

	bag2 := cluster.Site(2).Bag("w2")
	r2, err := bag2.AttachReplica("value", mocha.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl2 := bag2.ReplicaLock(4)
	if err := rl2.Associate(ctx, r2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Site 2 takes the lock and dies holding it; the home's re-acquire
	// forces a lease break.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.Kill(2)
	if err := rlHome.Lock(ctx); err != nil {
		t.Fatalf("lock never recovered after kill: %v", err)
	}
	r.Content().IntsData()[0] = 8
	if err := rlHome.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	// Let the retransmit sweep visit the unacked messages addressed to
	// the dead site (sim RTO is 50ms).
	time.Sleep(200 * time.Millisecond)

	snap := cluster.MetricsSnapshot()

	counters := []struct {
		name string
		c    obs.Counter
	}{
		{"lease breaks", obs.CLeaseBreaks},
		{"mnet retransmits", obs.CRetransmits},
		{"acquire requests", obs.CAcquireRequests},
		{"grants", obs.CGrants},
		{"releases", obs.CReleases},
	}
	for _, c := range counters {
		if m.CounterValue(c.c) == 0 {
			t.Errorf("%s counter is zero after dead-peer scenario", c.name)
		}
	}

	// Per-phase latency histograms: the acquire decomposition must have
	// fed at least the end-to-end and request-RTT phases.
	for _, h := range []obs.HistID{obs.HAcquireTotal, obs.HRequestRTT, obs.HReleaseTotal} {
		hs := snap.Hists[h.Name()]
		if hs.Count == 0 {
			t.Errorf("histogram %s is empty", h.Name())
		}
	}

	// Spans: an acquire span tagged with site and lock, decomposed into
	// named phases.
	var acquire *obs.SpanRecord
	for i := range snap.Spans {
		if snap.Spans[i].Op == "acquire" && snap.Spans[i].Lock == 4 {
			acquire = &snap.Spans[i]
		}
	}
	if acquire == nil {
		t.Fatal("no acquire span for lock 4 retained")
	}
	if acquire.Site == 0 {
		t.Error("acquire span missing site tag")
	}
	if len(acquire.Phases) == 0 {
		t.Error("acquire span has no phase decomposition")
	}
	if acquire.StartTick == 0 || acquire.EndTick <= acquire.StartTick {
		t.Errorf("acquire span ticks not monotone: start=%d end=%d",
			acquire.StartTick, acquire.EndTick)
	}
}

// TestMetricsHistorySharedClock pins the cross-referencing contract
// between the history checker and the metrics plane: both draw ticks
// from the cluster's single simulated clock, so every history-event tick
// and every span tick is a distinct draw from one monotone axis and the
// two streams can be interleaved by tick order.
func TestMetricsHistorySharedClock(t *testing.T) {
	rec := check.NewRecorder(0, nil)
	cluster, err := mocha.NewSimCluster(2,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithHistory(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	bag := cluster.Home().Bag("b")
	r, err := bag.CreateReplica("v", mocha.Ints([]int32{0}), 2)
	if err != nil {
		t.Fatal(err)
	}
	rl := bag.ReplicaLock(9)
	if err := rl.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		r.Content().IntsData()[0]++
		if err := rl.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// History first: the home processes the last release after Unlock has
	// returned, so an event read after the snapshot could outrun its tick.
	events := rec.Events()
	snap := cluster.MetricsSnapshot()
	if len(events) == 0 {
		t.Fatal("history recorder captured nothing")
	}
	if len(snap.Spans) == 0 {
		t.Fatal("no spans retained")
	}

	// Every Tick() call advances the shared counter, so ticks must be
	// unique across both the history stream and the span stream — the
	// signature of a single clock source.
	seen := make(map[uint64]string)
	record := func(tick uint64, who string) {
		if tick == 0 {
			t.Fatalf("%s carries zero tick", who)
		}
		if prev, dup := seen[tick]; dup {
			t.Fatalf("tick %d drawn by both %s and %s: clocks are not shared", tick, prev, who)
		}
		seen[tick] = who
	}
	for _, ev := range events {
		record(ev.Tick, "history")
	}
	for _, sp := range snap.Spans {
		record(sp.StartTick, "span-start")
		record(sp.EndTick, "span-end")
	}
	// And the final snapshot tick bounds both streams.
	for tick := range seen {
		if tick > snap.Tick {
			t.Fatalf("tick %d exceeds snapshot tick %d", tick, snap.Tick)
		}
	}
}
