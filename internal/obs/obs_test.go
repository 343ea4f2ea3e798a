package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mocha/internal/netsim"
)

func TestNilRegistryIsDisabledPlane(t *testing.T) {
	var r *Registry
	r.Inc(CGrants)
	r.Add(CTransferBytes, 100)
	r.GaugeAdd(GSyncQueueDepth, 1)
	r.GaugeSet(GSyncLocks, 5)
	r.ShardDepthAdd(3, 1)
	r.Observe(HApply, time.Millisecond)
	r.SetClock(&netsim.Clock{})
	if r.CounterValue(CGrants) != 0 || r.GaugeValue(GSyncLocks) != 0 {
		t.Fatal("nil registry reported nonzero values")
	}
	if h := r.Hist(HApply); h.Count != 0 {
		t.Fatal("nil registry reported observations")
	}
	if r.Spans() != nil {
		t.Fatal("nil registry reported spans")
	}
	s := r.StartSpan("acquire", 1, 9)
	if s != nil {
		t.Fatal("nil registry handed out a non-nil span")
	}
	s.SetVersion(3)
	s.Phase(HQueueWait)
	s.End(HAcquireTotal)
	snap := r.Snapshot()
	if snap.Tick != 0 || snap.Counters != nil {
		t.Fatal("nil registry snapshot not zero")
	}
	if r.now() != 0 {
		t.Fatal("nil registry now() not zero")
	}
}

func TestCountersGaugesShardDepths(t *testing.T) {
	r := NewRegistry()
	r.Inc(CAcquireRequests)
	r.Add(CAcquireRequests, 2)
	if got := r.CounterValue(CAcquireRequests); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.GaugeAdd(GSyncQueueDepth, 4)
	r.GaugeAdd(GSyncQueueDepth, -1)
	if got := r.GaugeValue(GSyncQueueDepth); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	r.GaugeSet(GSyncLocks, 7)
	if got := r.GaugeValue(GSyncLocks); got != 7 {
		t.Fatalf("gauge set = %d, want 7", got)
	}
	// Shard indices fold into the fixed array; negatives must not panic.
	r.ShardDepthAdd(NumShardDepths+2, 1)
	r.ShardDepthAdd(2, 1)
	r.ShardDepthAdd(-2, 1)
	snap := r.Snapshot()
	if snap.ShardDepths["2"] != 3 {
		t.Fatalf("shard 2 depth = %d, want 3 (folded)", snap.ShardDepths["2"])
	}
}

func TestCounterAndGaugeNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.Name()
		if name == "" || !strings.HasPrefix(name, "mocha_") || !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %d has bad name %q", c, name)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for g := Gauge(0); g < numGauges; g++ {
		if g.Name() == "" || !strings.HasPrefix(g.Name(), "mocha_") {
			t.Errorf("gauge %d has bad name %q", g, g.Name())
		}
	}
	for h := HistID(0); h < numHists; h++ {
		if h.Name() == "" || h.PhaseName() == "" {
			t.Errorf("hist %d missing name/phase", h)
		}
	}
}

func TestHistObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if s := r.Hist(HApply); s.Count != 0 || s.Buckets != nil || s.Mean() != 0 {
		t.Fatal("fresh histogram not empty")
	}
	r.Observe(HApply, 30*time.Microsecond)  // bucket 0 (<=50µs)
	r.Observe(HApply, 50*time.Microsecond)  // bucket 0 (inclusive bound)
	r.Observe(HApply, 700*time.Microsecond) // bucket 4 (<=1ms)
	r.Observe(HApply, time.Minute)          // +Inf bucket
	r.Observe(HApply, -time.Second)         // clamps to 0, bucket 0
	s := r.Hist(HApply)
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if len(s.Buckets) != NumBuckets {
		t.Fatalf("bucket slice length %d, want %d", len(s.Buckets), NumBuckets)
	}
	if s.Buckets[0] != 3 {
		t.Fatalf("bucket 0 = %d, want 3", s.Buckets[0])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	wantSum := 30*time.Microsecond + 50*time.Microsecond + 700*time.Microsecond + time.Minute
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Mean() != wantSum/5 {
		t.Fatalf("mean = %v, want %v", s.Mean(), wantSum/5)
	}
}

func TestHistQuantile(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(50) != 0 {
		t.Fatal("empty quantile not 0")
	}
	r := NewRegistry()
	for i := 0; i < 99; i++ {
		r.Observe(HRequestRTT, time.Millisecond) // bucket le=1ms
	}
	r.Observe(HRequestRTT, 20*time.Second) // bucket le=30s
	s := r.Hist(HRequestRTT)
	if q := s.Quantile(50); q != time.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", q)
	}
	if q := s.Quantile(99); q != time.Millisecond {
		t.Fatalf("p99 = %v, want 1ms", q)
	}
	if q := s.Quantile(100); q != 30*time.Second {
		t.Fatalf("p100 = %v, want 30s", q)
	}
	// Tiny p clamps to rank 1, not rank 0.
	if q := s.Quantile(0.0001); q != time.Millisecond {
		t.Fatalf("p~0 = %v, want 1ms", q)
	}
	// All observations past the last bound report the largest bound.
	r2 := NewRegistry()
	r2.Observe(HApply, time.Hour)
	if q := r2.Hist(HApply).Quantile(50); q != BucketBounds[len(BucketBounds)-1] {
		t.Fatalf("overflow quantile = %v, want %v", q, BucketBounds[len(BucketBounds)-1])
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := NewRegistry()
	clock := &netsim.Clock{}
	clock.Tick() // advance so StartTick is nonzero
	r.SetClock(clock)

	sp := r.StartSpan("acquire", 2, 77)
	sp.Phase(HQueueWait)
	sp.Phase(HRequestRTT)
	sp.SetVersion(5)
	sp.End(HAcquireTotal)

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	rec := spans[0]
	if rec.Op != "acquire" || rec.Site != 2 || rec.Lock != 77 || rec.Version != 5 {
		t.Fatalf("span tags wrong: %+v", rec)
	}
	if rec.StartTick == 0 || rec.EndTick <= rec.StartTick {
		t.Fatalf("span ticks not monotone: start=%d end=%d", rec.StartTick, rec.EndTick)
	}
	if len(rec.Phases) != 2 || rec.Phases[0].Name != "queue_wait" || rec.Phases[1].Name != "request_rtt" {
		t.Fatalf("span phases wrong: %+v", rec.Phases)
	}
	if r.Hist(HQueueWait).Count != 1 || r.Hist(HRequestRTT).Count != 1 || r.Hist(HAcquireTotal).Count != 1 {
		t.Fatal("span phases did not feed the histograms")
	}
	if rec.Total < rec.Phases[0].Dur {
		t.Fatal("total shorter than first phase")
	}
}

func TestSpanRingWraparound(t *testing.T) {
	r := NewRegistry()
	total := spanRingSize + 10
	for i := 0; i < total; i++ {
		sp := r.StartSpan("release", 1, uint64(i))
		sp.End(HReleaseTotal)
	}
	spans := r.Spans()
	if len(spans) != spanRingSize {
		t.Fatalf("got %d spans, want %d", len(spans), spanRingSize)
	}
	// Oldest retained span is number total-spanRingSize, newest total-1.
	if spans[0].Lock != uint64(total-spanRingSize) {
		t.Fatalf("oldest span lock = %d, want %d", spans[0].Lock, total-spanRingSize)
	}
	if spans[len(spans)-1].Lock != uint64(total-1) {
		t.Fatalf("newest span lock = %d, want %d", spans[len(spans)-1].Lock, total-1)
	}
}

func TestSnapshotAndWriters(t *testing.T) {
	r := NewRegistry()
	clock := &netsim.Clock{}
	r.SetClock(clock)
	clock.Tick()
	clock.Tick()
	r.Inc(CGrants)
	r.Inc(CReleaseFailures)
	r.GaugeSet(GSyncLocks, 2)
	r.ShardDepthAdd(5, 3)
	r.Observe(HApply, 2*time.Millisecond)
	r.Observe(HReleaseAck, 24*time.Millisecond)
	r.Observe(HStandbyStream, 600*time.Microsecond)
	r.StandbyRTTSet(4, 600*time.Microsecond)
	r.StartSpan("acquire", 1, 1).End(HAcquireTotal)

	snap := r.Snapshot()
	if snap.Tick == 0 {
		t.Fatal("snapshot tick not stamped from clock")
	}
	if snap.Counters["mocha_grants_total"] != 1 {
		t.Fatalf("snapshot counter = %d", snap.Counters["mocha_grants_total"])
	}
	if snap.Gauges["mocha_sync_locks"] != 2 {
		t.Fatalf("snapshot gauge = %d", snap.Gauges["mocha_sync_locks"])
	}
	if snap.ShardDepths["5"] != 3 {
		t.Fatalf("snapshot shard depth = %v", snap.ShardDepths)
	}
	if snap.Hists["mocha_apply_seconds"].Count != 1 {
		t.Fatal("snapshot histogram missing")
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("snapshot spans = %d, want 1", len(snap.Spans))
	}
	if snap.StandbyRTT["4"] != 600 || len(snap.StandbyRTT) != 1 {
		t.Fatalf("snapshot standby RTTs = %v, want home 4 at 600 us only", snap.StandbyRTT)
	}

	var jsonBuf strings.Builder
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"mocha_grants_total": 1`, `"mocha_release_failures_total": 1`, `"mocha_release_ack_seconds"`,
		`"mocha_standby_stream_seconds"`, `"standby_rtt_us": {`, `"4": 600`,
		`"mocha_sync_locks": 2`, `"spans"`,
	} {
		if !strings.Contains(jsonBuf.String(), want) {
			t.Errorf("JSON missing %q", want)
		}
	}

	var promBuf strings.Builder
	if err := snap.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	prom := promBuf.String()
	for _, want := range []string{
		"# TYPE mocha_grants_total counter\nmocha_grants_total 1\n",
		"# TYPE mocha_release_failures_total counter\nmocha_release_failures_total 1\n",
		"mocha_release_ack_seconds_count 1",
		"mocha_standby_stream_seconds_count 1",
		"# TYPE mocha_standby_rtt_seconds gauge\n" + `mocha_standby_rtt_seconds{home="4"} 0.0006` + "\n",
		"# TYPE mocha_sync_locks gauge\nmocha_sync_locks 2\n",
		`mocha_sync_shard_queue_depth{shard="5"} 3`,
		"# TYPE mocha_apply_seconds histogram",
		`mocha_apply_seconds_bucket{le="+Inf"} 1`,
		"mocha_apply_seconds_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	// Cumulative buckets: the 2ms observation is in every le>=2.5ms bucket.
	if !strings.Contains(prom, `mocha_apply_seconds_bucket{le="0.0025"} 1`) {
		t.Error("cumulative bucket for le=2.5ms missing the 2ms observation")
	}
	if !strings.Contains(prom, `mocha_apply_seconds_bucket{le="0.001"} 0`) {
		t.Error("le=1ms bucket should not include the 2ms observation")
	}
}

func TestFields(t *testing.T) {
	s := S("mode", "hybrid")
	i := I("bytes", 4096)
	zero := I("zero", 0)
	if s.Value() != "hybrid" || i.Value() != "4096" || zero.Value() != "0" {
		t.Fatal("field Value rendering wrong")
	}
	if !i.IsInt || s.IsInt {
		t.Fatal("IsInt flags wrong")
	}
	got := FormatFields("transfer", []Field{s, i})
	if got != "transfer mode=hybrid bytes=4096" {
		t.Fatalf("FormatFields = %q", got)
	}
	if FormatFields("bare", nil) != "bare" {
		t.Fatal("FormatFields without fields should return msg unchanged")
	}
	b := AppendFields(nil, []Field{I("n", -7)})
	if string(b) != " n=-7" {
		t.Fatalf("AppendFields = %q", b)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetClock(&netsim.Clock{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Inc(CMsgsSent)
				r.GaugeAdd(GSyncQueueDepth, 1)
				r.GaugeAdd(GSyncQueueDepth, -1)
				r.ShardDepthAdd(g, 1)
				r.Observe(HApply, time.Duration(i)*time.Microsecond)
				sp := r.StartSpan("acquire", uint32(g), uint64(i))
				sp.Phase(HQueueWait)
				sp.End(HAcquireTotal)
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := r.CounterValue(CMsgsSent); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.GaugeValue(GSyncQueueDepth); got != 0 {
		t.Fatalf("gauge drifted to %d", got)
	}
	if got := r.Hist(HAcquireTotal).Count; got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}
