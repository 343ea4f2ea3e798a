package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"mocha/internal/obs"
)

// opTimeout is how long after the measured window an operation may still
// be outstanding before it counts as failed.
const opTimeout = 30 * time.Second

// An untraced pass builds, registers and warms a cluster at least
// setupRepeats times, and goes on (up to setupRepeatsMax) while the
// repeats have taken under setupBudget, so a set-up of tens of
// milliseconds is timed often enough to repeat. setup_s is the median;
// the last cluster is the one measured.
const (
	setupRepeats    = 3
	setupRepeatsMax = 9
	setupBudget     = time.Second
)

// samples is what one actor records. Each actor owns its own, so
// recording takes no lock.
type samples struct {
	acquire, release  []time.Duration
	recovery, refetch []time.Duration
	// inside is the time spent inside Lock and Unlock; wall is the time
	// the actor's loop ran.
	inside, wall      time.Duration
	attempted, failed int
	firstErr          error
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// passResult is one pass over one workload: the end-to-end numbers, the
// whole-process numbers, and the counter deltas the per-layer metrics are
// computed from.
type passResult struct {
	attempted, failed int
	firstErr          error

	ops                     int // completed by the counted clients
	reads                   int
	opsPerSec               float64
	acquireP50, acquireTail time.Duration
	releaseP50, releaseTail time.Duration
	tailErr                 error
	recovery                []time.Duration // sorted, holder_crash cycle (a)
	refetch                 []time.Duration // sorted, holder_crash cycle (b)
	setup                   time.Duration
	netBytes                int64
	netPkts                 int64
	netDropped              int64
	netBlack                int64
	heapLive                uint64

	cpu            time.Duration
	mallocs        uint64
	allocBytes     uint64
	gcPause        time.Duration
	goroutinesPeak int
	genOverhead    float64
	acquireMean    time.Duration
	syncDepthMax   int64
	stores         storeTotals
	uplinkSends    int64
	before, after  *obsSnapshot
}

type storeTotals struct{ appends, fsyncs, refaults, compactions uint64 }

// runPass sets a workload up, runs it for warm and discards that, measures
// it for run, and tears it down. tr selects the traced pass; setups is how
// many times set-up is repeated at least (see setupRepeats).
func runPass(w *workload, seed int64, run, warm time.Duration, tr *tracer, setups int) (*passResult, error) {
	res := &passResult{}
	ctx, cancel := context.WithTimeout(context.Background(), setupRepeatsMax*time.Minute+warm+run+opTimeout)
	defer cancel()

	var (
		c          *cluster
		d          *deployment
		setupTimes []time.Duration
	)
	setupStart := time.Now()
	for i := 0; i < setups || (setups > 1 && i < setupRepeatsMax && time.Since(setupStart) < setupBudget); i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, err = newCluster(w.spec(warm+run), seed, tr); err != nil {
			return nil, fmt.Errorf("%s: build cluster: %w", w.name, err)
		}
		if d, err = w.prepare(ctx, c, seed, tr); err != nil {
			c.close()
			return nil, fmt.Errorf("%s: register: %w", w.name, err)
		}
		touched := runActors(d, func(cl *client, out *samples) { cl.touchAll(ctx, out) }, nil)
		setupTimes = append(setupTimes, time.Since(start))
		if err := res.count(touched); err != nil {
			c.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	defer c.close()
	res.setup = medianDuration(setupTimes)

	drive := func(until time.Time) []*samples {
		return runActors(d,
			func(cl *client, out *samples) { cl.run(ctx, until, out) },
			func(fd *faultDriver, out *samples) { fd.run(ctx, until, out) })
	}
	// Steady-state warm-up, discarded.
	if err := res.count(drive(time.Now().Add(warm))); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	// Measured window.
	sampler := startSampler(tr)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	net0 := c.netStats()
	stores0, uplink0 := c.nodeTotals()
	res.before = snapshotObs(tr)
	begin := time.Now()
	got := drive(begin.Add(run))
	wall := time.Since(begin)
	res.after = snapshotObs(tr)
	net1 := c.netStats()
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	res.goroutinesPeak, res.syncDepthMax = sampler.stop()

	_ = res.count(got)
	var (
		inside           time.Duration
		acquire, release [][]time.Duration // per client, in completion order
	)
	for i, s := range got {
		if i >= len(d.clients) {
			res.recovery, res.refetch = s.recovery, s.refetch
			continue
		}
		n := len(s.acquire)
		res.ops += n
		res.opsPerSec += float64(n) / s.wall.Seconds()
		acquire = append(acquire, s.acquire)
		release = append(release, s.release)
		inside += s.inside
		for _, a := range s.acquire {
			res.acquireMean += a
		}
	}
	if res.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %v", w.name, res.firstErr)
	}
	res.acquireMean /= time.Duration(res.ops)
	slices.Sort(res.recovery)
	slices.Sort(res.refetch)
	// A run too short for the tail percentile is an error only for the
	// caller that reports tails; the traced mode's passes do not.
	var err error
	if res.acquireP50, res.acquireTail, err = medianAndTail(acquire, w.tail); err != nil {
		res.tailErr = fmt.Errorf("%s acquire: %w", w.name, err)
	}
	if res.releaseP50, res.releaseTail, err = medianAndTail(release, w.tail); err != nil {
		res.tailErr = fmt.Errorf("%s release: %w", w.name, err)
	}
	res.genOverhead = 1 - inside.Seconds()/(wall.Seconds()*float64(len(d.clients)))
	res.netBytes = net1.Bytes - net0.Bytes
	res.netPkts = net1.Sent - net0.Sent
	res.netDropped = net1.Dropped - net0.Dropped
	res.netBlack = net1.Blackhole - net0.Blackhole
	res.cpu = cpu1 - cpu0
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	stores1, uplink1 := c.nodeTotals()
	res.stores = storeTotals{
		appends:     stores1.appends - stores0.appends,
		fsyncs:      stores1.fsyncs - stores0.fsyncs,
		refaults:    stores1.refaults - stores0.refaults,
		compactions: stores1.compactions - stores0.compactions,
	}
	res.uplinkSends = uplink1 - uplink0

	// Live heap at quiesce: the harness's own latency samples are dropped
	// first; two collections let finalizers and pools settle.
	got, acquire, release = nil, nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapLive = ms1.HeapAlloc

	c.close()
	if tr != nil {
		if err := tr.verify(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return res, nil
}

// count folds actors' attempt and failure counts into the pass and
// returns the first failure, if any.
func (r *passResult) count(ss []*samples) error {
	for _, s := range ss {
		r.attempted += s.attempted
		r.failed += s.failed
		if r.firstErr == nil {
			r.firstErr = s.firstErr
		}
	}
	return r.firstErr
}

// runActors runs every client (and the fault driver, when both exist) to
// completion, one goroutine each, and returns their samples, clients
// first.
func runActors(d *deployment, runClient func(*client, *samples), runFaults func(*faultDriver, *samples)) []*samples {
	var (
		wg  sync.WaitGroup
		out []*samples
	)
	for _, cl := range d.clients {
		s := &samples{}
		out = append(out, s)
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			runClient(cl, s)
		}(cl)
	}
	if d.faults != nil && runFaults != nil {
		s := &samples{}
		out = append(out, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runFaults(d.faults, s)
		}()
	}
	wg.Wait()
	return out
}

// maxWindows caps how many windows a run's latencies are cut into: about
// one a second at the fixed run length.
const maxWindows = 15

// medianAndTail reports a latency's median and tail percentile. The run
// is cut into equal windows (each client's samples, which are in
// completion order, into equal parts; part i of every client makes window
// i), both percentiles are read in every window, and the medians over the
// windows are reported, so that a second of interference from outside
// moves one window and not the result. There are as many windows, up to
// maxWindows, as leave every window ten samples beyond the tail
// percentile; a run too short for one such window is refused: that tail
// would be a handful of outliers, not a measurement.
func medianAndTail(perClient [][]time.Duration, tail float64) (p50, pTail time.Duration, err error) {
	n := 0
	for _, s := range perClient {
		n += len(s)
	}
	beyond := float64(n) * (1 - tail/100)
	windows := min(int(beyond/10), maxWindows)
	if windows < 1 {
		return 0, 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, want at least 10", tail, n, beyond)
	}
	p50s := make([]time.Duration, windows)
	tails := make([]time.Duration, windows)
	for i := range p50s {
		var win []time.Duration
		for _, s := range perClient {
			win = append(win, s[len(s)*i/windows:len(s)*(i+1)/windows]...)
		}
		slices.Sort(win)
		p50s[i], tails[i] = percentile(win, 50), percentile(win, tail)
	}
	slices.Sort(p50s)
	slices.Sort(tails)
	return percentile(p50s, 50), percentile(tails, 50), nil
}

// percentile reads the p-th percentile off sorted, non-empty samples by
// linear interpolation.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + time.Duration((rank-float64(lo))*float64(sorted[hi]-sorted[lo]))
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	return percentile(s, 50)
}

// processCPU is the user plus system time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler polls the two gauges that have no running maximum of their own.
type sampler struct {
	done   chan struct{}
	wg     sync.WaitGroup
	gor    int
	qdepth int64
}

func startSampler(tr *tracer) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > s.gor {
				s.gor = n
			}
			if q := tr.registry().GaugeValue(obs.GSyncQueueDepth); q > s.qdepth {
				s.qdepth = q
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() (goroutines int, queueDepth int64) {
	close(s.done)
	s.wg.Wait()
	return s.gor, s.qdepth
}

// obsSnapshot is the obs plane's counters and histogram sums at one
// instant; per-layer metrics are differences of two.
type obsSnapshot struct {
	counters map[obs.Counter]int64
	hists    map[obs.HistID]obs.HistSnapshot
	buckets  int64

	codecCalls, codecBusyNs, codecBytes int64
	sendCalls, sendBusyNs               int64
	events                              uint64
}

var (
	tracedCounters = []obs.Counter{
		obs.CGrants, obs.CReleases, obs.CLeaseBreaks, obs.CBans, obs.CDaemonPolls, obs.CPushes,
		obs.CTransfersFull, obs.CTransfersDelta, obs.CDeltaFallbacks, obs.CTransferBytes,
		obs.CStreamDials, obs.CMsgsSent, obs.CRetransmits, obs.CQueueDrops, obs.CFlushDrops,
		obs.CSendBatches, obs.CSendBatchPkts, obs.CRelayPushes, obs.CRelayFallbacks,
		obs.CHomeMigrations, obs.CStandbyUpdates, obs.CHomeRedirects,
	}
	tracedHists = []obs.HistID{
		obs.HAcquireTotal, obs.HQueueWait, obs.HRequestRTT, obs.HTransferWait, obs.HApply,
		obs.HReleaseTotal, obs.HDisseminate, obs.HGrantDeliver,
	}
)

func snapshotObs(tr *tracer) *obsSnapshot {
	if tr == nil {
		return nil
	}
	s := &obsSnapshot{
		counters:    make(map[obs.Counter]int64, len(tracedCounters)),
		hists:       make(map[obs.HistID]obs.HistSnapshot, len(tracedHists)),
		buckets:     tr.reg.GaugeValue(obs.GRelayBuckets),
		codecCalls:  tr.codecCalls.Load(),
		codecBusyNs: tr.codecBusyNs.Load(),
		codecBytes:  tr.codecBytes.Load(),
		sendCalls:   tr.sendCalls.Load(),
		sendBusyNs:  tr.sendBusyNs.Load(),
		events:      tr.mon.EventsSeen(),
	}
	for _, c := range tracedCounters {
		s.counters[c] = tr.reg.CounterValue(c)
	}
	for _, h := range tracedHists {
		s.hists[h] = tr.reg.Hist(h)
	}
	return s
}
