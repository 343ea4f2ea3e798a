package bench

import (
	"fmt"
	"io"
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/stats"
	"mocha/internal/transport"
)

// AppBreakdown regenerates the Section 5.1 measurement: the cost of
// keeping the table-setting application's replicas consistent in the
// wide-area environment, broken into marshaling, lock acquisition, and
// transfer, as the paper reports (3 + 19 + 44 = 66 ms).
func AppBreakdown(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	h, err := newHarness(cfg, wanEnv(), core.ModeMNet, 2)
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = h.Close() }()
	ctx, cancel := benchCtx()
	defer cancel()

	// The application's shared state: three index replicas and a comment
	// string under one ReplicaLock (Figure 3).
	home := h.nodes[1]
	homeHnd := home.NewHandle("home-gui")
	homeLock := homeHnd.ReplicaLock(1)
	names := []string{"flatwareIndex", "plateIndex", "glasswareIndex"}
	var homeReplicas []*core.Replica
	for _, name := range names {
		r, err := home.CreateReplica(name, marshal.Ints(make([]int32, 5)), 2)
		if err != nil {
			return Result{}, err
		}
		if err := homeLock.Associate(ctx, r); err != nil {
			return Result{}, err
		}
		homeReplicas = append(homeReplicas, r)
	}
	text, err := home.CreateReplica("text", marshal.Object(marshal.NewStringValue("Hello World")), 2)
	if err != nil {
		return Result{}, err
	}
	if err := homeLock.Associate(ctx, text); err != nil {
		return Result{}, err
	}

	remote := h.nodes[2]
	remoteHnd := remote.NewHandle("associate-gui")
	remoteLock := remoteHnd.ReplicaLock(1)
	for _, name := range names {
		r, err := remote.AttachReplica(name, marshal.Ints(nil))
		if err != nil {
			return Result{}, err
		}
		if err := remoteLock.Associate(ctx, r); err != nil {
			return Result{}, err
		}
	}
	rtext, err := remote.AttachReplica("text", marshal.Object(marshal.NewStringValue("")))
	if err != nil {
		return Result{}, err
	}
	if err := remoteLock.Associate(ctx, rtext); err != nil {
		return Result{}, err
	}
	time.Sleep(h.settleDelay())

	// Marshaling cost of the app's four replicas.
	marshalSample, err := h.measure(true, func() error {
		for _, r := range homeReplicas {
			if _, err := h.codec.Marshal(r.Content()); err != nil {
				return err
			}
		}
		_, err := h.codec.Marshal(text.Content())
		return err
	})
	if err != nil {
		return Result{}, err
	}

	// Warm the remote copy, then measure a VERSIONOK lock acquisition.
	if err := remoteLock.Lock(ctx); err != nil {
		return Result{}, err
	}
	if err := remoteLock.Unlock(ctx); err != nil {
		return Result{}, err
	}
	lockSample := &obs.Sample{}
	for i := 0; i < cfg.Trials+1; i++ {
		start := time.Now()
		if err := remoteLock.Lock(ctx); err != nil {
			return Result{}, err
		}
		elapsed := time.Since(start)
		if err := remoteLock.Unlock(ctx); err != nil {
			return Result{}, err
		}
		if i > 0 {
			lockSample.Add(h.deScale(elapsed))
		}
	}

	// Lock acquisition with a pending transfer: home updates, remote
	// acquires. The transfer component is the difference from the
	// VERSIONOK acquisition.
	xferTotal := &obs.Sample{}
	for i := 0; i < cfg.Trials+1; i++ {
		if err := homeLock.Lock(ctx); err != nil {
			return Result{}, err
		}
		homeReplicas[0].Content().IntsData()[0]++
		if err := homeLock.Unlock(ctx); err != nil {
			return Result{}, err
		}
		start := time.Now()
		if err := remoteLock.Lock(ctx); err != nil {
			return Result{}, err
		}
		elapsed := time.Since(start)
		if err := remoteLock.Unlock(ctx); err != nil {
			return Result{}, err
		}
		if i > 0 {
			xferTotal.Add(h.deScale(elapsed))
		}
	}

	marshalMs := marshalSample.Mean()
	lockMs := lockSample.Mean()
	transferMs := xferTotal.Mean() - lockMs
	if transferMs < 0 {
		transferMs = 0
	}
	total := marshalMs + lockMs + transferMs

	table := stats.NewTable("component", "measured (ms)", "paper (ms)")
	table.AddRow("marshaling", stats.Millis(marshalMs), "3")
	table.AddRow("lock acquisition", stats.Millis(lockMs), "19")
	table.AddRow("transfer", stats.Millis(transferMs), "44")
	table.AddRow("total", stats.Millis(total), "66")
	return Result{
		ID:    "app",
		Title: "Consistency cost of the table-setting coordinator's replicas (WAN)",
		Paper: "marshal 3 ms + lock 19 ms + transfer 44 ms = 66 ms total, 'suitable for this type of application'",
		Table: table.String(),
		Notes: []string{"transfer is the lock-with-pending-update acquisition minus the VERSIONOK acquisition"},
	}, nil
}

// SmallMessages regenerates the Section 5 claim that Mocha's network
// library is about twice as fast as TCP for messages under 256 bytes,
// because it avoids connection setup and teardown.
func SmallMessages(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	cost := netsim.JDK1().Scaled(cfg.Scale)
	profile := netsim.LANFastEthernet().Scaled(cfg.Scale)

	sim := transport.NewSimNetwork(netsim.Config{Profile: profile, Seed: 5})
	defer func() { _ = sim.Close() }()
	s1, err := sim.NewStack(1)
	if err != nil {
		return Result{}, err
	}
	s2, err := sim.NewStack(2)
	if err != nil {
		return Result{}, err
	}
	e1 := mnet.NewEndpoint(s1.Datagram(), mnet.Config{Cost: cost, RTO: 2 * time.Second})
	e2 := mnet.NewEndpoint(s2.Datagram(), mnet.Config{Cost: cost, RTO: 2 * time.Second})
	defer func() { _ = e1.Close(); _ = e2.Close() }()

	sender, err := e1.OpenPort(9)
	if err != nil {
		return Result{}, err
	}
	sink, err := e2.OpenPort(5)
	if err != nil {
		return Result{}, err
	}
	sink.SetHandler(func(mnet.Message) {})

	h := &harness{cfg: cfg}
	ctx, cancel := benchCtx()
	defer cancel()

	table := stats.NewTable("size (B)", "mnet (ms)", "tcp fresh-conn (ms)", "tcp persistent (ms)", "mnet vs fresh")
	var notes []string
	for _, size := range []int{64, 128, 256} {
		payload := make([]byte, size)

		mnetSample, err := h.measure(true, func() error {
			return sender.Send(ctx, e2.PortAddr(5), payload)
		})
		if err != nil {
			return Result{}, fmt.Errorf("smallmsg mnet: %w", err)
		}

		freshSample, err := h.measure(true, func() error {
			return streamSendFresh(s1, s2, cost, payload)
		})
		if err != nil {
			return Result{}, fmt.Errorf("smallmsg fresh: %w", err)
		}

		persistent, err := newPersistentStream(s1, s2)
		if err != nil {
			return Result{}, err
		}
		persistentSample, err := h.measure(true, func() error {
			return persistent.send(cost, payload)
		})
		persistent.close()
		if err != nil {
			return Result{}, fmt.Errorf("smallmsg persistent: %w", err)
		}

		ratio := float64(freshSample.Mean()) / float64(mnetSample.Mean())
		table.AddRow(size,
			stats.Millis(mnetSample.Mean()),
			stats.Millis(freshSample.Mean()),
			stats.Millis(persistentSample.Mean()),
			fmt.Sprintf("%.1fx", ratio))
		if size == 256 {
			notes = append(notes, fmt.Sprintf("at 256 B, MNet is %.1fx faster than per-message TCP connections", ratio))
		}
	}
	return Result{
		ID:    "smallmsg",
		Title: "Small-message cost: MNet library vs TCP",
		Paper: "MNet 'approximately twice as fast as TCP for sending small (i.e., less than 256 byte) messages'",
		Table: table.String(),
		Notes: notes,
	}, nil
}

// streamSendFresh sends one payload over a fresh stream connection,
// charging the modelled setup, write, and teardown costs, and waits for a
// one-byte receiver acknowledgment.
func streamSendFresh(from, to transport.Stack, cost netsim.CostModel, payload []byte) error {
	ln, err := to.ListenStream()
	if err != nil {
		return err
	}
	defer func() { _ = ln.Close() }()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		buf := make([]byte, len(payload))
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		_, _ = c.Write([]byte{1})
	}()

	conn, err := from.DialStream(ln.Addr())
	if err != nil {
		return err
	}
	defer func() {
		netsim.Charge(cost.StreamTeardown)
		_ = conn.Close()
	}()
	netsim.Charge(cost.StreamSetup)
	netsim.Charge(cost.StreamWriteCost(len(payload)))
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	var ack [1]byte
	_ = transport.SetReadDeadlineConn(conn, 30*time.Second)
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	return nil
}

// persistentStream reuses one connection for many sends.
type persistentStream struct {
	conn transport.Conn
	ln   transport.Listener
	done chan struct{}
}

func newPersistentStream(from, to transport.Stack) (*persistentStream, error) {
	ln, err := to.ListenStream()
	if err != nil {
		return nil, err
	}
	ps := &persistentStream{ln: ln, done: make(chan struct{})}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		buf := make([]byte, 4096)
		for {
			select {
			case <-ps.done:
				return
			default:
			}
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if n > 0 {
				if _, err := c.Write([]byte{1}); err != nil {
					return
				}
			}
		}
	}()
	conn, err := from.DialStream(ln.Addr())
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	ps.conn = conn
	return ps, nil
}

func (ps *persistentStream) send(cost netsim.CostModel, payload []byte) error {
	netsim.Charge(cost.StreamWriteCost(len(payload)))
	if _, err := ps.conn.Write(payload); err != nil {
		return err
	}
	var ack [1]byte
	_ = transport.SetReadDeadlineConn(ps.conn, 30*time.Second)
	_, err := io.ReadFull(ps.conn, ack[:])
	return err
}

func (ps *persistentStream) close() {
	close(ps.done)
	if ps.conn != nil {
		_ = ps.conn.Close()
	}
	_ = ps.ln.Close()
}

// URSweep measures the cost of one full consistency cycle (lock, modify,
// release-with-dissemination) as UR grows — the availability/overhead
// trade-off of Section 4: "when UR = k, the value will be sent to k nodes
// even when it is not required by the consistency protocols."
func URSweep(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	h, err := newHarness(cfg, wanEnv(), core.ModeMNet, cfg.MaxSites+1)
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = h.Close() }()
	ctx, cancel := benchCtx()
	defer cancel()

	rl, err := h.setupSharedReplica(ctx, 3, "precious", 4*1024)
	if err != nil {
		return Result{}, err
	}

	table := stats.NewTable("UR", "release cycle (ms)", "marginal cost of next replica (ms)")
	var notes []string
	means := make([]time.Duration, 0, cfg.MaxSites)
	for k := 1; k <= cfg.MaxSites; k++ {
		rl.SetUpdateReplicas(k)
		sample, err := h.measure(k == 1, func() error {
			if err := rl.Lock(ctx); err != nil {
				return err
			}
			return rl.Unlock(ctx)
		})
		if err != nil {
			return Result{}, err
		}
		means = append(means, sample.Mean())
	}
	for k := 1; k <= cfg.MaxSites; k++ {
		marginal := "-"
		if k >= 2 {
			marginal = stats.Millis(means[k-1] - means[k-2])
		}
		table.AddRow(k, stats.Millis(means[k-1]), marginal)
	}
	// The paper's "1 to 2 approximately doubles" statement is about the
	// dissemination series of Figure 12 (maintaining 1 vs 2 up-to-date
	// replicas doubles the transfer work); report the matching ratio:
	// dissemination cost alone is the cycle cost minus the UR=1 baseline.
	if cfg.MaxSites >= 3 {
		d2 := means[1] - means[0] // dissemination to 1 extra replica
		d3 := means[2] - means[0] // dissemination to 2 extra replicas
		if d2 > 0 {
			notes = append(notes, fmt.Sprintf(
				"dissemination work for 2 extra up-to-date replicas is %.2fx that for 1 (paper: ~2x per doubling)",
				float64(d3)/float64(d2)))
		}
	}
	return Result{
		ID:    "ur",
		Title: "Availability cost: release cycle vs number of up-to-date replicas (WAN, 4K)",
		Paper: "increasing the number of up-to-date 4K replicas from 1 to 2 approximately doubles the consistency maintenance (dissemination) overhead",
		Table: table.String(),
		Notes: notes,
	}, nil
}

// AblateMarshal compares the JDK 1.1 marshaling path against the "custom
// marshaling library that is more efficient for our needs" the paper
// plans as future work.
func AblateMarshal(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	java := marshal.NewJavaStyle(netsim.JDK1().Scaled(cfg.Scale))
	fast := marshal.NewFast(netsim.JDK1().FastMarshal().Scaled(cfg.Scale))
	h := &harness{cfg: cfg}

	table := stats.NewTable("replica size", "jdk1-generic (ms)", "mocha-custom (ms)", "speedup")
	for _, kb := range []int{1, 4, 16, 64, 256} {
		content := marshal.Bytes(make([]byte, kb*1024))
		javaSample, err := h.measure(true, func() error {
			_, err := java.Marshal(content)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		fastSample, err := h.measure(true, func() error {
			_, err := fast.Marshal(content)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		table.AddRow(fmt.Sprintf("%dK", kb),
			stats.Millis(javaSample.Mean()),
			stats.Millis(fastSample.Mean()),
			fmt.Sprintf("%.0fx", float64(javaSample.Mean())/float64(fastSample.Mean())))
	}
	return Result{
		ID:    "ablate-marshal",
		Title: "Marshaling: JDK 1.1 generic constructs vs custom library",
		Paper: "'In the future, we plan on providing a custom marshaling library that is more efficient for our needs.'",
		Table: table.String(),
	}, nil
}

// AblateAdaptive evaluates the adaptive transfer policy the paper's
// results imply: use MNet below the crossover size, the hybrid stream
// above it. The adaptive mode should track the winner at every size.
func AblateAdaptive(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	const fanout = 3
	sub := cfg
	sub.MaxSites = fanout

	table := stats.NewTable("size", "basic (ms)", "hybrid (ms)", "adaptive (ms)")
	var notes []string
	for _, kb := range []int{1, 4, 256} {
		spec := figSpec{e: wanEnv(), sizeK: kb}
		var means [3]time.Duration
		for i, mode := range []core.TransferMode{core.ModeMNet, core.ModeHybrid, core.ModeAdaptive} {
			series, err := disseminationSeries(sub, spec, mode)
			if err != nil {
				return Result{}, fmt.Errorf("adaptive %dK %s: %w", kb, mode, err)
			}
			means[i] = series[fanout-1].mean()
		}
		table.AddRow(fmt.Sprintf("%dK", kb), stats.Millis(means[0]), stats.Millis(means[1]), stats.Millis(means[2]))
		best := means[0]
		if means[1] < best {
			best = means[1]
		}
		if float64(means[2]) <= 1.25*float64(best) {
			notes = append(notes, fmt.Sprintf("%dK: adaptive tracks the better protocol", kb))
		} else {
			notes = append(notes, fmt.Sprintf("%dK: adaptive is %.0f%% off the better protocol", kb,
				100*(float64(means[2])/float64(best)-1)))
		}
	}
	return Result{
		ID:    "ablate-adaptive",
		Title: fmt.Sprintf("Adaptive protocol selection (WAN, %d sites)", fanout),
		Paper: "implied by Figures 9-14: the winning protocol depends on replica size",
		Table: table.String(),
		Notes: notes,
	}, nil
}

// CableModemEnv evaluates the deployment the paper's conclusion reports as
// ongoing work: "a more accurate home service environment, namely, a
// Windows 95 PC connected via a cable modem to a Unix workstation." It
// reruns the Table 1 lock measurement and a small-replica transfer on the
// cable-modem profile and compares against the campus WAN.
func CableModemEnv(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	cable := env{name: "cable modem (home)", profile: netsim.CableModem()}

	table := stats.NewTable("environment", "lock acquire (ms)", "1K transfer to 1 site (ms)")
	for _, e := range []env{wanEnv(), cable} {
		h, err := newHarness(cfg, e, core.ModeMNet, 2)
		if err != nil {
			return Result{}, err
		}
		lockSample, err := lockLatency(h)
		if err != nil {
			_ = h.Close()
			return Result{}, err
		}
		_ = h.Close()

		series, err := disseminationSeriesOpts(Config{Scale: cfg.Scale, Trials: cfg.Trials, MaxSites: 1},
			figSpec{e: e, sizeK: 1}, core.ModeMNet, harnessOpts{})
		if err != nil {
			return Result{}, err
		}
		table.AddRow(e.name, stats.Millis(lockSample.Mean()), stats.Millis(series[0].mean()))
	}
	return Result{
		ID:    "cablemodem",
		Title: "Home-service environment: cable modem vs campus WAN",
		Paper: "conclusion: 'evaluating the system in a more accurate home service environment, namely, a Windows 95 PC connected via a cable modem'",
		Table: table.String(),
		Notes: []string{"the cable-modem path adds propagation latency and loses bandwidth; lock traffic degrades mildly, bulk transfer more"},
	}, nil
}

// AblateReuse evaluates the connection-reuse extension: the paper blames
// the hybrid protocol's small-replica losses on "the higher connection and
// tear-down overheads associated with the hybrid approach", so caching
// connections should let the stream path win even at 1K.
func AblateReuse(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	const fanout = 3
	sub := cfg
	sub.MaxSites = fanout

	table := stats.NewTable("size", "basic (ms)", "hybrid (ms)", "hybrid+reuse (ms)")
	var notes []string
	for _, kb := range []int{1, 4} {
		spec := figSpec{e: wanEnv(), sizeK: kb}
		basic, err := disseminationSeriesOpts(sub, spec, core.ModeMNet, harnessOpts{})
		if err != nil {
			return Result{}, err
		}
		hybrid, err := disseminationSeriesOpts(sub, spec, core.ModeHybrid, harnessOpts{})
		if err != nil {
			return Result{}, err
		}
		reuse, err := disseminationSeriesOpts(sub, spec, core.ModeHybrid, harnessOpts{streamReuse: true})
		if err != nil {
			return Result{}, err
		}
		b, hy, re := basic[fanout-1].mean(), hybrid[fanout-1].mean(), reuse[fanout-1].mean()
		table.AddRow(fmt.Sprintf("%dK", kb), stats.Millis(b), stats.Millis(hy), stats.Millis(re))
		if kb == 1 && re < b && hy > b {
			notes = append(notes, "with connection reuse the stream path wins even at 1K, where the paper's per-transfer hybrid loses")
		}
	}
	return Result{
		ID:    "ablate-reuse",
		Title: fmt.Sprintf("Hybrid protocol with cached connections (WAN, %d sites)", fanout),
		Paper: "the hybrid protocol's 1K losses are 'attributable to the higher connection and tear-down overheads'; reuse removes them",
		Table: table.String(),
		Notes: notes,
	}, nil
}

// AblateFanout compares the paper prototype's strictly sequential update
// dissemination against the concurrent fan-out extension: with k remote
// sharers, the sequential walk pays k full round trips back to back, while
// the parallel path overlaps them and pays only the shared sender-uplink
// serialization plus one round trip.
func AblateFanout(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	const sizeK = 4

	table := stats.NewTable("environment", "sites", "sequential (ms)", "parallel (ms)", "speedup")
	var notes []string
	for _, e := range []env{lanEnv(), wanEnv()} {
		spec := figSpec{e: e, sizeK: sizeK}
		seq, err := disseminationSeriesOpts(cfg, spec, core.ModeMNet, harnessOpts{})
		if err != nil {
			return Result{}, err
		}
		par, err := disseminationSeriesOpts(cfg, spec, core.ModeMNet, harnessOpts{fanout: -1})
		if err != nil {
			return Result{}, err
		}
		for k := 1; k <= cfg.MaxSites; k++ {
			s, p := seq[k-1].mean(), par[k-1].mean()
			table.AddRow(e.name, fmt.Sprintf("%d", k), stats.Millis(s), stats.Millis(p),
				fmt.Sprintf("%.2fx", float64(s)/float64(p)))
		}
		s, p := seq[cfg.MaxSites-1].mean(), par[cfg.MaxSites-1].mean()
		notes = append(notes, fmt.Sprintf("%s at %d sites: %.2fx", e.name, cfg.MaxSites, float64(s)/float64(p)))
	}
	return Result{
		ID:    "ablate-fanout",
		Title: fmt.Sprintf("Parallel dissemination fan-out (%dK updates)", sizeK),
		Paper: "section 4's release 'sends the new version of the data to all of the replicated sites' one site at a time; overlapping the pushes hides per-site latency without changing the protocol",
		Table: table.String(),
		Notes: notes,
	}, nil
}
