package bench

import (
	"fmt"
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/stats"
	"mocha/internal/wire"
)

// Table1 regenerates Table 1: lock acquisition with no data transfer, on
// the LAN and WAN environments. The acquiring thread is the last owner of
// the lock, so the grant carries VERSIONOK and the cost is one
// request/grant round trip through the synchronization thread.
func Table1(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	table := stats.NewTable("environment", "mean (ms)", "stddev (ms)", "paper (ms)")
	paperVals := map[string]string{"LAN (Fast Ethernet)": "5", "WAN (Internet)": "19"}

	for _, e := range []env{lanEnv(), wanEnv()} {
		h, err := newHarness(cfg, e, core.ModeMNet, 2)
		if err != nil {
			return Result{}, err
		}
		sample, err := lockLatency(h)
		_ = h.Close()
		if err != nil {
			return Result{}, fmt.Errorf("table1 %s: %w", e.name, err)
		}
		table.AddRow(e.name, stats.Millis(sample.Mean()), stats.Millis(sample.Stddev()), paperVals[e.name])
	}
	return Result{
		ID:    "table1",
		Title: "Time to acquire a lock (with no data transfer)",
		Paper: "LAN 5 ms, WAN 19 ms; wide-area lock acquisition is significantly more expensive",
		Table: table.String(),
	}, nil
}

// lockLatency measures a VERSIONOK lock acquisition from site 2.
func lockLatency(h *harness) (*obs.Sample, error) {
	ctx, cancel := benchCtx()
	defer cancel()
	if _, err := h.setupSharedReplica(ctx, 1, "locked", 16); err != nil {
		return nil, err
	}
	worker := h.nodes[2].NewHandle("acquirer")
	rl := worker.ReplicaLock(1)

	// First cycle transfers the initial data; afterwards site 2 is the
	// last owner and every grant is VERSIONOK.
	if err := rl.Lock(ctx); err != nil {
		return nil, err
	}
	if err := rl.Unlock(ctx); err != nil {
		return nil, err
	}
	// Table 1 reports lock acquisition alone; the release between trials
	// stays outside the timed region.
	s := &obs.Sample{}
	for i := 0; i < h.cfg.Trials+1; i++ {
		start := time.Now()
		if err := rl.Lock(ctx); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if err := rl.Unlock(ctx); err != nil {
			return nil, err
		}
		if i > 0 {
			s.Add(h.deScale(elapsed))
		}
	}
	return s, nil
}

// Fig8 regenerates Figure 8: time to marshal replicas into byte arrays as
// replica size grows, under the JDK 1.1 marshaling path ("dynamic arrays
// and marshal a single byte at a time").
func Fig8(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	codec := marshal.NewJavaStyle(netsim.JDK1().Scaled(cfg.Scale))
	table := stats.NewTable("replica size", "marshal (ms)", "unmarshal (ms)")

	h := &harness{cfg: cfg} // deScale helper only
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		size := kb * 1024
		content := marshal.Bytes(make([]byte, size))
		var blob []byte
		mSample, err := h.measure(true, func() error {
			var err error
			blob, err = codec.Marshal(content)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		dst := marshal.Bytes(nil)
		uSample, err := h.measure(true, func() error {
			return codec.Unmarshal(blob, dst)
		})
		if err != nil {
			return Result{}, err
		}
		table.AddRow(fmt.Sprintf("%dK", kb), stats.Millis(mSample.Mean()), stats.Millis(uSample.Mean()))
	}
	return Result{
		ID:    "fig8",
		Title: "Time to marshal replicas",
		Paper: "marshaling grows steeply with replica size and is 'somewhat expensive for large replicas' (JDK 1.1 marshals a single byte at a time); ~3 ms for the app's small replicas",
		Table: table.String(),
		Notes: []string{"the ablate-marshal experiment shows the planned custom marshaling library"},
	}, nil
}

// figSpec describes one of Figures 9-14.
type figSpec struct {
	num   int
	e     env
	sizeK int
}

func specFor(num int) figSpec {
	switch num {
	case 9:
		return figSpec{num: 9, e: lanEnv(), sizeK: 1}
	case 10:
		return figSpec{num: 10, e: wanEnv(), sizeK: 1}
	case 11:
		return figSpec{num: 11, e: lanEnv(), sizeK: 4}
	case 12:
		return figSpec{num: 12, e: wanEnv(), sizeK: 4}
	case 13:
		return figSpec{num: 13, e: lanEnv(), sizeK: 256}
	default:
		return figSpec{num: 14, e: wanEnv(), sizeK: 256}
	}
}

var figPaper = map[int]string{
	9:  "basic MNet protocol is the more efficient approach for 1K replicas on the LAN",
	10: "basic MNet protocol is the more efficient approach for 1K replicas on the WAN",
	11: "at 4K the hybrid protocol begins to perform much better on the LAN",
	12: "hybrid ~30% better than basic at 4K to 6 WAN sites; UR 1 to 2 roughly doubles the overhead",
	13: "at 256K the superiority of the hybrid protocol is clear on the LAN",
	14: "at 256K the hybrid protocol reduces WAN transfer costs by as much as ~70%",
}

// figure builds the Run function for one of Figures 9-14: time to
// disseminate replicas of the figure's size to 1..MaxSites hosts, under
// the basic (MNet-only) protocol and the hybrid protocol.
func figure(num int) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) {
		cfg = cfg.WithDefaults()
		spec := specFor(num)

		basic, err := disseminationSeries(cfg, spec, core.ModeMNet)
		if err != nil {
			return Result{}, fmt.Errorf("fig%d basic: %w", num, err)
		}
		hybrid, err := disseminationSeries(cfg, spec, core.ModeHybrid)
		if err != nil {
			return Result{}, fmt.Errorf("fig%d hybrid: %w", num, err)
		}

		table := stats.NewTable("sites", "basic mocha (ms)", "hybrid (ms)", "winner")
		var notes []string
		for k := 1; k <= cfg.MaxSites; k++ {
			b, hy := basic[k-1], hybrid[k-1]
			winner := "basic"
			if hy.mean() < b.mean() {
				winner = "hybrid"
			}
			table.AddRow(k, stats.Millis(b.mean()), stats.Millis(hy.mean()), winner)
		}
		last := cfg.MaxSites
		b, hy := basic[last-1], hybrid[last-1]
		if hy.mean() < b.mean() {
			notes = append(notes, fmt.Sprintf("hybrid reduces cost by %.0f%% at %d sites",
				100*(1-float64(hy.mean())/float64(b.mean())), last))
		} else {
			notes = append(notes, fmt.Sprintf("basic protocol is %.0f%% cheaper at %d sites",
				100*(1-float64(b.mean())/float64(hy.mean())), last))
		}
		if len(basic) >= 2 && basic[0].mean() > 0 {
			notes = append(notes, fmt.Sprintf("basic protocol 1->2 sites scales by %.2fx",
				float64(basic[1].mean())/float64(basic[0].mean())))
		}

		return Result{
			ID:    fmt.Sprintf("fig%d", num),
			Title: fmt.Sprintf("%s transfer of %dK replicas to multiple hosts", spec.e.name, spec.sizeK),
			Paper: figPaper[num],
			Table: table.String(),
			Notes: notes,
		}, nil
	}
}

// sampleView pairs a sample with its convenience accessor for table
// building.
type sampleView struct {
	s *obs.Sample
}

func (v *sampleView) mean() time.Duration { return v.s.Mean() }

// disseminationSeries measures push dissemination of a sizeK replica to
// k = 1..MaxSites sites under one protocol. Marshaling happens outside the
// timed region (the paper measures it separately, Figure 8); the timed
// region is the transfer itself, from first control message to the last
// site's application acknowledgment.
func disseminationSeries(cfg Config, spec figSpec, mode core.TransferMode) ([]*sampleView, error) {
	return disseminationSeriesOpts(cfg, spec, mode, harnessOpts{})
}

// disseminationSeriesOpts is disseminationSeries with harness feature
// switches (used by the ablations).
func disseminationSeriesOpts(cfg Config, spec figSpec, mode core.TransferMode, ho harnessOpts) ([]*sampleView, error) {
	h, err := newHarnessOpts(cfg, spec.e, mode, cfg.MaxSites+1, ho)
	if err != nil {
		return nil, err
	}
	defer func() { _ = h.Close() }()

	ctx, cancel := benchCtx()
	defer cancel()
	lock := wire.LockID(2)
	if _, err := h.setupSharedReplica(ctx, lock, "payload", spec.sizeK*1024); err != nil {
		return nil, err
	}
	home := h.nodes[wire.HomeSite]

	out := make([]*sampleView, 0, cfg.MaxSites)
	for k := 1; k <= cfg.MaxSites; k++ {
		targets := make([]wire.SiteID, 0, k)
		for i := 0; i < k; i++ {
			targets = append(targets, wire.SiteID(i+2))
		}
		s := &obs.Sample{}
		for i := 0; i < h.cfg.Trials+1; i++ {
			version, payloads, err := home.PreparePush(lock)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := home.PushPayloads(ctx, lock, version, payloads, targets); err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if i == 0 {
				continue // warmup
			}
			s.Add(h.deScale(elapsed))
		}
		out = append(out, &sampleView{s: s})
	}
	return out, nil
}
