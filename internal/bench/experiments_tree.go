package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mocha/internal/check"
	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/stats"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// The dissemination-tree ablation measures what the locality-aware relay
// overlay (DESIGN S33) buys at wide-area scale: hundreds of sites spread
// over a regional WAN geography share one update-mode replica, and every
// release must push the new version to all of them. The flat leg is the
// paper's baseline — the releaser pushes once per sharer, so O(sharers)
// replica-sized frames serialize through one uplink. The tree leg probes
// the cluster once to seed the overlay's RTT map from the acquire spans
// the observability plane already records, then releases through the
// relay tree: one push per locality bucket, re-fanned over cheap local
// links by the bucket relays. Both legs run the entry-consistency history
// checker, so a latency win that loses versions cannot pass.

// treeProbeWave bounds how many sites probe the home concurrently. The
// probe's request RTT doubles as the overlay's geography signal, so waves
// stay small enough that reply serialization on the home uplink cannot
// smear one region's RTT into the next bucket, and well under the obs
// span ring (256) that SeedFromSpans reads between waves.
const treeProbeWave = 16

// treeParams is the shape of one tree-ablation run.
type treeParams struct {
	sites    int // cluster size including the home/releasing site
	regions  int // locality clusters in the simulated WAN geography
	payload  int // replica size in bytes
	releases int // measured release cycles per leg (after one warmup)
}

// treeParams fills defaults: the ISSUE's floor of 200 sites across 8
// regions pushing a 4K replica.
func (c Config) treeParams() treeParams {
	tp := treeParams{sites: c.TreeSites, regions: c.TreeRegions, payload: 4096, releases: c.Trials}
	if tp.sites <= 1 {
		tp.sites = 200
	}
	if tp.regions <= 0 {
		tp.regions = 8
	}
	if tp.releases <= 0 {
		tp.releases = 3
	}
	return tp
}

// treeLegResult is one leg's measurement.
type treeLegResult struct {
	release      *obs.Sample // release-to-last-apply (Unlock wall time)
	uplinkPushes int64       // dissemination frames out of the releaser, measured window
	probeSamples int         // RTT samples absorbed by the overlay (tree leg)
	relayPushes  int64
	relayAcks    int64
	relayFanout  int64
	fallbacks    int64
	buckets      int64
	histEvents   int
}

// pushesPerRelease is the measured-window uplink cost of one release.
func (r treeLegResult) pushesPerRelease(releases int) float64 {
	if releases == 0 {
		return 0
	}
	return float64(r.uplinkPushes) / float64(releases)
}

// AblateTree runs the regional-WAN release workload over both
// dissemination strategies and reports uplink cost and release latency
// side by side.
func AblateTree(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	tp := cfg.treeParams()

	flat, err := treeLeg(cfg, tp, false)
	if err != nil {
		return Result{}, fmt.Errorf("tree flat leg: %w", err)
	}
	tree, err := treeLeg(cfg, tp, true)
	if err != nil {
		return Result{}, fmt.Errorf("tree relay leg: %w", err)
	}

	table := stats.NewTable("leg", "pushes/release", "release mean", "release max", "fallbacks")
	table.AddRow("flat fan-out (ablation)",
		fmt.Sprintf("%.1f", flat.pushesPerRelease(tp.releases)),
		stats.Millis(flat.release.Mean()), stats.Millis(flat.release.Max()), "-")
	table.AddRow("relay tree",
		fmt.Sprintf("%.1f", tree.pushesPerRelease(tp.releases)),
		stats.Millis(tree.release.Mean()), stats.Millis(tree.release.Max()),
		fmt.Sprintf("%d", tree.fallbacks))

	speedup := 0.0
	if tree.release.Mean() > 0 {
		speedup = float64(flat.release.Mean()) / float64(tree.release.Mean())
	}

	metrics := map[string]float64{
		"sites":                   float64(tp.sites),
		"regions":                 float64(tp.regions),
		"payload_bytes":           float64(tp.payload),
		"releases":                float64(tp.releases),
		"flat_pushes_per_release": flat.pushesPerRelease(tp.releases),
		"tree_pushes_per_release": tree.pushesPerRelease(tp.releases),
		"flat_release_ms":         float64(flat.release.Mean()) / float64(time.Millisecond),
		"tree_release_ms":         float64(tree.release.Mean()) / float64(time.Millisecond),
		"speedup_x":               speedup,
		"tree_relay_pushes":       float64(tree.relayPushes),
		"tree_relay_acks":         float64(tree.relayAcks),
		"tree_relay_fanout":       float64(tree.relayFanout),
		"tree_relay_fallbacks":    float64(tree.fallbacks),
		"tree_buckets":            float64(tree.buckets),
		"tree_probe_samples":      float64(tree.probeSamples),
	}

	notes := []string{
		fmt.Sprintf("%d sites in %d regions, %dB replica, %d measured releases per leg",
			tp.sites, tp.regions, tp.payload, tp.releases),
		fmt.Sprintf("releaser uplink: %.1f pushes/release flat (O(sharers)) vs %.1f with the relay tree (O(regions), %d buckets planned)",
			flat.pushesPerRelease(tp.releases), tree.pushesPerRelease(tp.releases), tree.buckets),
		fmt.Sprintf("release-to-last-apply %.2fx faster through the relay tree", speedup),
		"entry-consistency history checker passed on both legs",
	}

	return Result{
		ID:      "ablate-tree",
		Title:   "Ablation: locality-aware dissemination relay tree",
		Paper:   "the paper's release pushes the new version directly to every update replica (Section 4); over a regional WAN that serializes O(sharers) frames through one uplink, and this ablation measures what relay-tree dissemination recovers",
		Table:   table.String(),
		Notes:   notes,
		Metrics: metrics,
	}, nil
}

// treeLeg builds a regional-WAN cluster, drives the release workload, and
// tears down, verifying the recorded history. tree selects the relay
// overlay; false is the flat fan-out ablation baseline.
func treeLeg(cfg Config, tp treeParams, tree bool) (treeLegResult, error) {
	const seed = 424242
	workers := tp.sites - 1
	geo := netsim.RegionalWAN(tp.regions).Scaled(cfg.Scale)

	// The geography's per-link overrides carry the region structure,
	// jitter included: each hop wobbles within its own profile's range
	// (LAN links by ~100µs, backbone hops by up to 2ms — see
	// netsim.RegionalWAN), and the overlay's RTT buckets are sized to
	// absorb it. The default profile only covers links the geography
	// doesn't override.
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: seed})
	defer func() { _ = sim.Close() }()

	reg := obs.NewRegistry()
	reg.SetClock(sim.Clock())
	// Each release lands a handful of history events per site (push send,
	// apply, release), plus registration and probe traffic up front.
	rec := check.NewRecorder(16*tp.sites*(tp.releases+2)+8192, sim.Clock())

	directory := make(map[wire.SiteID]string, tp.sites)
	stacks := make(map[wire.SiteID]*transport.SimStack, tp.sites)
	ids := make([]netsim.NodeID, 0, tp.sites)
	for i := 1; i <= tp.sites; i++ {
		site := wire.SiteID(i)
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			return treeLegResult{}, err
		}
		stacks[site] = stack
		directory[site] = stack.Datagram().LocalAddr()
		ids = append(ids, netsim.NodeID(i))
	}
	geo.Apply(sim.Underlying(), ids)

	nodes := make(map[wire.SiteID]*core.Node, tp.sites)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for i := 1; i <= tp.sites; i++ {
		site := wire.SiteID(i)
		ep := mnet.NewEndpoint(stacks[site].Datagram(), mnet.Config{
			Cost:    netsim.Native(),
			Metrics: reg,
			// The flat leg deliberately saturates the releaser's uplink for
			// >1s per release; a generous RTO keeps queueing delay from
			// triggering spurious retransmits that would muddy the
			// comparison.
			RTO:        2 * time.Second,
			MaxRetries: 8,
			Window:     1024,
			QueueLen:   8192,
		})
		node, err := core.NewNode(core.Config{
			Site:              site,
			Endpoint:          ep,
			Stack:             stacks[site],
			Directory:         directory,
			IsHome:            site == wire.HomeSite,
			Codec:             marshal.NewFast(netsim.Native()),
			Cost:              netsim.Native(),
			Mode:              core.ModeMNet,
			DisseminationTree: tree,
			TreeMinSharers:    2,
			RequestTimeout:    30 * time.Second,
			TransferTimeout:   60 * time.Second,
			Log:               eventlog.Nop(),
			Metrics:           reg,
			History:           rec,
		})
		if err != nil {
			return treeLegResult{}, err
		}
		nodes[site] = node
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	home := nodes[wire.HomeSite]

	// Shared replica: created at home, attached everywhere, update mode so
	// every release pushes the version to all sharers.
	hnd := home.NewHandle("tree-home")
	r, err := home.CreateReplica("tree-data", marshal.Bytes(make([]byte, tp.payload)), tp.sites)
	if err != nil {
		return treeLegResult{}, err
	}
	rl := hnd.ReplicaLock(1)
	if err := rl.Associate(ctx, r); err != nil {
		return treeLegResult{}, err
	}
	setupErrs := make(chan error, workers)
	var setupWG sync.WaitGroup
	probes := make(map[wire.SiteID]*core.ReplicaLock, workers)
	var probeMu sync.Mutex
	for w := 0; w < workers; w++ {
		site := wire.SiteID(w + 2)
		setupWG.Add(1)
		go func(site wire.SiteID) {
			defer setupWG.Done()
			node := nodes[site]
			whnd := node.NewHandle(fmt.Sprintf("tree-%d", site))
			wr, err := node.AttachReplica("tree-data", marshal.Bytes(nil))
			if err != nil {
				setupErrs <- err
				return
			}
			if err := whnd.ReplicaLock(1).Associate(ctx, wr); err != nil {
				setupErrs <- err
				return
			}
			if !tree {
				return
			}
			// A private probe lock per site: acquiring it measures this
			// site's request RTT to the home, the geography signal the
			// overlay buckets by.
			pr, err := node.CreateReplica(fmt.Sprintf("probe-%d", site), marshal.Bytes([]byte("p")), 1)
			if err != nil {
				setupErrs <- err
				return
			}
			prl := whnd.ReplicaLock(wire.LockID(10000 + int(site)))
			if err := prl.Associate(ctx, pr); err != nil {
				setupErrs <- err
				return
			}
			probeMu.Lock()
			probes[site] = prl
			probeMu.Unlock()
		}(site)
	}
	setupWG.Wait()
	select {
	case err := <-setupErrs:
		return treeLegResult{}, fmt.Errorf("site setup: %w", err)
	default:
	}
	// Let replica registrations land at the synchronization thread.
	time.Sleep(500 * time.Millisecond)

	var res treeLegResult
	if tree {
		// Probe in small waves: each wave's sites acquire their private
		// lock in parallel, then the wave's acquire spans — still in the
		// obs span ring — seed the home's overlay tracker before the next
		// wave overwrites the ring.
		tracker := home.OverlayTracker()
		sites := make([]wire.SiteID, 0, workers)
		for s := range probes {
			sites = append(sites, s)
		}
		for lo := 0; lo < len(sites); lo += treeProbeWave {
			hi := lo + treeProbeWave
			if hi > len(sites) {
				hi = len(sites)
			}
			wave := sites[lo:hi]
			errs := make(chan error, len(wave))
			var wg sync.WaitGroup
			for _, s := range wave {
				wg.Add(1)
				go func(prl *core.ReplicaLock) {
					defer wg.Done()
					if err := prl.Lock(ctx); err != nil {
						errs <- err
					}
				}(probes[s])
			}
			wg.Wait()
			select {
			case err := <-errs:
				return treeLegResult{}, fmt.Errorf("probe wave: %w", err)
			default:
			}
			res.probeSamples += overlay.SeedFromSpans(tracker, reg.Spans())
			for _, s := range wave {
				wg.Add(1)
				go func(prl *core.ReplicaLock) {
					defer wg.Done()
					_ = prl.Unlock(ctx)
				}(probes[s])
			}
			wg.Wait()
		}
		if res.probeSamples < workers {
			return res, fmt.Errorf("overlay absorbed %d probe samples, want >= %d (span plumbing broken?)", res.probeSamples, workers)
		}
	}

	// Release workload: one warmup (first push has no version at the
	// sharers and warms every path), then the measured cycles.
	rl.SetUpdateReplicas(tp.sites)
	data := rl.Replicas()[0].Content()
	res.release = &obs.Sample{}
	for i := 0; i <= tp.releases; i++ {
		if err := rl.Lock(ctx); err != nil {
			return res, fmt.Errorf("release %d lock: %w", i, err)
		}
		data.BytesData()[0] = byte(i + 1)
		upBefore := home.DisseminationUplinkSends()
		start := time.Now()
		if err := rl.Unlock(ctx); err != nil {
			return res, fmt.Errorf("release %d unlock: %w", i, err)
		}
		if i > 0 {
			res.release.Add(time.Duration(float64(time.Since(start)) / cfg.Scale))
			res.uplinkPushes += home.DisseminationUplinkSends() - upBefore
		}
	}

	res.relayPushes = reg.CounterValue(obs.CRelayPushes)
	res.relayAcks = reg.CounterValue(obs.CRelayAcks)
	res.relayFanout = reg.CounterValue(obs.CRelayFanout)
	res.fallbacks = reg.CounterValue(obs.CRelayFallbacks)
	res.buckets = reg.GaugeValue(obs.GRelayBuckets)

	// A leg that never exercised its dissemination strategy is a broken
	// harness, not a fast one.
	if res.release.N() == 0 || res.uplinkPushes == 0 {
		return res, fmt.Errorf("leg recorded no dissemination pushes")
	}
	if tree && (res.relayPushes == 0 || res.relayAcks == 0) {
		return res, fmt.Errorf("tree leg recorded no relay pushes/acks (overlay not engaged?)")
	}
	if !tree && res.relayPushes != 0 {
		return res, fmt.Errorf("flat leg recorded %d relay pushes (ablation not isolated)", res.relayPushes)
	}

	// Quiesce, then replay the history through the entry-consistency
	// checker: a fast release that lost a version is worthless.
	for _, n := range nodes {
		_ = n.Close()
	}
	nodes = map[wire.SiteID]*core.Node{}
	if d := rec.Dropped(); d > 0 {
		return res, fmt.Errorf("history recorder overflowed by %d events; raise its capacity", d)
	}
	events := rec.Events()
	res.histEvents = len(events)
	if v := check.Check(events); v != nil {
		return res, fmt.Errorf("entry-consistency violation: %v", v)
	}
	return res, nil
}
