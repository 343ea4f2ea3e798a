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
	"mocha/internal/stats"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// The home-placement ablation measures the availability hole this PR
// closes: in the paper's design every lock is managed by the single home
// site, so a dead home strands its whole lock namespace until an operator
// snapshots state onto a surrogate by hand (core/surrogate.go is exactly
// that manual path). The placement leg spreads lock homes over a
// consistent-hash ring (DESIGN S34), streams each record to the home's
// standby, and lets the standby's monitor promote the shadows when
// the home dies — so the same kill leaves every lock acquirable with no
// operator in the loop. Both legs replay their recorded history through
// the entry-consistency checker: failover that resurrects stale holds or
// loses version floors cannot pass.

// homeParams is the shape of one home-ablation run.
type homeParams struct {
	sites int // cluster size; with placement on, also the ring size
	locks int // lock population spread over the ring
}

// homeParams fills defaults: 6 manager sites sharing 8 locks.
func (c Config) homeParams() homeParams {
	hp := homeParams{sites: c.HomeSites, locks: c.HomeLocks}
	if hp.sites < 3 {
		hp.sites = 6
	}
	if hp.locks < 1 {
		hp.locks = 8
	}
	return hp
}

// Failure-detection pacing for the leg's cluster: the standby monitor
// probes each home that streams to it once per sweep and needs
// three consecutive misses (each bounded by the request timeout), so a
// kill is detected and promoted in roughly 3 × homeReqTimeout.
const (
	homeReqTimeout = 1 * time.Second
	homeLeaseSweep = 250 * time.Millisecond
)

// homeLegResult is one leg's measurement.
type homeLegResult struct {
	total       int           // locks in the namespace
	victimLocks int           // locks homed at the killed site
	acquired    int           // locks acquirable from a survivor after the kill
	stranded    int           // locks no survivor could acquire
	retries     int           // extra acquire attempts spent across all locks
	promoteWait time.Duration // kill-to-promotion latency (zero for the fixed leg)
	promotions  int64
	standbyUpds int64
	migrations  int64
	redirects   int64
	histEvents  int
}

// AblateHome kills a lock-home site under both placement strategies and
// reports how much of the lock namespace survives.
func AblateHome(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	hp := cfg.homeParams()

	fixed, err := homeLeg(cfg, hp, false)
	if err != nil {
		return Result{}, fmt.Errorf("home fixed leg: %w", err)
	}
	ring, err := homeLeg(cfg, hp, true)
	if err != nil {
		return Result{}, fmt.Errorf("home placement leg: %w", err)
	}

	table := stats.NewTable("leg", "locks", "homed at victim", "acquirable after kill", "promotions", "detect+promote")
	table.AddRow("fixed home (paper)",
		fmt.Sprintf("%d", fixed.total), fmt.Sprintf("%d", fixed.victimLocks),
		fmt.Sprintf("%d", fixed.acquired), "-", "-")
	table.AddRow("ring placement + standby",
		fmt.Sprintf("%d", ring.total), fmt.Sprintf("%d", ring.victimLocks),
		fmt.Sprintf("%d", ring.acquired), fmt.Sprintf("%d", ring.promotions),
		fmt.Sprintf("%.1fs", ring.promoteWait.Seconds()))

	metrics := map[string]float64{
		"sites":                       float64(hp.sites),
		"locks":                       float64(hp.locks),
		"fixed_victim_homed_locks":    float64(fixed.victimLocks),
		"fixed_acquirable_after_kill": float64(fixed.acquired),
		"fixed_stranded_after_kill":   float64(fixed.stranded),
		"home_victim_homed_locks":     float64(ring.victimLocks),
		"home_acquirable_after_kill":  float64(ring.acquired),
		"home_stranded_after_kill":    float64(ring.stranded),
		"home_locks_total":            float64(ring.total),
		"standby_promotions":          float64(ring.promotions),
		"standby_updates":             float64(ring.standbyUpds),
		"home_migrations":             float64(ring.migrations),
		"home_redirects":              float64(ring.redirects),
		"home_promote_wait_s":         ring.promoteWait.Seconds(),
		"home_acquire_retries":        float64(ring.retries),
	}

	notes := []string{
		fmt.Sprintf("%d sites, %d locks; each leg kills one lock-home site after the locks are exercised",
			hp.sites, hp.locks),
		fmt.Sprintf("fixed home: %d/%d locks stranded after the home dies (no surrogate started)",
			fixed.stranded, fixed.total),
		fmt.Sprintf("ring placement: %d/%d locks acquirable after killing the site homing %d of them; standby promoted in %.1fs",
			ring.acquired, ring.total, ring.victimLocks, ring.promoteWait.Seconds()),
		"entry-consistency history checker passed on both legs",
	}

	return Result{
		ID:      "ablate-home",
		Title:   "Ablation: consistent-hash lock homes with standby failover",
		Paper:   "the paper manages every lock at the single home site (Section 3), so a dead home strands its locks until an operator hand-starts a surrogate; this ablation measures what ring placement with standby promotion recovers",
		Table:   table.String(),
		Notes:   notes,
		Metrics: metrics,
	}, nil
}

// homeLeg builds a cluster, spreads and exercises the lock population,
// kills one lock-home site, and measures how much of the namespace a
// survivor can still acquire. placement selects the consistent-hash
// mobile namespace; false is the paper's fixed-home baseline.
func homeLeg(cfg Config, hp homeParams, placement bool) (homeLegResult, error) {
	const seed = 7777
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.LANFastEthernet().Scaled(cfg.Scale), Seed: seed})
	defer func() { _ = sim.Close() }()

	reg := obs.NewRegistry()
	reg.SetClock(sim.Clock())
	rec := check.NewRecorder(64*hp.locks*hp.sites+8192, sim.Clock())

	directory := make(map[wire.SiteID]string, hp.sites)
	stacks := make(map[wire.SiteID]*transport.SimStack, hp.sites)
	for i := 1; i <= hp.sites; i++ {
		site := wire.SiteID(i)
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			return homeLegResult{}, err
		}
		stacks[site] = stack
		directory[site] = stack.Datagram().LocalAddr()
	}

	nodes := make(map[wire.SiteID]*core.Node, hp.sites)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for i := 1; i <= hp.sites; i++ {
		site := wire.SiteID(i)
		ep := mnet.NewEndpoint(stacks[site].Datagram(), mnet.Config{
			Cost:    netsim.Native(),
			Metrics: reg,
			// Short retransmission timing: the kill leaves mnet sends to the
			// victim dangling, and attempts must fail within the per-attempt
			// context rather than the default RTO ladder.
			RTO:        250 * time.Millisecond,
			MaxRetries: 4,
		})
		node, err := core.NewNode(core.Config{
			Site:            site,
			Endpoint:        ep,
			Stack:           stacks[site],
			Directory:       directory,
			IsHome:          site == wire.HomeSite,
			HomePlacement:   placement,
			Codec:           marshal.NewFast(netsim.Native()),
			Cost:            netsim.Native(),
			Mode:            core.ModeMNet,
			RequestTimeout:  homeReqTimeout,
			TransferTimeout: 10 * time.Second,
			DefaultLease:    30 * time.Second,
			LeaseSweep:      homeLeaseSweep,
			Log:             eventlog.Nop(),
			Metrics:         reg,
			History:         rec,
		})
		if err != nil {
			return homeLegResult{}, err
		}
		nodes[site] = node
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Pick the victim before wiring the workload: with placement on it is
	// the non-creator site homing the most locks (the worst survivable
	// kill); the fixed leg kills the home site itself — the kill the
	// paper's design cannot survive.
	lockIDs := make([]wire.LockID, hp.locks)
	for i := range lockIDs {
		lockIDs[i] = wire.LockID(101 + i)
	}
	var res homeLegResult
	res.total = hp.locks
	victim := wire.HomeSite
	if placement {
		bySite := nodes[wire.HomeSite].Ring().LocksOf(lockIDs)
		victim, res.victimLocks = 0, 0
		for i := 2; i <= hp.sites; i++ {
			if n := len(bySite[wire.SiteID(i)]); n > res.victimLocks {
				victim, res.victimLocks = wire.SiteID(i), n
			}
		}
		if victim == 0 {
			return res, fmt.Errorf("every lock hashed to site 1; grow the lock population past %d", hp.locks)
		}
	} else {
		res.victimLocks = hp.locks
	}

	// Per lock: a worker on some non-creator site exercises it once
	// (acquire, write, release), then a prober on a site guaranteed to
	// survive the kill acquires it once so its replica is up to date —
	// post-kill attempts then measure pure lock acquisition, not the data
	// path. With placement the prober lives at site 1 (victim ≠ 1); the
	// fixed leg probes from the worker site (victim = site 1).
	workers := make([]*core.ReplicaLock, hp.locks)
	probers := make([]*core.ReplicaLock, hp.locks)
	for i, lock := range lockIDs {
		name := fmt.Sprintf("home-data-%d", i)
		r, err := nodes[wire.HomeSite].CreateReplica(name, marshal.Bytes(make([]byte, 64)), hp.sites)
		if err != nil {
			return res, err
		}
		workSite := wire.SiteID(2 + i%(hp.sites-1))
		wr, err := nodes[workSite].AttachReplica(name, marshal.Bytes(nil))
		if err != nil {
			return res, err
		}
		// The creator's association registers the initial content as the
		// lock's first up-to-date version; without it the workers' attached
		// replicas have nothing to transfer.
		creator := nodes[wire.HomeSite].NewHandle(fmt.Sprintf("creator-%d", i)).ReplicaLock(lock)
		if err := creator.Associate(ctx, r); err != nil {
			return res, err
		}
		workers[i] = nodes[workSite].NewHandle(fmt.Sprintf("worker-%d", i)).ReplicaLock(lock)
		if err := workers[i].Associate(ctx, wr); err != nil {
			return res, err
		}
		if placement {
			probers[i] = creator
		} else {
			probers[i] = nodes[workSite].NewHandle(fmt.Sprintf("prober-%d", i)).ReplicaLock(lock)
			if err := probers[i].Associate(ctx, wr); err != nil {
				return res, err
			}
		}
	}
	// Let registrations (and their standby snapshots) land.
	time.Sleep(500 * time.Millisecond)

	for i := range lockIDs {
		if err := workers[i].Lock(ctx); err != nil {
			return res, fmt.Errorf("worker acquire lock %d: %w", lockIDs[i], err)
		}
		workers[i].Replicas()[0].Content().BytesData()[0] = byte(i + 1)
		if err := workers[i].Unlock(ctx); err != nil {
			return res, fmt.Errorf("worker release lock %d: %w", lockIDs[i], err)
		}
		if err := probers[i].Lock(ctx); err != nil {
			return res, fmt.Errorf("prober warm acquire lock %d: %w", lockIDs[i], err)
		}
		if err := probers[i].Unlock(ctx); err != nil {
			return res, fmt.Errorf("prober warm release lock %d: %w", lockIDs[i], err)
		}
	}

	// Fail-stop the victim.
	killedAt := time.Now()
	_ = nodes[victim].Close()
	sim.Kill(netsim.NodeID(victim))

	if placement {
		// Wait for the victim's standby to declare it dead and
		// promote the shadows (3 missed probes at the sweep cadence).
		deadline := time.Now().Add(30 * time.Second)
		for reg.CounterValue(obs.CStandbyPromotions) == 0 {
			if time.Now().After(deadline) {
				return res, fmt.Errorf("standby never promoted the dead home's locks within %s", time.Since(killedAt))
			}
			time.Sleep(50 * time.Millisecond)
		}
		res.promoteWait = time.Since(killedAt)
	}

	// Attempt every lock from its surviving prober. The placement leg
	// retries within a patience window (the HomeMoved broadcast races the
	// first attempt); the fixed leg gets one bounded attempt per lock —
	// with the home dead and no surrogate started, it can only time out.
	patience, attempt := time.Duration(0), 4*time.Second
	if placement {
		patience, attempt = 30*time.Second, 3*time.Second
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range lockIDs {
		wg.Add(1)
		go func(prl *core.ReplicaLock) {
			defer wg.Done()
			ok, tries := tryAcquire(prl, patience, attempt)
			mu.Lock()
			if ok {
				res.acquired++
			} else {
				res.stranded++
			}
			res.retries += tries - 1
			mu.Unlock()
		}(probers[i])
	}
	wg.Wait()

	res.promotions = reg.CounterValue(obs.CStandbyPromotions)
	res.standbyUpds = reg.CounterValue(obs.CStandbyUpdates)
	res.migrations = reg.CounterValue(obs.CHomeMigrations)
	res.redirects = reg.CounterValue(obs.CHomeRedirects)

	// A leg that does not show its strategy's availability signature is a
	// broken harness, not a result.
	if placement {
		if res.stranded != 0 {
			return res, fmt.Errorf("placement leg stranded %d/%d locks after killing site %d (homing %d)",
				res.stranded, res.total, victim, res.victimLocks)
		}
		if res.promotions == 0 {
			return res, fmt.Errorf("placement leg recovered without a standby promotion (victim homed no locks?)")
		}
	} else {
		if res.stranded != res.total {
			return res, fmt.Errorf("fixed leg acquired %d/%d locks with the home dead (stranding not reproduced)",
				res.acquired, res.total)
		}
	}

	// Quiesce, then replay the history through the entry-consistency
	// checker: failover that resurrects stale holds or loses version
	// floors must not count as availability.
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

// tryAcquire attempts one bounded Lock/Unlock cycle, retrying until the
// patience window closes. It reports success and the attempts spent.
func tryAcquire(prl *core.ReplicaLock, patience, attempt time.Duration) (bool, int) {
	deadline := time.Now().Add(patience)
	tries := 0
	for {
		tries++
		ctx, cancel := context.WithTimeout(context.Background(), attempt)
		err := prl.Lock(ctx)
		cancel()
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), attempt)
			_ = prl.Unlock(ctx)
			cancel()
			return true, tries
		}
		if time.Now().After(deadline) {
			return false, tries
		}
	}
}
