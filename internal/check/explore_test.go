package check_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// TestMain raises the default subtest parallelism: an explorer seed spends
// nearly all its wall time waiting on protocol timers, not the CPU, so the
// GOMAXPROCS-derived default serializes the seeds on small machines for no
// benefit. An explicit -test.parallel flag still wins.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.parallel"); f != nil &&
		f.Value.String() == strconv.Itoa(runtime.GOMAXPROCS(0)) {
		_ = f.Value.Set("10")
	}
	os.Exit(m.Run())
}

// seedFlag replays exactly one baseline explorer seed:
//
//	go test ./internal/check -run 'TestExplore$' -seed=<s>
//
// The seed deterministically derives the cluster shape, network loss and
// jitter, the workload, and the fault schedule, so a replay re-injects the
// same faults at the same named fault points.
var seedFlag = flag.Int64("seed", -1, "replay a single explorer seed")

// scheduleFlag replays one encoded schedule — the token a failing guided
// run prints. Unlike -seed, it reproduces mutated schedules: extra fault
// occurrences, one-way cuts, lease skew, burst loss, timed victims.
//
//	go test ./internal/check -run TestExploreGuided -schedule=<token>
var scheduleFlag = flag.String("schedule", "", "replay one encoded fault schedule")

// exploreFlag sets the coverage-guided session's time budget (make explore
// passes 60s; the default keeps ordinary test runs quick).
var exploreFlag = flag.Duration("explore", 0, "coverage-guided exploration time budget")

// exploreSeeds is how many consecutive seeds one full TestExplore run
// covers, starting from MOCHA_TEST_SEED (default 1000).
const exploreSeeds = 20

// runConfig is everything one seed derives.
type runConfig struct {
	sites     int
	locks     int
	workers   int // per site
	ops       int // per worker
	ur        int
	profile   netsim.Profile
	mode      core.TransferMode
	delta     bool
	fanout    int
	placement bool
	netSeed   int64
	// wlSeed pins the workload rng to a fixed seed regardless of the
	// schedule seed; 0 derives it from the schedule as usual. The
	// guided-vs-baseline comparison sets it so the two strategies differ
	// only in their fault schedules, not in what the application does.
	wlSeed int64
}

// Derivation salts: each aspect of a run draws from its own stream so that,
// e.g., adding a fault point never perturbs the workload of existing seeds.
const (
	saltNetwork   = 1
	saltFaults    = 2
	saltShape     = 3
	saltPlacement = 4
	saltWorkload  = 100
)

func deriveConfig(seed int64) runConfig {
	rng := rand.New(rand.NewSource(netsim.DeriveSeed(seed, saltShape)))
	cfg := runConfig{
		sites:   3 + rng.Intn(3),
		locks:   1 + rng.Intn(3),
		workers: 1 + rng.Intn(2),
		ops:     3 + rng.Intn(4),
		netSeed: netsim.DeriveSeed(seed, saltNetwork),
	}
	cfg.ur = 1 + rng.Intn(cfg.sites)
	cfg.profile = netsim.Perfect()
	if rng.Intn(2) == 0 {
		cfg.profile.Loss = rng.Float64() * 0.03
	}
	cfg.profile.Jitter = time.Duration(rng.Intn(3)) * time.Millisecond
	cfg.mode = core.ModeMNet
	if rng.Intn(3) == 0 {
		cfg.mode = core.ModeHybrid
	}
	cfg.delta = rng.Intn(2) == 0
	cfg.fanout = rng.Intn(3)
	// Placement draws from its own stream so turning the option on for half
	// the seeds did not reshuffle any existing seed's shape or workload.
	prng := rand.New(rand.NewSource(netsim.DeriveSeed(seed, saltPlacement)))
	cfg.placement = prng.Intn(2) == 0
	return cfg
}

// faultPlan is a fault schedule over the named fault-point registry: for
// each point, the occurrence indices (0-based, per point) at which it
// fires. A replay of the same schedule counts occurrences the same way and
// so re-injects the same faults.
type faultPlan struct {
	fires map[core.FaultPoint]map[int]bool
	delay time.Duration // poll-reply delay, may exceed the request timeout
}

func deriveFaults(seed int64) *faultPlan {
	rng := rand.New(rand.NewSource(netsim.DeriveSeed(seed, saltFaults)))
	p := &faultPlan{fires: make(map[core.FaultPoint]map[int]bool)}
	for _, fp := range core.FaultPoints() {
		occs := make(map[int]bool)
		for n := rng.Intn(3); n > 0; n-- {
			// Early occurrences only: a point's first firings are reached in
			// nearly every run, so a derived plan's behavior is repeatable.
			// Deep occurrence indices (3-5) are mutation-only territory.
			occs[rng.Intn(3)] = true
		}
		p.fires[fp] = occs
	}
	p.delay = time.Duration(50+rng.Intn(500)) * time.Millisecond
	return p
}

// pointNames lists the fault-point registry for the generic session layer.
func pointNames() []string {
	pts := core.FaultPoints()
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = string(p)
	}
	return out
}

// materialize fills a pure-seed schedule's derived fault plan into its
// explicit fields, so corpus entries carry the plan their run actually used
// and mutations perturb that plan instead of silently discarding it.
// Schedules that already spell out their fires pass through unchanged.
func materialize(s check.Schedule) check.Schedule {
	if s.Fires != nil {
		return s
	}
	plan := deriveFaults(s.Seed)
	s.Fires = make(map[string][]int)
	for fp, occs := range plan.fires {
		if len(occs) > 0 {
			s.Fires[string(fp)] = keys(occs)
		}
	}
	s.DelayMS = int(plan.delay / time.Millisecond)
	return s
}

// planFromSchedule converts a materialized schedule's fires back into the
// hook-side plan.
func planFromSchedule(s check.Schedule) *faultPlan {
	p := &faultPlan{fires: make(map[core.FaultPoint]map[int]bool)}
	for name, occs := range s.Fires {
		m := make(map[int]bool, len(occs))
		for _, o := range occs {
			m[o] = true
		}
		p.fires[core.FaultPoint(name)] = m
	}
	p.delay = time.Duration(s.DelayMS) * time.Millisecond
	if p.delay <= 0 {
		p.delay = 50 * time.Millisecond
	}
	return p
}

func (p *faultPlan) String() string {
	s := ""
	for _, fp := range core.FaultPoints() {
		occs := p.fires[fp]
		if len(occs) == 0 {
			continue
		}
		s += fmt.Sprintf("  %s at occurrences %v\n", fp, keys(occs))
	}
	if s == "" {
		s = "  (no faults scheduled)\n"
	}
	return s + fmt.Sprintf("  poll delay %v", p.delay)
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := 0; i < 8; i++ {
		if m[i] {
			out = append(out, i)
		}
	}
	return out
}

// explorer runs one schedule's randomized multi-site workload under its
// fault plan, recording the history for the checker and streaming it
// through an online monitor.
type explorer struct {
	t     *testing.T
	sched check.Schedule
	cfg   runConfig
	plan  *faultPlan

	sn    *transport.SimNetwork
	rec   *check.Recorder
	mon   *check.Monitor
	nodes map[wire.SiteID]*core.Node
	ctx   context.Context

	mu     sync.Mutex
	counts map[core.FaultPoint]int
	fired  []string
	killed map[wire.SiteID]bool
	kills  int
	doomed map[wire.ThreadID]bool
}

// newExplorer builds the cluster. Fault injection is armed only after the
// workload starts; setup runs fault-free.
func newExplorer(t *testing.T, sched check.Schedule, cfg runConfig, plan *faultPlan) *explorer {
	t.Helper()
	if sched.BurstLoss > 0 {
		cfg.profile.BurstLoss = sched.BurstLoss
		cfg.profile.BurstLen = sched.BurstLen
	}
	sn := transport.NewSimNetwork(netsim.Config{Profile: cfg.profile, Seed: cfg.netSeed})
	e := &explorer{
		t: t, sched: sched, cfg: cfg, plan: plan,
		sn:     sn,
		rec:    check.NewRecorder(0, sn.Clock()),
		mon:    check.NewMonitor(0),
		nodes:  make(map[wire.SiteID]*core.Node, cfg.sites),
		counts: make(map[core.FaultPoint]int),
		killed: make(map[wire.SiteID]bool),
		doomed: make(map[wire.ThreadID]bool),
	}
	e.mon.SetReplay(fmt.Sprintf("go test ./internal/check -run TestExploreGuided -schedule=%s", sched.Encode()))
	directory := make(map[wire.SiteID]string, cfg.sites)
	stacks := make(map[wire.SiteID]*transport.SimStack, cfg.sites)
	for i := 1; i <= cfg.sites; i++ {
		stack, err := sn.NewStack(netsim.NodeID(i))
		if err != nil {
			t.Fatalf("stack %d: %v", i, err)
		}
		stacks[wire.SiteID(i)] = stack
		directory[wire.SiteID(i)] = stack.Datagram().LocalAddr()
	}
	for i := 1; i <= cfg.sites; i++ {
		site := wire.SiteID(i)
		var skew time.Duration
		for _, sk := range sched.Skews {
			if wire.SiteID(sk.Site) == site {
				skew = time.Duration(sk.MS) * time.Millisecond
			}
		}
		ep := mnet.NewEndpoint(stacks[site].Datagram(), mnet.Config{RTO: 25 * time.Millisecond, MaxRetries: 4})
		node, err := core.NewNode(core.Config{
			Site:                site,
			Endpoint:            ep,
			Stack:               stacks[site],
			Directory:           directory,
			IsHome:              site == wire.HomeSite,
			HomePlacement:       cfg.placement,
			Mode:                cfg.mode,
			DeltaTransfer:       cfg.delta,
			DisseminationFanout: cfg.fanout,
			RequestTimeout:      300 * time.Millisecond,
			TransferTimeout:     time.Second,
			DefaultLease:        500 * time.Millisecond,
			LeaseSweep:          25 * time.Millisecond,
			LeaseSkew:           skew,
			Log:                 eventlog.New(1 << 14),
			History:             check.MultiSink(e.rec, e.mon),
			FaultHook:           e.hook,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		e.nodes[site] = node
	}
	return e
}

func (e *explorer) hook(fc core.FaultContext) core.FaultDecision {
	e.mu.Lock()
	if e.ctx == nil { // workload not started: setup runs fault-free
		e.mu.Unlock()
		return core.FaultDecision{}
	}
	n := e.counts[fc.Point]
	e.counts[fc.Point] = n + 1
	if !e.plan.fires[fc.Point][n] {
		e.mu.Unlock()
		return core.FaultDecision{}
	}
	e.fired = append(e.fired, fmt.Sprintf("%s occurrence %d: site=%d peer=%d lock=%d thread=%d v%d",
		fc.Point, n, fc.Site, fc.Peer, fc.Lock, fc.Thread, fc.Version))

	var d core.FaultDecision
	switch fc.Point {
	case core.FPDelayDaemonPoll:
		// Hold the poll reply back past the request timeout: the polling
		// recovery treats this daemon's copy as unavailable.
		d.Delay = e.plan.delay
	case core.FPDropMidTransfer:
		d.Drop = true
	case core.FPCrashBeforeGrant:
		// The requester crashes before its grant arrives.
		d.Drop = true
		e.killLocked(fc.Peer)
	case core.FPCrashAfterReleaseBeforePush:
		// The holder's site crashes after committing locally but before
		// pushing or releasing; the lease break must clean up.
		d.Drop = true
		e.killLocked(fc.Site)
	case core.FPKillLockHolder:
		// Only doom the holder if the kill budget allows actually removing
		// its site; the worker abandons the hold without unlocking.
		if e.killLocked(fc.Site) {
			e.doomed[fc.Thread] = true
		}
	case core.FPKillLockHome:
		// Kill the lock's home manager right after a grant left — the
		// window the standby failover must cover. Only meaningful under
		// home placement; in fixed mode the home is the surrogate tests'
		// subject and stays exempt.
		if e.cfg.placement {
			e.killLocked(fc.Site)
		}
	case core.FPDelayHandoff:
		// Stall a home migration's record send past the request timeout:
		// the old home must either unfreeze or commit with insurance.
		d.Delay = e.plan.delay
	case core.FPDropRelease:
		// The releaser's site dies with the pushes out and the release
		// still in its carriage — under placement, after Unlock returned.
		// Only when the site can really go: a live site answers the lease
		// probe, and a hold whose release was dropped would never break.
		d.Drop = e.killLocked(fc.Site)
	}
	e.mu.Unlock()
	return d
}

// killLocked fail-stops a site (asynchronously — the hook runs on protocol
// goroutines) if the budget allows. In fixed-home mode the home site
// survives every schedule: synchronization-thread failover is the
// surrogate tests' subject, not the explorer's. Under home placement every
// manager is fair game — standby promotion is exactly what is under test.
// Caller holds e.mu.
func (e *explorer) killLocked(site wire.SiteID) bool {
	if (site == wire.HomeSite && !e.cfg.placement) || site == 0 || int(site) > e.cfg.sites || e.killed[site] || e.kills >= 1 {
		return false
	}
	e.killed[site] = true
	e.kills++
	e.rec.Record(wire.HistoryEvent{Kind: wire.HistCrash, Site: site})
	node := e.nodes[site]
	go func() {
		_ = node.Close()
		e.sn.Kill(netsim.NodeID(site))
	}()
	return true
}

func (e *explorer) kill(site wire.SiteID) {
	e.mu.Lock()
	e.killLocked(site)
	e.mu.Unlock()
}

func (e *explorer) isKilled(site wire.SiteID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.killed[site]
}

func (e *explorer) isDoomed(t wire.ThreadID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.doomed[t]
}

// arm enables fault hooks and launches the schedule's timed fault
// dimensions: one-way cuts, the timed victim kill. Each armed dimension
// records its marker event up front, so the run's coverage provably
// contains the dimensions it ran under even when a timer lands after the
// workload drains.
func (e *explorer) arm(ctx context.Context) {
	e.mu.Lock()
	e.ctx = ctx
	e.mu.Unlock()

	net := e.sn.Underlying()
	for _, c := range e.sched.Cuts {
		if c.From == 0 || c.To == 0 || c.From == c.To ||
			int(c.From) > e.cfg.sites || int(c.To) > e.cfg.sites {
			continue
		}
		e.rec.Record(wire.HistoryEvent{
			Kind: wire.HistFault, Site: wire.SiteID(c.From),
			Sites: wire.NewSiteSet(wire.SiteID(c.To)),
			Note:  check.NoteOneWayPartition,
		})
		c := c
		go func() {
			time.Sleep(time.Duration(c.AfterMS) * time.Millisecond)
			net.PartitionOneWay(netsim.NodeID(c.From), netsim.NodeID(c.To), true)
			time.Sleep(time.Duration(c.ForMS) * time.Millisecond)
			net.PartitionOneWay(netsim.NodeID(c.From), netsim.NodeID(c.To), false)
			e.rec.Record(wire.HistoryEvent{
				Kind: wire.HistFault, Site: wire.SiteID(c.From),
				Sites: wire.NewSiteSet(wire.SiteID(c.To)),
				Note:  check.NoteOneWayHeal,
			})
		}()
	}
	for _, sk := range e.sched.Skews {
		if sk.Site == 0 || int(sk.Site) > e.cfg.sites {
			continue
		}
		e.rec.Record(wire.HistoryEvent{
			Kind: wire.HistFault, Site: wire.SiteID(sk.Site),
			Note: check.NoteLeaseSkew,
		})
	}
	if e.sched.BurstLoss > 0 {
		e.rec.Record(wire.HistoryEvent{Kind: wire.HistFault, Note: check.NoteBurstLoss})
	}
	if v := e.sched.Victim; v != 0 && int(v) <= e.cfg.sites {
		go func() {
			time.Sleep(time.Duration(e.sched.VictimAfterMS) * time.Millisecond)
			e.kill(wire.SiteID(v))
		}()
	}
}

func lockName(l int) string    { return fmt.Sprintf("obj%d", l) }
func lockID(l int) wire.LockID { return wire.LockID(100 + l) }
func settle(d time.Duration)   { time.Sleep(d) }

// setup creates every lock's replica at the home site and registers the
// sharer sites, fault-free.
func (e *explorer) setup(ctx context.Context) error {
	hc := e.nodes[wire.HomeSite].NewHandle("creator")
	for l := 0; l < e.cfg.locks; l++ {
		r, err := e.nodes[wire.HomeSite].CreateReplica(lockName(l), marshal.Ints([]int32{0, 0}), e.cfg.sites)
		if err != nil {
			return err
		}
		rl := hc.ReplicaLock(lockID(l))
		if err := rl.Associate(ctx, r); err != nil {
			return err
		}
	}
	settle(30 * time.Millisecond)
	return nil
}

// worker is one application thread: it associates with every lock, then
// runs a random mix of exclusive writes and shared reads. Operation errors
// end the worker — under injected faults, liveness is best-effort; safety
// is the checker's job.
func (e *explorer) worker(site wire.SiteID, idx int) {
	wseed := e.sched.Seed
	if e.cfg.wlSeed != 0 {
		wseed = e.cfg.wlSeed
	}
	rng := rand.New(rand.NewSource(netsim.DeriveSeed(wseed, saltWorkload+uint64(site)*8+uint64(idx))))
	node := e.nodes[site]
	h := node.NewHandle(fmt.Sprintf("w%d-%d", site, idx))

	rls := make([]*core.ReplicaLock, 0, e.cfg.locks)
	reps := make([]*core.Replica, 0, e.cfg.locks)
	for l := 0; l < e.cfg.locks; l++ {
		if e.isKilled(site) {
			return
		}
		r, err := node.AttachReplica(lockName(l), marshal.Ints(nil))
		if err != nil {
			return
		}
		rl := h.ReplicaLock(lockID(l))
		if err := rl.Associate(e.ctx, r); err != nil {
			return
		}
		rl.SetUpdateReplicas(e.cfg.ur)
		rls = append(rls, rl)
		reps = append(reps, r)
	}

	for op := 0; op < e.cfg.ops; op++ {
		if e.isKilled(site) || e.ctx.Err() != nil {
			return
		}
		l := rng.Intn(len(rls))
		rl, r := rls[l], reps[l]
		// Per-operation deadline: a worker whose grant a fault swallowed
		// gives up quickly instead of pinning the run on the global timeout.
		opCtx, cancel := context.WithTimeout(e.ctx, time.Second)
		ok := func() bool {
			if rng.Intn(3) == 0 {
				if err := rl.LockShared(opCtx); err != nil {
					return false
				}
				_ = r.Content().IntsData()
				if e.isDoomed(h.ID()) {
					return false // site is being killed; abandon the hold
				}
				return rl.Unlock(opCtx) == nil
			}
			if err := rl.Lock(opCtx); err != nil {
				return false
			}
			if e.isDoomed(h.ID()) {
				return false
			}
			data := r.Content().IntsData()
			if len(data) >= 2 {
				data[0]++
				data[1] = data[0] * 2
			}
			return rl.Unlock(opCtx) == nil
		}()
		cancel()
		if !ok {
			return
		}
	}
}

// run executes the schedule end to end and returns the recorded history.
func (e *explorer) run() []wire.HistoryEvent {
	defer func() {
		e.mu.Lock()
		var live []*core.Node
		for site, node := range e.nodes {
			if !e.killed[site] {
				live = append(live, node)
			}
		}
		e.mu.Unlock()
		// Closed outside e.mu: Close waits out the node's release carriage,
		// and a carriage goroutine (a late grant handed back, say) may be
		// inside the fault hook, waiting for e.mu.
		for _, node := range live {
			_ = node.Close()
		}
		_ = e.sn.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := e.setup(ctx); err != nil {
		// An aggressive mutated schedule (burst loss is live from the first
		// packet) can starve even replica registration. The faults winning
		// before the workload starts is a legitimate — boring — outcome:
		// verify whatever history exists instead of failing the run.
		e.t.Logf("schedule %s: setup aborted, faults won before workload start: %v", e.sched, err)
		settle(50 * time.Millisecond)
		return e.rec.Events()
	}

	// Arm fault injection (hooks fire only once e.ctx is set) and the
	// schedule's timed dimensions.
	e.arm(ctx)

	var wg sync.WaitGroup
	for i := 1; i <= e.cfg.sites; i++ {
		for w := 0; w < e.cfg.workers; w++ {
			site, w := wire.SiteID(i), w
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.worker(site, w)
			}()
		}
	}
	wg.Wait()
	// Let in-flight dissemination and lease housekeeping quiesce before the
	// nodes close, so the recorded history ends at a stable state.
	settle(50 * time.Millisecond)
	return e.rec.Events()
}

// runSchedule executes one (materialized) schedule, verifies it — online
// through the monitor, offline through the full-history checker, including
// the overflow gate — and returns the run's transition coverage. replayCmd
// is printed on failure; empty selects the -schedule token.
func runSchedule(t *testing.T, sched check.Schedule, cfg runConfig, replayCmd string) check.Coverage {
	t.Helper()
	if replayCmd == "" {
		replayCmd = fmt.Sprintf("go test ./internal/check -run TestExploreGuided -schedule=%s", sched.Encode())
	}
	plan := planFromSchedule(sched)
	e := newExplorer(t, sched, cfg, plan)
	events := e.run()

	e.mu.Lock()
	fired := append([]string(nil), e.fired...)
	e.mu.Unlock()
	t.Logf("schedule %s: %d sites, %d locks, %d workers/site, %d ops, UR=%d, mode=%v, delta=%v, fanout=%d, placement=%v, loss=%.3f, %d events, %d faults fired",
		sched, cfg.sites, cfg.locks, cfg.workers, cfg.ops, cfg.ur, cfg.mode, cfg.delta, cfg.fanout, cfg.placement, cfg.profile.Loss, len(events), len(fired))

	report := "  (none fired)"
	if len(fired) > 0 {
		report = "  " + fired[0]
		for _, f := range fired[1:] {
			report += "\n  " + f
		}
	}
	// The online monitor saw the same stream; its counterexample carries
	// the offending window and the replay token. A monitor that saw nothing
	// verified nothing.
	if e.mon.EventsSeen() == 0 {
		t.Fatalf("online monitor saw none of the %d recorded events: the sink is not wired", len(events))
	}
	if cx := e.mon.Err(); cx != nil {
		t.Fatalf("schedule violates entry consistency (caught online)\nschedule:\n%s\nfaults fired:\n%s\n\n%v",
			plan, report, cx)
	}
	// Offline pass over the recorder: redundant with the monitor for the
	// invariants, but also the overflow gate — a truncated history fails
	// the run rather than feeding a clipped coverage set to the corpus.
	if v := check.CheckRecorder(e.rec); v != nil {
		t.Fatalf("schedule violates entry consistency\nschedule:\n%s\nfaults fired:\n%s\nreplay: %s\n\n%v",
			plan, report, replayCmd, v)
	}
	return check.CoverageOf(events)
}

// runExplore executes one baseline seed and checks its history.
func runExplore(t *testing.T, seed int64) {
	sched := materialize(check.Schedule{Seed: seed})
	cfg := deriveConfig(seed)
	runSchedule(t, sched, cfg,
		fmt.Sprintf("go test ./internal/check -run 'TestExplore$' -seed=%d", seed))
}

// TestExplore runs the seeded fault-schedule explorer baseline: exploreSeeds
// consecutive seeds, each deriving its own cluster shape, network
// conditions, workload, and fault schedule, with the recorded history of
// every run verified online and offline. A failure prints the seed, the
// schedule, and the exact replay command.
func TestExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer")
	}
	if *seedFlag >= 0 {
		runExplore(t, *seedFlag)
		return
	}
	base := netsim.SeedFromEnv(1000)
	t.Logf("exploring seeds %d..%d (set %s to shift the window)", base, base+exploreSeeds-1, netsim.SeedEnv)
	for i := 0; i < exploreSeeds; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runExplore(t, seed)
		})
	}
}

// TestExploreGuided runs the coverage-guided session: a few baseline seeds
// prime the corpus, then mutations of whatever reached novel transition
// coverage — including the dimensions only the mutator can reach (one-way
// cuts, lease skew, loss bursts, timed victims). The budget is wall-clock
// (-explore, default 8s; make explore passes 60s) and the whole session
// honors MOCHA_TEST_SEED. With -schedule it instead replays one encoded
// schedule.
func TestExploreGuided(t *testing.T) {
	if *scheduleFlag != "" {
		sched, err := check.DecodeSchedule(*scheduleFlag)
		if err != nil {
			t.Fatal(err)
		}
		sched = materialize(sched)
		runSchedule(t, sched, deriveConfig(sched.Seed), "")
		return
	}
	if testing.Short() {
		t.Skip("explorer")
	}
	budget := *exploreFlag
	if budget <= 0 {
		budget = 8 * time.Second
	}
	seed := netsim.SeedFromEnv(1000)
	sess := check.NewSession(seed, pointNames(), 3, func(s int64) int { return deriveConfig(s).sites })
	deadline := time.Now().Add(budget)
	runs := 0
	for time.Now().Before(deadline) {
		sched := materialize(sess.Next())
		cov := runSchedule(t, sched, deriveConfig(sched.Seed), "")
		novel := sess.Report(sched, cov, false)
		runs++
		if novel > 0 {
			t.Logf("run %d admitted to corpus with %d novel transitions", runs, novel)
		}
	}
	c := sess.Corpus()
	t.Logf("guided session: %d runs in %v, %d corpus entries, %d transitions covered, signature %016x",
		runs, budget, len(c.Entries()), len(c.Coverage()), c.Coverage().Signature())
	if runs == 0 {
		t.Fatal("budget admitted zero runs")
	}
}

// TestCoverageGuidedBeatsBaseline pits the two strategies against each
// other under an equal run budget on one fixed small cluster shape, so the
// only variable is the fault schedule. The fixed-seed baseline draws
// independent derived schedules forever; the guided session primes on a few
// of the same and then mutates into the dimensions no derived schedule can
// reach. The guided corpus must cover strictly more transitions, and at
// least one mutation-only fault dimension must appear in it.
func TestCoverageGuidedBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer")
	}
	seed := netsim.SeedFromEnv(1000)
	const budget = 20   // runs per strategy (the historical 20-seed window)
	const baselines = 3 // guided session's priming prefix
	const batch = 5     // guided runs issued per corpus round

	smallCfg := func(s int64) runConfig {
		return runConfig{
			sites: 3, locks: 2, workers: 1, ops: 24, ur: 2,
			profile: netsim.Perfect(), mode: core.ModeMNet,
			netSeed: netsim.DeriveSeed(seed, saltNetwork),
			wlSeed:  seed,
		}
	}
	// Runs within a group are independent, so execute them as parallel
	// subtests; the enclosing t.Run is the barrier that waits for a group.
	runGroup := func(name string, scheds []check.Schedule) []check.Coverage {
		covs := make([]check.Coverage, len(scheds))
		t.Run(name, func(t *testing.T) {
			for i, sched := range scheds {
				i, sched := i, sched
				t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
					t.Parallel()
					covs[i] = runSchedule(t, sched, smallCfg(sched.Seed), "")
				})
			}
		})
		return covs
	}

	baseScheds := make([]check.Schedule, budget)
	baseTok := make(map[string]int, budget)
	for i := range baseScheds {
		baseScheds[i] = materialize(check.Schedule{Seed: seed + int64(i)})
		baseTok[baseScheds[i].Encode()] = i
	}
	baseCovs := runGroup("baseline", baseScheds)
	baseCov := make(check.Coverage)
	for _, cov := range baseCovs {
		baseCov.Merge(cov)
	}

	// The guided session runs in corpus rounds: issue a batch, run it in
	// parallel, fold the results back, repeat. Mutations in round N draw on
	// everything admitted through round N-1. When the session issues a
	// schedule identical to one of the baseline's (its fresh-seed issues
	// walk the same seed sequence), the baseline's measured coverage is
	// reused instead of re-running it: the same schedule IS the same run,
	// and re-executing it would only add scheduler noise to a comparison
	// whose point is the schedules themselves (common random numbers).
	sess := check.NewSession(seed, pointNames(), baselines, func(int64) int { return 3 })
	for issued, round := 0, 0; issued < budget; round++ {
		n := batch
		if budget-issued < n {
			n = budget - issued
		}
		scheds := make([]check.Schedule, n)
		covs := make([]check.Coverage, n)
		var toRun []check.Schedule
		var runIdx []int
		for j := range scheds {
			scheds[j] = materialize(sess.Next())
			if bi, ok := baseTok[scheds[j].Encode()]; ok {
				covs[j] = baseCovs[bi]
				continue
			}
			toRun = append(toRun, scheds[j])
			runIdx = append(runIdx, j)
		}
		for k, cov := range runGroup(fmt.Sprintf("guided-round%d", round), toRun) {
			covs[runIdx[k]] = cov
		}
		for j := range scheds {
			sess.Report(scheds[j], covs[j], false)
		}
		issued += n
	}
	guidedCov := sess.Corpus().Coverage()

	t.Logf("baseline: %d transitions over %d seeds; guided: %d transitions over %d runs (%d corpus entries)",
		len(baseCov), budget, len(guidedCov), budget, len(sess.Corpus().Entries()))

	// A mutation-only fault dimension must have entered the corpus: both as
	// a schedule using it and as its marker in the coverage set.
	dimmed := false
	for _, e := range sess.Corpus().Entries() {
		if len(e.Schedule.Dimensions()) > 0 {
			dimmed = true
		}
	}
	if !dimmed {
		t.Fatal("no mutated schedule with a new fault dimension was admitted to the corpus")
	}
	sawMarker := false
	for _, note := range []string{check.NoteOneWayPartition, check.NoteLeaseSkew, check.NoteBurstLoss} {
		k := check.DimensionKey(note)
		if _, ok := guidedCov[k]; ok {
			sawMarker = true
			if _, inBase := baseCov[k]; inBase {
				t.Errorf("baseline coverage contains the %s dimension, which no derived schedule can reach", note)
			}
		}
	}
	if !sawMarker {
		t.Fatal("guided coverage contains no mutation-only dimension marker")
	}
	if len(guidedCov) <= len(baseCov) {
		t.Fatalf("guided coverage (%d transitions) does not beat the %d-seed baseline (%d transitions)",
			len(guidedCov), budget, len(baseCov))
	}
}

// TestExploreReplayDeterminism runs one seed's workload twice under fully
// deterministic conditions — perfect network, no faults, strictly
// sequential operations — and requires byte-identical histories (by
// fingerprint) and identical transition signatures. This is the anchor for
// schedule replay: whatever a schedule's history fingerprints to, replaying
// it reproduces it.
//
// Both runs and their entry-consistency checks always execute; the
// comparison is quarantined unless -explore is given (make explore runs
// it). What still differs is where one event sits, not what it says: a
// site whose acquire carries the current version can still be granted
// NEEDNEWVERSION, the grantee proceeds on the copy it has without waiting
// for the redundant transfer, and that transfer's TRANSFER-SEND lands
// before or after the grantee's OBSERVE/PUBLISH/RELEASE (113 of 150 runs
// identical across GOMAXPROCS=1,2,8; 8 of the 37 diffs are a setup
// REGISTER/PUBLISH swap between two locks). The directive's source is
// fixed at the grant decision, so its content no longer varies — the
// self-transfer `TRANSFER-SEND site=3 v=3 -> 3` is gone (DESIGN.md §4
// "Failure model", ROADMAP item 1).
func TestExploreReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("explorer")
	}
	seed := netsim.SeedFromEnv(1000)
	run := func() (uint64, uint64) {
		cfg := runConfig{
			sites: 3, locks: 2, workers: 1, ops: 4, ur: 1,
			profile: netsim.Perfect(), mode: core.ModeMNet,
			netSeed: netsim.DeriveSeed(seed, saltNetwork),
		}
		plan := &faultPlan{fires: make(map[core.FaultPoint]map[int]bool)}
		e := newExplorer(t, check.Schedule{Seed: seed, Fires: map[string][]int{}}, cfg, plan)
		defer func() {
			for _, node := range e.nodes {
				_ = node.Close()
			}
			_ = e.sn.Close()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := e.setup(ctx); err != nil {
			t.Fatalf("setup: %v", err)
		}
		e.arm(ctx)
		// Strictly sequential: one worker at a time, with a settle between
		// them so every run interleaves identically.
		for i := 1; i <= cfg.sites; i++ {
			e.worker(wire.SiteID(i), 0)
			settle(20 * time.Millisecond)
		}
		if v := check.CheckRecorder(e.rec); v != nil {
			t.Fatalf("deterministic run violates entry consistency: %v", v)
		}
		return e.rec.Fingerprint(), e.rec.Signature()
	}
	fp1, sig1 := run()
	fp2, sig2 := run()
	t.Run("identical", func(t *testing.T) {
		if *exploreFlag == 0 {
			t.Skip("quarantined: a redundant transfer's TRANSFER-SEND floats against its grantee's OBSERVE/PUBLISH/RELEASE, e.g. #68 TRANSFER-SEND lock=101 site=1 v2 -> 3 | #68 RELEASE lock=101 site=3 v3 (ROADMAP item 1); pass -explore to enforce")
		}
		if fp1 != fp2 {
			t.Fatalf("same seed, different histories: %016x vs %016x", fp1, fp2)
		}
		if sig1 != sig2 {
			t.Fatalf("same seed, different transition signatures: %016x vs %016x", sig1, sig2)
		}
	})
}
