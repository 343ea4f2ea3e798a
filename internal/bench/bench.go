// Package bench implements the experiment harness that regenerates every
// table and figure in the paper's evaluation (Section 5), shared by
// cmd/benchmocha and the repository's testing.B benchmarks.
//
// Environments and execution costs come from the calibrated netsim
// profiles; the Scale knob runs the same calibrated experiments with all
// delays multiplied by a factor, so CI can exercise every experiment
// quickly while cmd/benchmocha defaults to full scale for paper-comparable
// numbers (reported values are de-scaled back to model time).
package bench

import (
	"context"
	"fmt"
	"time"

	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// Config controls a harness run.
type Config struct {
	// Scale multiplies every simulated delay and modelled cost. 1.0
	// reproduces the calibrated environment in real time.
	Scale float64
	// Trials is the number of measurements per data point (default 3).
	Trials int
	// MaxSites is the largest dissemination fan-out (default 6, matching
	// the paper's figures).
	MaxSites int

	// LoadSites, LoadLocks, LoadRate and LoadDuration shape the open-loop
	// load experiment ("load"): cluster size, lock population, offered
	// acquire/release pairs per second, and the arrival-generation window.
	// Zero values take the experiment's defaults (100 sites, 10k locks,
	// 3000 ops/s, 5s).
	LoadSites    int
	LoadLocks    int
	LoadRate     float64
	LoadDuration time.Duration

	// TreeSites and TreeRegions shape the dissemination-tree ablation
	// ("ablate-tree"): cluster size and the number of locality regions in
	// the simulated WAN geography. Zero values take the experiment's
	// defaults (200 sites, 8 regions).
	TreeSites   int
	TreeRegions int

	// HomeSites and HomeLocks shape the home-placement ablation
	// ("ablate-home"): cluster/ring size and the lock population spread
	// over it. Zero values take the experiment's defaults (6 sites, 8
	// locks).
	HomeSites int
	HomeLocks int

	// StoreSites and StoreLocks shape the durable-store ablation
	// ("ablate-store"): cluster size and the lock population the restarted
	// site owns. Zero values take the experiment's defaults (3 sites, 6
	// locks).
	StoreSites int
	StoreLocks int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.MaxSites <= 0 {
		c.MaxSites = 6
	}
	return c
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("table1", "fig9", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Paper states what the paper reports for this experiment.
	Paper string
	// Table is the formatted measurement output.
	Table string
	// Notes carries derived observations (ratios, crossovers).
	Notes []string
	// Metrics exposes the headline numbers for machine consumers
	// (benchmocha -json); keys are snake_case, values in the unit the
	// key names.
	Metrics map[string]float64 `json:",omitempty"`
}

// String renders the result for the console.
func (r Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\npaper: %s\n\n%s", r.ID, r.Title, r.Paper, r.Table)
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Experiment is a runnable harness entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Time to acquire a lock with no data transfer (Table 1)", Run: Table1},
		{ID: "fig8", Title: "Time to marshal replicas (Figure 8)", Run: Fig8},
		{ID: "fig9", Title: "LAN transfer of 1K replicas (Figure 9)", Run: figure(9)},
		{ID: "fig10", Title: "WAN transfer of 1K replicas (Figure 10)", Run: figure(10)},
		{ID: "fig11", Title: "LAN transfer of 4K replicas (Figure 11)", Run: figure(11)},
		{ID: "fig12", Title: "WAN transfer of 4K replicas (Figure 12)", Run: figure(12)},
		{ID: "fig13", Title: "LAN transfer of 256K replicas (Figure 13)", Run: figure(13)},
		{ID: "fig14", Title: "WAN transfer of 256K replicas (Figure 14)", Run: figure(14)},
		{ID: "app", Title: "Table-setting application consistency cost (Section 5.1)", Run: AppBreakdown},
		{ID: "smallmsg", Title: "MNet vs TCP for small messages (Section 5)", Run: SmallMessages},
		{ID: "ur", Title: "Availability cost: release cycle vs UR (Section 4 / Figure 12)", Run: URSweep},
		{ID: "cablemodem", Title: "Home-service environment: cable modem (conclusion's ongoing work)", Run: CableModemEnv},
		{ID: "ablate-marshal", Title: "Ablation: JDK 1.1 vs custom marshaling library", Run: AblateMarshal},
		{ID: "ablate-adaptive", Title: "Ablation: adaptive protocol selection", Run: AblateAdaptive},
		{ID: "ablate-reuse", Title: "Ablation: hybrid protocol with connection reuse", Run: AblateReuse},
		{ID: "ablate-fanout", Title: "Ablation: parallel dissemination fan-out", Run: AblateFanout},
		{ID: "load", Title: "Open-loop load at 100s of sites, with and without the online monitor", Run: AblateLoad},
		{ID: "ablate-tree", Title: "Ablation: locality-aware dissemination relay tree", Run: AblateTree},
		{ID: "ablate-home", Title: "Ablation: consistent-hash lock homes with standby failover", Run: AblateHome},
		{ID: "ablate-store", Title: "Ablation: durable replica store — crash recovery vs in-memory", Run: AblateStore},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// env is a named network environment.
type env struct {
	name    string
	profile netsim.Profile
}

func lanEnv() env { return env{name: "LAN (Fast Ethernet)", profile: netsim.LANFastEthernet()} }
func wanEnv() env { return env{name: "WAN (Internet)", profile: netsim.WANInternet97()} }

// harness is an in-process cluster built directly on the core layer.
type harness struct {
	cfg   Config
	sim   *transport.SimNetwork
	nodes map[wire.SiteID]*core.Node
	cost  netsim.CostModel
	codec marshal.Codec
}

// harnessOpts tunes optional harness features.
type harnessOpts struct {
	// streamReuse enables the hybrid connection-reuse extension.
	streamReuse bool
	// fanout selects the dissemination concurrency: 0 keeps the
	// paper-faithful sequential fan-out every figure reproduces, -1 runs
	// fully parallel, and a positive value bounds the concurrency.
	fanout int
}

// disseminationFanout translates the harness convention to the core
// config's (where 0 already means fully parallel).
func (ho harnessOpts) disseminationFanout() int {
	switch {
	case ho.fanout == 0:
		return 1
	case ho.fanout < 0:
		return 0
	default:
		return ho.fanout
	}
}

// newHarness builds sites 1..n over the environment with the JDK1 cost
// model and JDK-style codec (the paper's prototype platform).
func newHarness(cfg Config, e env, mode core.TransferMode, n int) (*harness, error) {
	return newHarnessOpts(cfg, e, mode, n, harnessOpts{})
}

// newHarnessOpts is newHarness with feature switches.
func newHarnessOpts(cfg Config, e env, mode core.TransferMode, n int, ho harnessOpts) (*harness, error) {
	scaledCost := netsim.JDK1().Scaled(cfg.Scale)
	codec := marshal.NewJavaStyle(scaledCost)

	sim := transport.NewSimNetwork(netsim.Config{Profile: e.profile.Scaled(cfg.Scale), Seed: 99})
	h := &harness{cfg: cfg, sim: sim, nodes: make(map[wire.SiteID]*core.Node), cost: scaledCost, codec: codec}

	directory := make(map[wire.SiteID]string, n)
	stacks := make(map[wire.SiteID]*transport.SimStack, n)
	for i := 1; i <= n; i++ {
		site := wire.SiteID(i)
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			_ = sim.Close()
			return nil, err
		}
		stacks[site] = stack
		directory[site] = stack.Datagram().LocalAddr()
	}
	for i := 1; i <= n; i++ {
		site := wire.SiteID(i)
		ep := mnet.NewEndpoint(stacks[site].Datagram(), mnet.Config{
			Cost: scaledCost,
			// Generous retransmission timing: the harness runs lossless
			// links, and large scaled costs must never trigger spurious
			// retransmits.
			RTO:        2 * time.Second,
			MaxRetries: 5,
			Window:     256,
		})
		node, err := core.NewNode(core.Config{
			Site:                site,
			Endpoint:            ep,
			Stack:               stacks[site],
			Directory:           directory,
			IsHome:              site == wire.HomeSite,
			Codec:               codec,
			Cost:                scaledCost,
			Mode:                mode,
			StreamReuse:         ho.streamReuse,
			DisseminationFanout: ho.disseminationFanout(),
			RequestTimeout:      30 * time.Second,
			TransferTimeout:     120 * time.Second,
			Log:                 eventlog.Nop(),
		})
		if err != nil {
			_ = h.Close()
			return nil, err
		}
		h.nodes[site] = node
	}
	return h, nil
}

// Close tears the harness down.
func (h *harness) Close() error {
	for _, n := range h.nodes {
		_ = n.Close()
	}
	if h.sim != nil {
		return h.sim.Close()
	}
	return nil
}

// deScale converts a measured wall-clock duration back to model time.
func (h *harness) deScale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / h.cfg.Scale)
}

// setupSharedReplica creates a byte replica of the given size under the
// lock at site 1 and attaches it at every other site, returning the home
// handle's ReplicaLock.
func (h *harness) setupSharedReplica(ctx context.Context, lock wire.LockID, name string, size int) (*core.ReplicaLock, error) {
	home := h.nodes[wire.HomeSite]
	hnd := home.NewHandle("bench-home")
	r, err := home.CreateReplica(name, marshal.Bytes(make([]byte, size)), len(h.nodes))
	if err != nil {
		return nil, err
	}
	rl := hnd.ReplicaLock(lock)
	if err := rl.Associate(ctx, r); err != nil {
		return nil, err
	}
	for site, node := range h.nodes {
		if site == wire.HomeSite {
			continue
		}
		hr, err := node.AttachReplica(name, marshal.Bytes(nil))
		if err != nil {
			return nil, err
		}
		hrl := node.NewHandle("bench-worker").ReplicaLock(lock)
		if err := hrl.Associate(ctx, hr); err != nil {
			return nil, err
		}
	}
	// Let registrations land at the synchronization thread.
	time.Sleep(h.settleDelay())
	return rl, nil
}

// settleDelay is a registration settling pause proportionate to scale.
func (h *harness) settleDelay() time.Duration {
	d := time.Duration(float64(200*time.Millisecond) * h.cfg.Scale)
	if d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	return d
}

// measure runs f cfg.Trials times after one warmup, returning the sample
// of de-scaled durations.
func (h *harness) measure(warmup bool, f func() error) (*obs.Sample, error) {
	if warmup {
		if err := f(); err != nil {
			return nil, err
		}
	}
	s := &obs.Sample{}
	for i := 0; i < h.cfg.Trials; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		s.Add(h.deScale(time.Since(start)))
	}
	return s, nil
}

// benchCtx returns a generous context for one experiment.
func benchCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Minute)
}
