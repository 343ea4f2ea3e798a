package mocha

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/runtime"
	"mocha/internal/session"
	"mocha/internal/trace"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// Cluster is an in-process deployment of n Mocha sites over a simulated
// network — the form tests, examples, and the benchmark harness use. All
// sites share one task registry and code repository, since they live in
// one binary.
type Cluster struct {
	sim      *transport.SimNetwork
	registry *runtime.Registry
	repo     *runtime.CodeRepository
	sites    map[SiteID]*Site
	order    []SiteID
	opts     options
}

// NewSimCluster starts n simulated sites; site 1 is the home site.
func NewSimCluster(n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("mocha: cluster needs at least one site")
	}
	o := newOptions(opts)
	sim := transport.NewSimNetwork(netsim.Config{Profile: o.profile.Scaled(o.scale), Seed: o.seed})
	// History events and metric spans share the simulated network's clock,
	// so recorder ticks and span ticks land on one monotone axis and a
	// history event can be cross-referenced with the span that covers it.
	o.node.Metrics.SetClock(sim.Clock())
	if cs, ok := o.node.History.(interface{ SetClock(*netsim.Clock) }); ok {
		cs.SetClock(sim.Clock())
	}
	nodes, err := core.StartSimSites(sim, n, func(s *core.SimSite) {
		s.Config = o.siteConfig(s.Site, s.Stack, s.Directory)
		s.MNet = o.mnetConfig()
	})
	if err != nil {
		_ = sim.Close()
		return nil, fmt.Errorf("mocha: %w", err)
	}
	c := &Cluster{
		sim:      sim,
		registry: runtime.NewRegistry(),
		repo:     runtime.NewCodeRepository(),
		sites:    make(map[SiteID]*Site, n),
		opts:     o,
	}
	for i := 1; i <= n; i++ {
		site := SiteID(i)
		s, err := o.withRuntime(nodes[site], c.registry, c.repo)
		if err != nil {
			for _, node := range nodes {
				_ = node.Close()
			}
			_ = sim.Close()
			return nil, fmt.Errorf("mocha: site %d: %w", i, err)
		}
		c.sites[site] = s
		c.order = append(c.order, site)
	}
	return c, nil
}

// Register binds a task class name to a factory, and stores a synthetic
// class image in the home repository so spawns exercise the code-shipping
// path.
func (c *Cluster) Register(name string, f Factory) error {
	if err := c.registry.Register(name, f); err != nil {
		return err
	}
	c.repo.Add(name, []byte("mocha class image: "+name))
	return nil
}

// MustRegister panics on registration error (for main-program setup).
func (c *Cluster) MustRegister(name string, f Factory) {
	if err := c.Register(name, f); err != nil {
		panic(err)
	}
}

// AddCode stores a demand-pullable class image in the home repository.
func (c *Cluster) AddCode(name string, code []byte) {
	c.repo.Add(name, code)
}

// Home returns the home site.
func (c *Cluster) Home() *Site { return c.sites[HomeSite] }

// Site returns a site by ID (nil if absent).
func (c *Cluster) Site(id SiteID) *Site { return c.sites[id] }

// Sites returns all sites in ID order.
func (c *Cluster) Sites() []*Site {
	out := make([]*Site, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.sites[id])
	}
	return out
}

// Kill fail-stops a site: its node closes and the simulated network
// silences it, exactly like a remote machine reboot.
func (c *Cluster) Kill(id SiteID) {
	if s, ok := c.sites[id]; ok {
		_ = s.Close()
	}
	c.sim.Kill(netsim.NodeID(id))
}

// Partition cuts or heals both directions between two sites.
func (c *Cluster) Partition(a, b SiteID, cut bool) {
	c.sim.Underlying().Partition(netsim.NodeID(a), netsim.NodeID(b), cut)
}

// Metrics returns the cluster's observability registry (nil when the
// cluster was built WithoutMetrics). Snapshot it for JSON or Prometheus
// export, or read individual counters and histograms directly.
func (c *Cluster) Metrics() *Metrics { return c.opts.node.Metrics }

// MetricsSnapshot captures the registry's current counters, gauges,
// histograms, and recent spans. A cluster built WithoutMetrics yields the
// zero snapshot.
func (c *Cluster) MetricsSnapshot() MetricsSnapshot { return c.opts.node.Metrics.Snapshot() }

// NetStats returns simulated-network packet counters.
func (c *Cluster) NetStats() netsim.Stats { return c.sim.Underlying().Stats() }

// Timeline merges every site's event log into one time-ordered trace for
// the visualization tooling (cmd/mochaviz and trace.Render).
func (c *Cluster) Timeline() *trace.Timeline {
	perSite := make(map[wire.SiteID][]eventlog.Event, len(c.sites))
	for id, s := range c.sites {
		perSite[wire.SiteID(id)] = s.node.Log().Events()
	}
	return trace.Merge(perSite)
}

// Close shuts every site and the network down.
func (c *Cluster) Close() error {
	for _, s := range c.sites {
		_ = s.Close()
	}
	return c.sim.Close()
}

// Site is one Mocha site: its shared-object node plus its wide-area
// runtime.
type Site struct {
	node *core.Node
	rt   *runtime.Runtime

	sessOnce sync.Once
	sess     *session.Store
	sessErr  error
	resolver session.Resolver
}

// siteConfig is the options' node config with one site's own fields
// filled in: identity, stack, directory, codec, scaled cost, event log, and
// the site's subdirectory of the durable store root. Every site, simulated
// or real, starts from it.
func (o *options) siteConfig(id SiteID, stack transport.Stack, directory map[SiteID]string) core.Config {
	cfg := o.node
	cfg.Site = id
	cfg.Stack = stack
	cfg.Directory = directory
	cfg.Cost = o.cost.Scaled(o.scale)
	cfg.Codec = marshal.NewFast(cfg.Cost)
	if o.javaCodec {
		cfg.Codec = marshal.NewJavaStyle(cfg.Cost)
	}
	cfg.Log = eventlog.New(1 << 14)
	if cfg.StoreDir != "" {
		// Each site persists under its own subdirectory, so one cluster
		// root can host every site's log — and a single-site process
		// restarted on the same root finds its own state.
		cfg.StoreDir = filepath.Join(cfg.StoreDir, fmt.Sprintf("site-%d", id))
	}
	return cfg
}

// mnetConfig is every site's endpoint config.
func (o *options) mnetConfig() mnet.Config {
	cfg := mnet.Config{Cost: o.cost.Scaled(o.scale), Key: o.key, Metrics: o.node.Metrics}
	if o.scale < 1 {
		// Scaled environments have tiny latencies; keep retransmission
		// timers proportionate so loss tests converge quickly.
		cfg.RTO = 50 * time.Millisecond
	}
	return cfg
}

// newSite starts one real site over stack.
func newSite(o *options, id SiteID, stack transport.Stack, directory map[SiteID]string, registry *runtime.Registry, repo *runtime.CodeRepository) (*Site, error) {
	cfg := o.siteConfig(id, stack, directory)
	cfg.Endpoint = mnet.NewEndpoint(stack.Datagram(), o.mnetConfig())
	node, err := core.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return o.withRuntime(node, registry, repo)
}

// withRuntime layers the wide-area runtime over a started node; on error
// it closes the node.
func (o *options) withRuntime(node *core.Node, registry *runtime.Registry, repo *runtime.CodeRepository) (*Site, error) {
	perms := runtime.AllPermissions()
	if o.perms != nil {
		perms = *o.perms
	}
	var out io.Writer
	if o.output != nil {
		out = o.output
	}
	rt, err := runtime.New(node, runtime.Config{
		Registry:        registry,
		Repo:            repo,
		MaxServers:      o.maxServers,
		Output:          out,
		TaskPermissions: perms,
	})
	if err != nil {
		_ = node.Close()
		return nil, err
	}
	return &Site{node: node, rt: rt, resolver: o.resolver}, nil
}

// ID returns the site's identifier.
func (s *Site) ID() SiteID { return s.node.Site() }

// Bag builds a travel bag for a local application thread, giving main
// programs the same API as spawned tasks.
func (s *Site) Bag(name string) *Mocha { return s.rt.LocalBag(name) }

// Node exposes the shared-object layer (advanced use: surrogate failover,
// cached replicas, event log).
func (s *Site) Node() *core.Node { return s.node }

// Runtime exposes the wide-area runtime layer.
func (s *Site) Runtime() *runtime.Runtime { return s.rt }

// Snapshot captures the synchronization thread's durable state; only
// meaningful on the site currently running it.
func (s *Site) Snapshot() (SyncState, error) {
	sy := s.node.Sync()
	if sy == nil {
		return SyncState{}, fmt.Errorf("mocha: site %d runs no synchronization thread", s.ID())
	}
	return sy.Snapshot(), nil
}

// Sessions returns the site's non-synchronization-based object store,
// starting it on first use. Objects written here replicate optimistically
// with conflict resolution instead of locks — the mode the paper's
// conclusion announces as ongoing work.
func (s *Site) Sessions() (*session.Store, error) {
	s.sessOnce.Do(func() {
		s.sess, s.sessErr = session.New(session.Config{
			Site:      s.node.Site(),
			Endpoint:  s.node.Endpoint(),
			Directory: s.node.Directory(),
			Resolve:   s.resolver,
			Log:       s.node.Log(),
		})
	})
	return s.sess, s.sessErr
}

// Close shuts the site down.
func (s *Site) Close() error {
	if s.sess != nil {
		s.sess.Close()
	}
	return s.node.Close()
}
