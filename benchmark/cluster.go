package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// scratchDir holds everything the benchmark writes (durable-store
// directories); it is relative to the working directory, which is the
// checkout root, and .gitignore names it. The smoke test points it at a
// temporary directory.
var scratchDir = ".bench_build"

// clusterSpec is the shape of one workload's deployment. The zero value
// of every optional field is the paper baseline: fixed home, full-copy
// transfer, flat fan-out, volatile store, default timers.
type clusterSpec struct {
	sites   int
	profile netsim.Profile
	// geo, when non-nil, overrides every link with the regional geography.
	geo *netsim.Geography
	// composed turns every opt-in subsystem on at once.
	composed bool
	// Failure-detection timers; zero keeps the package defaults.
	leaseSweep, reqTimeout, xferTimeout, rto time.Duration
	maxRetries                               int
}

// cluster is one in-process deployment over a simulated network, built
// the way cluster.go:newSite and internal/bench's loadLeg build theirs.
type cluster struct {
	sim       *transport.SimNetwork
	nodes     map[wire.SiteID]*core.Node
	storeRoot string
}

// newCluster builds and starts every site. tr is nil for the untraced
// pass; otherwise its registry, history sink and timing wrappers are
// threaded through every layer that accepts them.
func newCluster(spec clusterSpec, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{
		sim:   transport.NewSimNetwork(netsim.Config{Profile: spec.profile, Seed: seed}),
		nodes: make(map[wire.SiteID]*core.Node, spec.sites),
	}
	tr.attach(c.sim)

	directory := make(map[wire.SiteID]string, spec.sites)
	stacks := make(map[wire.SiteID]*transport.SimStack, spec.sites)
	ids := make([]netsim.NodeID, 0, spec.sites)
	for i := 1; i <= spec.sites; i++ {
		stack, err := c.sim.NewStack(netsim.NodeID(i))
		if err != nil {
			c.close()
			return nil, err
		}
		stacks[wire.SiteID(i)] = stack
		directory[wire.SiteID(i)] = stack.Datagram().LocalAddr()
		ids = append(ids, netsim.NodeID(i))
	}
	if spec.geo != nil {
		spec.geo.Apply(c.sim.Underlying(), ids)
	}
	if spec.composed {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			c.close()
			return nil, err
		}
		root, err := os.MkdirTemp(scratchDir, "store-")
		if err != nil {
			c.close()
			return nil, err
		}
		c.storeRoot = root
	}

	for i := 1; i <= spec.sites; i++ {
		site := wire.SiteID(i)
		ep := mnet.NewEndpoint(tr.datagram(stacks[site].Datagram()), mnet.Config{
			Cost:       netsim.Native(),
			Metrics:    tr.registry(),
			RTO:        spec.rto,
			MaxRetries: spec.maxRetries,
		})
		cfg := core.Config{
			Site:            site,
			Endpoint:        ep,
			Stack:           stacks[site],
			Directory:       directory,
			IsHome:          site == wire.HomeSite,
			Codec:           tr.codec(marshal.NewFast(netsim.Native())),
			Cost:            netsim.Native(),
			Mode:            core.ModeMNet,
			RequestTimeout:  spec.reqTimeout,
			TransferTimeout: spec.xferTimeout,
			LeaseSweep:      spec.leaseSweep,
			Metrics:         tr.registry(),
			History:         tr.history(),
		}
		if spec.composed {
			cfg.DeltaTransfer = true
			cfg.DisseminationTree = true
			cfg.HomePlacement = true
			cfg.StoreDir = filepath.Join(c.storeRoot, fmt.Sprintf("site-%d", i))
		}
		node, err := core.NewNode(cfg)
		if err != nil {
			_ = ep.Close()
			c.close()
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		c.nodes[site] = node
	}
	return c, nil
}

// kill fail-stops a site the way a machine reboot does: the network
// silences it first, then its process state is discarded.
func (c *cluster) kill(site wire.SiteID) {
	c.sim.Kill(netsim.NodeID(site))
	_ = c.nodes[site].Close()
}

// netStats reads the simulated network's packet counters.
func (c *cluster) netStats() netsim.Stats { return c.sim.Underlying().Stats() }

// nodeTotals sums the per-node counters that live outside the obs plane:
// store activity and dissemination frames out of each releaser's uplink.
func (c *cluster) nodeTotals() (st storeTotals, uplink int64) {
	for _, n := range c.nodes {
		s := n.Store().Stats()
		st.appends += s.Appends
		st.fsyncs += s.Fsyncs
		st.refaults += s.Refaults
		st.compactions += s.Compactions
		uplink += n.DisseminationUplinkSends()
	}
	return st, uplink
}

// close stops every site and the network and removes the store directory.
func (c *cluster) close() {
	for _, n := range c.nodes {
		_ = n.Close()
	}
	_ = c.sim.Close()
	if c.storeRoot != "" {
		_ = os.RemoveAll(c.storeRoot)
	}
}
