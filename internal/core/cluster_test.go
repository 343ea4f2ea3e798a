package core

import (
	"context"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// testCluster is an in-process multi-site deployment over the simulated
// network, with fast timeouts suitable for failure-injection tests.
type testCluster struct {
	sn    *transport.SimNetwork
	nodes map[wire.SiteID]*Node
	rec   *check.Recorder
	// site fills in a site's config; restart reuses it.
	site func(*SimSite)
}

// clusterOpts is a test cluster's shape: Config is every site's node
// config, to which each site's own fields and the rest below are added.
type clusterOpts struct {
	Config
	profile netsim.Profile
	mnetCfg mnet.Config
	// wrapStack lets fault tests interpose on a site's transport stack.
	wrapStack func(site wire.SiteID, s transport.Stack) transport.Stack
	// wrapDatagram lets fault tests interpose on the packets a site's mnet
	// endpoint sends (in-flight corruption).
	wrapDatagram func(site wire.SiteID, d transport.Datagram) transport.Datagram
	// faultHooks installs a per-site FaultHook (missing sites get none).
	faultHooks map[wire.SiteID]FaultHook
	// storeDirs backs the named sites with a durable store (missing sites
	// keep the in-memory one).
	storeDirs map[wire.SiteID]string
}

func defaultOpts() clusterOpts {
	return clusterOpts{
		Config: Config{
			RequestTimeout:  2 * time.Second,
			TransferTimeout: 10 * time.Second,
			LeaseSweep:      50 * time.Millisecond,
		},
		profile: netsim.Perfect(),
		mnetCfg: mnet.Config{RTO: 25 * time.Millisecond, MaxRetries: 4},
	}
}

// newTestCluster starts n sites; site 1 is home. Every cluster records its
// protocol history and replays it through the entry-consistency checker and
// the online monitor at cleanup, so each integration test doubles as an
// invariant check. The network seed honors MOCHA_TEST_SEED and is logged
// for replay.
func newTestCluster(t *testing.T, n int, opts clusterOpts) *testCluster {
	t.Helper()
	seed := netsim.SeedFromEnv(17)
	t.Logf("cluster network seed %d (set %s to replay)", seed, netsim.SeedEnv)
	sn := transport.NewSimNetwork(netsim.Config{Profile: opts.profile, Seed: seed})
	rec := check.NewRecorder(0, sn.Clock())
	tc := &testCluster{sn: sn, rec: rec}
	tc.site = func(s *SimSite) {
		cfg := opts.Config
		cfg.Site, cfg.Stack, cfg.Directory = s.Site, s.Stack, s.Directory
		if opts.wrapStack != nil {
			cfg.Stack = opts.wrapStack(cfg.Site, cfg.Stack)
		}
		if opts.wrapDatagram != nil {
			s.Datagram = opts.wrapDatagram(cfg.Site, s.Datagram)
		}
		cfg.FaultHook = opts.faultHooks[cfg.Site]
		cfg.StoreDir = opts.storeDirs[cfg.Site]
		cfg.Log = eventlog.New(1 << 14)
		cfg.History = rec
		s.Config, s.MNet = cfg, opts.mnetCfg
	}
	nodes, err := StartSimSites(sn, n, tc.site)
	if err != nil {
		_ = sn.Close()
		t.Fatal(err)
	}
	tc.nodes = nodes
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			_ = node.Close()
		}
		_ = sn.Close()
		events := rec.Events()
		if v := check.Check(events); v != nil {
			t.Errorf("history violates entry consistency (seed %d): %v", seed, v)
		}
		mon := check.NewMonitor(0)
		for _, ev := range events {
			mon.Record(ev)
			if ev.Kind == wire.HistTransferSend && ev.Sites.Contains(ev.Site) {
				t.Errorf("site %d transferred lock %d v%d to itself (seed %d)", ev.Site, ev.Lock, ev.Version, seed)
			}
		}
		if cx := mon.Err(); cx != nil {
			t.Errorf("history trips the online monitor (seed %d): %v", seed, cx)
		}
	})
	return tc
}

// node returns the node for a site.
func (tc *testCluster) node(site wire.SiteID) *Node { return tc.nodes[site] }

// kill fail-stops a site: its node closes and the network silences it.
func (tc *testCluster) kill(site wire.SiteID) {
	_ = tc.nodes[site].Close()
	tc.sn.Kill(netsim.NodeID(site))
}

// restart reboots a killed site at the same address: a fresh stack,
// endpoint and node, over the same storeDirs entry, so a durable site
// replays its log and an in-memory one comes back empty.
func (tc *testCluster) restart(t *testing.T, site wire.SiteID) *Node {
	t.Helper()
	stack, err := tc.sn.Restart(netsim.NodeID(site))
	if err != nil {
		t.Fatalf("restart site %d: %v", site, err)
	}
	node, err := startSimSite(site, stack, tc.nodes[site].cfg.Directory, tc.site)
	if err != nil {
		t.Fatalf("restart site %d: %v", site, err)
	}
	tc.nodes[site] = node
	return node
}

// standbyOf returns the standby a placement home streams its records to:
// the home's one resolved choice (made now if it has streamed nothing yet),
// so no test encodes the rule that picks it.
func (tc *testCluster) standbyOf(home wire.SiteID) wire.SiteID {
	return tc.node(home).Sync().home.standby()
}

// tctx returns a generous test context.
func tctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// mustCreate creates and associates an int replica under a fresh lock for
// a handle, returning the lock and replica.
func mustCreate(t *testing.T, h *Handle, lockID wire.LockID, name string, data []int32, copies int) (*ReplicaLock, *Replica) {
	t.Helper()
	r, err := h.Node().CreateReplica(name, marshal.Ints(data), copies)
	if err != nil {
		t.Fatal(err)
	}
	rl := h.ReplicaLock(lockID)
	if err := rl.Associate(tctx(t), r); err != nil {
		t.Fatal(err)
	}
	return rl, r
}

// mustAttach attaches to an existing replica at another site.
func mustAttach(t *testing.T, h *Handle, lockID wire.LockID, name string) (*ReplicaLock, *Replica) {
	t.Helper()
	r, err := h.Node().AttachReplica(name, marshal.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl := h.ReplicaLock(lockID)
	if err := rl.Associate(tctx(t), r); err != nil {
		t.Fatal(err)
	}
	return rl, r
}

// settle gives asynchronous registrations time to reach the home site.
func settle() { time.Sleep(30 * time.Millisecond) }

// eventually waits (up to two seconds) for cond to hold and reports whether
// it did. Use it before asserting on a sender-side tally the receiver's
// call does not order: FullTransfersSent, DeltaTransfersSent and
// ReplicaBytesSent count acknowledged sends, and a source daemon sees the
// ack only after the receiver applied the data — possibly after the
// receiver's Lock already returned.
func eventually(t *testing.T, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// isAdopted reports whether a manager adopted a lock the ring hashes
// elsewhere (by handoff or promotion).
func (hs *homeState) isAdopted(lock wire.LockID) bool {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.adopted[lock]
}
