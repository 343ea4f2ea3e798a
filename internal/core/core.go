// Package core implements Mocha's robust shared-object model — the paper's
// primary contribution. It provides Replica and ReplicaLock objects with
// entry-consistency semantics (Section 2.1), the basic consistency
// algorithm of Section 3 (application threads, a daemon thread per site,
// and a synchronization thread at the home site), and the fault-tolerance
// refinements of Section 4 (push-based update dissemination with a
// configurable number of up-to-date replicas, failure detection through
// message timeouts and lock leases, lock breaking, banning of failed
// threads, and recovery to the most recent surviving version).
//
// A Node is one site's view of the shared-object system. Nodes exchange
// control messages over the mnet library and replica data over either mnet
// (the paper's first prototype) or the hybrid MNet+TCP protocol (the
// second prototype), selected by Config.Mode.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/placement"
	"mocha/internal/store"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// Well-known logical ports on every site's endpoint.
const (
	// PortSync is where the synchronization thread listens (home site).
	PortSync uint16 = 1
	// PortDaemon is the daemon thread's mailbox.
	PortDaemon uint16 = 2
	// PortClient receives grants and acks addressed to application
	// threads.
	PortClient uint16 = 3
	// PortSyncAux is the synchronization thread's outbound probe port
	// (heartbeats, polls, transfer directives during failure handling),
	// kept separate so probe replies never deadlock the main handler.
	PortSyncAux uint16 = 5
	// PortXfer carries hybrid-protocol control traffic and push updates.
	PortXfer uint16 = 6
	// PortRuntime is used by the wide-area runtime (package runtime).
	PortRuntime uint16 = 7
)

// TransferMode selects how replica data moves between daemons.
type TransferMode int

// Transfer modes: the paper's two prototypes plus an adaptive policy its
// results directly suggest (use the stream only above the size where it
// wins).
const (
	// ModeMNet sends replica data as MNet messages (first prototype).
	ModeMNet TransferMode = iota + 1
	// ModeHybrid propagates a stream address over MNet and sends replica
	// data over the TCP-style stream (second prototype).
	ModeHybrid
	// ModeAdaptive uses MNet up to adaptiveThreshold bytes and the hybrid
	// path above it.
	ModeAdaptive
)

// adaptiveThreshold is the ModeAdaptive cutover size in bytes.
const adaptiveThreshold = 2048

// deltaLogDepth bounds how many consecutive version steps the per-lock
// update log retains for delta composition. Requesters more than this many
// versions behind get a full transfer.
const deltaLogDepth = 8

// String names the mode as the paper does.
func (m TransferMode) String() string {
	switch m {
	case ModeMNet:
		return "mocha-basic"
	case ModeHybrid:
		return "hybrid"
	case ModeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("TransferMode(%d)", int(m))
	}
}

// Config parameterizes a Node.
type Config struct {
	// Site is this node's identity; the home site is wire.HomeSite.
	Site wire.SiteID
	// Endpoint is the node's MNet endpoint. The node owns it and closes
	// it on Close.
	Endpoint *mnet.Endpoint
	// Stack provides stream listeners/dialers for the hybrid protocol.
	// Required for ModeHybrid and ModeAdaptive.
	Stack transport.Stack
	// Directory maps every site to its endpoint address, as read from the
	// host file.
	Directory map[wire.SiteID]string
	// Deprecated: ignored (ring membership decides who runs a sync
	// thread); it stays only while benchmark/ still sets it.
	IsHome bool
	// HomePlacement spreads the lock namespace over a consistent-hash ring
	// of every site in the directory: each runs a synchronization thread
	// for its slice, lock homes migrate toward observed access locality,
	// and each home streams record deltas to its nearest live ring member
	// for standby failover. Off by default: the ring holds the paper's
	// fixed home site alone, which has no standby and nowhere to migrate.
	HomePlacement bool
	// Codec marshals replica content; all sites must agree.
	Codec marshal.Codec
	// Cost is the execution-cost model for stream operations (MNet costs
	// are charged inside the endpoint's own model).
	Cost netsim.CostModel
	// Mode selects the replica transfer protocol.
	Mode TransferMode
	// StreamReuse caches hybrid-protocol connections per destination
	// instead of setting up and tearing down per transfer — the obvious
	// extension to the paper's second prototype, whose per-transfer
	// "connection and tear-down overheads" cost it the small-message
	// races.
	StreamReuse bool
	// DeltaTransfer ships replica updates as byte-range patches against
	// the version the receiver already holds, when the holder's update log
	// still covers the gap; any break in the chain falls back to a full
	// copy. Off by default: the paper's prototypes always transfer the
	// whole marshaled replica.
	DeltaTransfer bool
	// DisseminationFanout bounds how many push transfers run concurrently
	// when a release (or PushPayloads) disseminates a new version to
	// several sites. 0 (the default) runs all targets in parallel,
	// overlapping their round trips; 1 reproduces the paper prototype's
	// strictly sequential fan-out, where each of the k transfers completes
	// before the next begins.
	DisseminationFanout int
	// DisseminationTree routes full-UR release pushes through the
	// locality overlay (internal/overlay): sharers are bucketed by
	// measured RTT, one relay per bucket receives the version and re-fans
	// it locally, so the releaser's uplink carries O(regions) frames per
	// release instead of O(sharers). Off by default — the paper's flat
	// fan-out — and ignored below treeMinSharers or for partial-UR
	// dissemination, which keep the §4 replacement walk.
	DisseminationTree bool
	// RequestTimeout bounds control-message sends (default 5s).
	RequestTimeout time.Duration
	// TransferTimeout bounds replica data transfers (default 60s).
	TransferTimeout time.Duration
	// DefaultLease is the lock lease used when a handle does not declare
	// one (default 30s).
	DefaultLease time.Duration
	// LeaseSweep is how often the synchronization thread scans for
	// expired leases (default 500ms).
	LeaseSweep time.Duration
	// LeaseSkew offsets this site's view of hold ages when sweeping
	// leases, modelling clock drift between a manager's lease timer and
	// the holder's. A positive skew makes the manager's clock run fast —
	// it ages holds by the skew and may break leases the holder believes
	// are still live; a negative skew makes it break them late. Fault
	// exploration perturbs this to surface interleavings that only occur
	// when the two timers disagree. Zero (the default) is perfect clocks.
	LeaseSkew time.Duration
	// Log receives protocol events; nil means a no-op logger.
	Log *eventlog.Logger
	// Metrics, when non-nil, receives protocol counters, per-phase
	// latency histograms, and operation spans (see internal/obs). Nil
	// disables the plane; every instrument site is nil-safe.
	Metrics *obs.Registry
	// History, when non-nil, receives a totally ordered record of protocol
	// events (grants, releases, transfers, breaks, recoveries) for offline
	// entry-consistency checking. See internal/check.
	History HistorySink
	// FaultHook, when non-nil, is consulted at every registered FaultPoint
	// and may fail or delay the operation there. Test-only.
	FaultHook FaultHook
	// StoreDir, when non-empty, backs replica state with the log-structured
	// durable store rooted at that directory: every install, patch, and
	// commit is written through to a write-ahead log, and a restarted node
	// replays it to re-join the protocol at the persisted version instead
	// of refetching everything. Empty (the default) keeps the paper's
	// in-memory baseline — nothing survives a restart.
	StoreDir string
	// StoreMemLimit caps the payload bytes the durable store keeps cached
	// in memory; past it, cold replicas are evicted least-recently-used
	// and refault from the log. 0 means unlimited. Ignored without
	// StoreDir.
	StoreMemLimit int
}

func (c Config) withDefaults() Config {
	if c.Codec == nil {
		c.Codec = marshal.NewFast(netsim.Native())
	}
	if c.Mode == 0 {
		c.Mode = ModeMNet
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.TransferTimeout <= 0 {
		c.TransferTimeout = 60 * time.Second
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 30 * time.Second
	}
	if c.LeaseSweep <= 0 {
		c.LeaseSweep = 500 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = eventlog.Nop()
	}
	return c
}

// fanoutBound returns the effective dissemination concurrency for n
// targets: at least 1, at most n, honoring Config.DisseminationFanout (0
// means fully parallel).
func fanoutBound(fanout, n int) int {
	if fanout <= 0 || fanout > n {
		fanout = n
	}
	return max(fanout, 1)
}

// Core errors.
var (
	// ErrNotHeld reports Unlock by a thread that does not hold the lock.
	ErrNotHeld = errors.New("core: lock not held by this thread")
	// ErrBanned reports that the synchronization thread refused the
	// request because the thread was banned after a detected failure.
	ErrBanned = errors.New("core: thread banned by synchronization thread")
	// ErrUnknownLock reports an acquire for a lock ID no daemon has ever
	// registered; the synchronization thread refuses to fabricate a
	// record for it.
	ErrUnknownLock = errors.New("core: lock never registered with synchronization thread")
	// ErrClosed reports use of a closed node.
	ErrClosed = errors.New("core: node closed")
	// ErrNoSync reports that the synchronization thread is unreachable.
	ErrNoSync = errors.New("core: synchronization thread unreachable")
)

// Node is one site's shared-object runtime: its daemon thread, client-side
// lock machinery, transfer service, and (on the home site) the
// synchronization thread.
type Node struct {
	cfg     Config
	ep      *mnet.Endpoint
	log     *eventlog.Logger
	metrics *obs.Registry // nil when the observability plane is off

	daemon *daemon
	client *client
	xfer   *transferService
	sync   *syncThread // nil unless a manager site or surrogate

	// store is the replica-state store behind the daemon: the in-memory
	// baseline by default, the durable write-ahead log when StoreDir is
	// set (see internal/store).
	store store.Store

	done chan struct{}

	// ring partitions the lock namespace across manager sites: every site
	// in the directory under HomePlacement, the paper's fixed home site
	// alone otherwise — a ring of one.
	ring *placement.Ring
	// syncAddrs is every site's synchronization-thread port address,
	// resolved once: each control message is sent to one.
	syncAddrs map[wire.SiteID]string

	mu         sync.Mutex
	closed     bool
	nextThread uint32
	lockLocals map[wire.LockID]*lockLocal
	cached     map[string]*Replica

	// homeMu guards the learned home routes. homeOverrides are per-lock
	// routes from NackNotHome redirects, HomeHints, and HomeMoved
	// broadcasts; they override the ring default when their epoch is at
	// least as new. slice is the one whole-slice route, installed by a
	// surrogate's broadcast: every lock the ring hashes to slice.from and
	// no per-lock route names lives at slice.to.
	homeMu        sync.Mutex
	homeOverrides map[wire.LockID]homeOverride
	slice         sliceRoute
}

// homeOverride is one learned per-lock home route.
type homeOverride struct {
	to    wire.SiteID
	epoch uint32
}

// sliceRoute moves a ring member's whole slice to another manager.
type sliceRoute struct {
	from, to wire.SiteID
	epoch    uint32
}

// NewNode builds and starts a site.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Endpoint == nil {
		return nil, errors.New("core: config needs an endpoint")
	}
	if cfg.Site == 0 {
		return nil, errors.New("core: config needs a site id")
	}
	if len(cfg.Directory) == 0 {
		return nil, errors.New("core: config needs a site directory")
	}
	if _, ok := cfg.Directory[wire.HomeSite]; !ok {
		return nil, errors.New("core: directory has no home site")
	}
	if (cfg.Mode == ModeHybrid || cfg.Mode == ModeAdaptive) && cfg.Stack == nil {
		return nil, errors.New("core: hybrid transfer needs a transport stack")
	}

	if cfg.Metrics != nil && cfg.Stack != nil {
		// Count hybrid stream dials/accepts and bytes at the transport
		// seam, so stream-path cost is attributed even when the payload
		// framing above changes.
		cfg.Stack = transport.Instrument(cfg.Stack, cfg.Metrics)
	}

	n := &Node{
		cfg:           cfg,
		done:          make(chan struct{}),
		ep:            cfg.Endpoint,
		log:           cfg.Log,
		metrics:       cfg.Metrics,
		syncAddrs:     make(map[wire.SiteID]string, len(cfg.Directory)),
		lockLocals:    make(map[wire.LockID]*lockLocal),
		cached:        make(map[string]*Replica),
		homeOverrides: make(map[wire.LockID]homeOverride),
	}
	for site, addr := range cfg.Directory {
		n.syncAddrs[site] = mnet.JoinAddr(addr, PortSync)
	}
	// The fixed home is a ring of one: with a single member every lock
	// hashes to it, so one virtual node suffices.
	members, vnodes := []wire.SiteID{wire.HomeSite}, 1
	if cfg.HomePlacement {
		members, vnodes = n.Sites(), placement.DefaultVirtualNodes
	}
	n.ring = placement.New(members, vnodes)

	// The store opens — and replays its log — before the daemon starts, so
	// a version poll can never observe a half-recovered site.
	if err := n.openStore(); err != nil {
		return nil, err
	}

	var err error
	if n.daemon, err = newDaemon(n); err != nil {
		return nil, fmt.Errorf("core: start daemon: %w", err)
	}
	if n.client, err = newClient(n); err != nil {
		return nil, fmt.Errorf("core: start client: %w", err)
	}
	if n.xfer, err = newTransferService(n); err != nil {
		return nil, fmt.Errorf("core: start transfer service: %w", err)
	}
	if n.ring.Contains(cfg.Site) {
		if n.sync, err = newSyncThread(n, 1); err != nil {
			return nil, fmt.Errorf("core: start synchronization thread: %w", err)
		}
	}
	return n, nil
}

// Site returns this node's site ID.
func (n *Node) Site() wire.SiteID { return n.cfg.Site }

// Endpoint returns the node's MNet endpoint (for stats and runtime use).
func (n *Node) Endpoint() *mnet.Endpoint { return n.ep }

// Log returns the node's event logger.
func (n *Node) Log() *eventlog.Logger { return n.log }

// Mode returns the replica transfer mode.
func (n *Node) Mode() TransferMode { return n.cfg.Mode }

// Sync returns the local synchronization thread, or nil if this node runs
// none.
func (n *Node) Sync() *syncThread {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sync
}

// Close shuts the node down. In-flight operations fail with ErrClosed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	s := n.sync
	n.mu.Unlock()
	if s != nil {
		s.stop()
	}
	n.xfer.close()
	// After this the release counters are final too.
	n.client.carriage.close()
	err := n.ep.Close()
	if n.store != nil {
		// After the endpoint: no protocol goroutine appends once sends and
		// arrivals are dead, and Close fsyncs the tail.
		if serr := n.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// isClosed reports whether Close has run.
func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Done is closed when the node shuts down.
func (n *Node) Done() <-chan struct{} { return n.done }

// endpointAddr resolves a site's endpoint address from the directory.
func (n *Node) endpointAddr(site wire.SiteID) (string, error) {
	addr, ok := n.cfg.Directory[site]
	if !ok {
		return "", fmt.Errorf("core: site %d not in directory", site)
	}
	return addr, nil
}

// daemonAddr resolves a site's daemon port address.
func (n *Node) daemonAddr(site wire.SiteID) (string, error) {
	ep, err := n.endpointAddr(site)
	if err != nil {
		return "", err
	}
	return mnet.JoinAddr(ep, PortDaemon), nil
}

// clientAddr resolves a site's client port address.
func (n *Node) clientAddr(site wire.SiteID) (string, error) {
	ep, err := n.endpointAddr(site)
	if err != nil {
		return "", err
	}
	return mnet.JoinAddr(ep, PortClient), nil
}

// xferAddr resolves a site's transfer-control port address.
func (n *Node) xferAddr(site wire.SiteID) (string, error) {
	ep, err := n.endpointAddr(site)
	if err != nil {
		return "", err
	}
	return mnet.JoinAddr(ep, PortXfer), nil
}

// syncAddrOf resolves a site's synchronization-thread port address.
func (n *Node) syncAddrOf(site wire.SiteID) (string, error) {
	addr, ok := n.syncAddrs[site]
	if !ok {
		return "", fmt.Errorf("core: site %d not in directory", site)
	}
	return addr, nil
}

// Ring exposes the home-placement ring: the fixed home site alone unless
// HomePlacement is on.
func (n *Node) Ring() *placement.Ring { return n.ring }

// learnHome installs a per-lock home route learned from a redirect, hint,
// or promotion broadcast. Routes with an epoch at least as new win; ring
// defaults travel as epoch 0 and so never displace a learned route.
func (n *Node) learnHome(lock wire.LockID, home wire.SiteID, epoch uint32) {
	if home == 0 {
		return
	}
	n.homeMu.Lock()
	cur, ok := n.homeOverrides[lock]
	if !ok || epoch >= cur.epoch {
		n.homeOverrides[lock] = homeOverride{to: home, epoch: epoch}
	}
	n.homeMu.Unlock()
}

// learnSlice installs the whole-slice route a surrogate broadcast: from's
// ring slice is managed at to. The newest epoch wins.
func (n *Node) learnSlice(from, to wire.SiteID, epoch uint32) {
	if to == 0 {
		return
	}
	n.homeMu.Lock()
	if epoch >= n.slice.epoch {
		n.slice = sliceRoute{from: from, to: to, epoch: epoch}
	}
	n.homeMu.Unlock()
	if n.log.On() {
		n.log.Logf("sync", "site %d's slice is managed at site %d (epoch %d)", from, to, epoch)
	}
}

// homeOf resolves a lock's current best-known home site and route epoch:
// a per-lock route, else the slice route covering the lock's ring home,
// else the ring home itself at epoch 0.
func (n *Node) homeOf(lock wire.LockID) (wire.SiteID, uint32) {
	member := n.ring.Home(lock)
	n.homeMu.Lock()
	defer n.homeMu.Unlock()
	if ov, ok := n.homeOverrides[lock]; ok {
		return ov.to, ov.epoch
	}
	return n.sliceHomeLocked(member)
}

// HomeAddr resolves where the synchronization thread managing the fixed
// home's slice runs — site 1, or the surrogate that took the slice over —
// and that route's epoch.
func (n *Node) HomeAddr() (string, uint32) {
	n.homeMu.Lock()
	site, epoch := n.sliceHomeLocked(wire.HomeSite)
	n.homeMu.Unlock()
	addr, _ := n.syncAddrOf(site)
	return addr, epoch
}

// sliceHomeLocked applies the slice route to a ring member; the caller
// holds homeMu.
func (n *Node) sliceHomeLocked(member wire.SiteID) (wire.SiteID, uint32) {
	if sr := n.slice; sr.from == member {
		return sr.to, sr.epoch
	}
	return member, 0
}

// RuntimeAddr resolves a site's runtime port address (used by package
// runtime).
func (n *Node) RuntimeAddr(site wire.SiteID) (string, error) {
	ep, err := n.endpointAddr(site)
	if err != nil {
		return "", err
	}
	return mnet.JoinAddr(ep, PortRuntime), nil
}

// RequestTimeout exposes the configured control-message timeout.
func (n *Node) RequestTimeout() time.Duration { return n.cfg.RequestTimeout }

// Directory returns a copy of the site directory.
func (n *Node) Directory() map[wire.SiteID]string {
	out := make(map[wire.SiteID]string, len(n.cfg.Directory))
	for k, v := range n.cfg.Directory {
		out[k] = v
	}
	return out
}

// Sites lists every site in the directory in ascending order.
func (n *Node) Sites() []wire.SiteID {
	out := make([]wire.SiteID, 0, len(n.cfg.Directory))
	for site := range n.cfg.Directory {
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handle identifies one application thread to the shared-object system.
// The travel-bag Mocha object of the runtime layer wraps a Handle, so
// every remotely evaluated task gets its own.
type Handle struct {
	node  *Node
	id    wire.ThreadID
	name  string
	lease time.Duration
}

// NewHandle registers an application thread.
func (n *Node) NewHandle(name string) *Handle {
	n.mu.Lock()
	n.nextThread++
	local := n.nextThread
	n.mu.Unlock()
	return &Handle{
		node:  n,
		id:    wire.MakeThreadID(n.cfg.Site, local),
		name:  name,
		lease: n.cfg.DefaultLease,
	}
}

// ID returns the cluster-unique thread ID.
func (h *Handle) ID() wire.ThreadID { return h.id }

// Node returns the handle's site node.
func (h *Handle) Node() *Node { return h.node }

// SetLease declares how long this thread expects to hold locks — the
// paper's "threads indicate approximately how long they need to hold a
// lock", which drives lock-breaking failure detection.
func (h *Handle) SetLease(d time.Duration) {
	if d > 0 {
		h.lease = d
	}
}

// getLockLocal returns (creating if needed) the per-site shared state for
// a lock ID.
func (n *Node) getLockLocal(id wire.LockID) *lockLocal {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.lockLocals[id]
	if !ok {
		depth := 0
		if n.cfg.DeltaTransfer {
			depth = deltaLogDepth
		}
		st = newLockLocal(id, depth)
		n.lockLocals[id] = st
	}
	return st
}
