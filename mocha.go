// Package mocha is a Go implementation of Mocha, the wide-area computing
// infrastructure with robust state sharing described in:
//
//	Brad Topol, Mustaque Ahamad, John T. Stasko.
//	"Robust State Sharing for Wide Area Distributed Applications."
//	ICDCS 1998 (GIT-CC-97-25).
//
// Mocha lets a distributed application spawn threads at remote sites,
// ship them code and parameters, and share state through Replica objects
// kept consistent with entry-consistency semantics: replicas are
// associated with a ReplicaLock, and holding the lock guarantees the
// replicas reflect the most recent update. The system tolerates wide-area
// failures: updates can be disseminated to several sites at release time
// (trading bandwidth for availability), dead lock holders are detected by
// lease expiry and heartbeats and their locks broken, and lost replica
// versions are recovered from the most recent surviving copy.
//
// Two deployment forms are supported. NewSimCluster runs any number of
// sites inside one process over a simulated network whose profiles
// reproduce the paper's LAN/WAN environments (including the 1997 JVM cost
// model used to regenerate the paper's figures). JoinCluster runs one
// site per process over real UDP/TCP sockets using a host file, via
// cmd/mochad.
//
// A minimal program:
//
//	cluster, _ := mocha.NewSimCluster(3)
//	defer cluster.Close()
//	cluster.Register("Myhello", func() mocha.Task {
//	    return mocha.TaskFunc(func(m *mocha.Mocha) {
//	        start, _ := m.Parameter.GetDouble("start")
//	        m.Result.AddDouble("returnvalue", start+1)
//	        m.ReturnResults()
//	    })
//	})
//	bag := cluster.Home().Bag("main")
//	p := mocha.NewParams()
//	p.AddDouble("start", 41)
//	rh, _ := bag.SpawnAny(ctx, "Myhello", p)
//	res, _ := rh.Wait(ctx)
package mocha

import (
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/runtime"
	"mocha/internal/session"
	"mocha/internal/trace"
	"mocha/internal/wire"
)

// Aliases re-export the implementation types so applications only import
// this package.
type (
	// SiteID identifies a participating site; site 1 is the home site.
	SiteID = wire.SiteID
	// LockID identifies a ReplicaLock cluster-wide.
	LockID = wire.LockID
	// Task is the MochaTask interface tasks implement.
	Task = runtime.Task
	// TaskFunc adapts a function to Task.
	TaskFunc = runtime.TaskFunc
	// Factory instantiates a registered task class.
	Factory = runtime.Factory
	// Registry maps class names to factories.
	Registry = runtime.Registry
	// Params is the Parameter/Result bag.
	Params = runtime.Params
	// Mocha is the travel bag handed to every task.
	Mocha = runtime.Mocha
	// ResultHandle tracks a spawned task.
	ResultHandle = runtime.ResultHandle
	// Permissions is the per-task capability set.
	Permissions = runtime.Permissions
	// Replica is one named shared object at one site.
	Replica = core.Replica
	// ReplicaLock guards associated replicas with entry consistency.
	ReplicaLock = core.ReplicaLock
	// Handle identifies an application thread.
	Handle = core.Handle
	// Content is a replica's typed payload.
	Content = marshal.Content
	// Serializable is the hook complex shared objects implement.
	Serializable = marshal.Serializable
	// StringValue is a shareable string (the generated StringReplica).
	StringValue = marshal.StringValue
	// TransferMode selects the replica transfer protocol.
	TransferMode = core.TransferMode
	// Profile describes a network environment.
	Profile = netsim.Profile
	// CostModel models platform execution costs.
	CostModel = netsim.CostModel
	// SyncState is a synchronization-thread snapshot for failover: the
	// home's lock records with their holds and remaining leases, and its
	// ban table. A surrogate started from it promotes the records as a
	// standby would and takes over the home's whole lock namespace.
	SyncState = core.SyncState
	// SessionStore is the non-synchronization-based (optimistic) object
	// store — the paper's announced future work, after Bayou and [TDP+94].
	SessionStore = session.Store
	// Session enforces Terry-style session guarantees over any store.
	Session = session.Session
	// SessionVector is a version vector.
	SessionVector = session.Vector
	// SessionWrite is one stamped optimistic update.
	SessionWrite = session.Write
	// Resolver settles concurrent optimistic writes.
	Resolver = session.Resolver
	// Metrics is the lock-free observability registry: named counters,
	// gauges, and fixed-bucket latency histograms for every protocol
	// phase, plus a ring of recent per-operation spans.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry,
	// exportable as JSON or Prometheus text.
	MetricsSnapshot = obs.Snapshot
	// Span is one in-flight operation trace (acquire, release) tagged
	// with site, lock, and version.
	Span = obs.Span
	// Timeline is a merged cross-site event trace for visualization.
	Timeline = trace.Timeline
	// RenderOptions tunes Timeline rendering.
	RenderOptions = trace.RenderOptions
)

// Instrument identifiers, re-exported so callers outside the module can
// read individual counters, gauges, and histograms from a Metrics
// registry (Snapshot keys use the exported mocha_* names instead).
const (
	// Lock protocol counters.
	CAcquireRequests = obs.CAcquireRequests
	CGrants          = obs.CGrants
	CReleases        = obs.CReleases
	CLeaseBreaks     = obs.CLeaseBreaks
	CBans            = obs.CBans
	CDaemonPolls     = obs.CDaemonPolls
	// Dissemination and transfer counters.
	CPushes          = obs.CPushes
	CPushAcks        = obs.CPushAcks
	CTransfersFull   = obs.CTransfersFull
	CTransfersDelta  = obs.CTransfersDelta
	CDeltaFallbacks  = obs.CDeltaFallbacks
	CTransfersHybrid = obs.CTransfersHybrid
	CTransfersMNet   = obs.CTransfersMNet
	CTransferBytes   = obs.CTransferBytes
	CApplies         = obs.CApplies
	// Transport and MNet counters.
	CStreamDials    = obs.CStreamDials
	CStreamAccepts  = obs.CStreamAccepts
	CStreamBytesOut = obs.CStreamBytesOut
	CStreamBytesIn  = obs.CStreamBytesIn
	CMsgsSent       = obs.CMsgsSent
	CMsgsDelivered  = obs.CMsgsDelivered
	CRetransmits    = obs.CRetransmits
	CSendFailures   = obs.CSendFailures
	CQueueDrops     = obs.CQueueDrops
	// Gauges.
	GSyncQueueDepth = obs.GSyncQueueDepth
	GSyncLocks      = obs.GSyncLocks
	// Per-phase latency histograms.
	HAcquireTotal = obs.HAcquireTotal
	HQueueWait    = obs.HQueueWait
	HRequestRTT   = obs.HRequestRTT
	HTransferWait = obs.HTransferWait
	HApply        = obs.HApply
	HReleaseTotal = obs.HReleaseTotal
	HDisseminate  = obs.HDisseminate
	HDaemonPoll   = obs.HDaemonPoll
	HGrantDeliver = obs.HGrantDeliver
)

// NewSession starts an empty guarantee-tracking session.
func NewSession() *Session { return session.NewSession() }

// LastWriterWins is the default conflict resolver.
func LastWriterWins(local, incoming SessionWrite) []byte {
	return session.LastWriterWins(local, incoming)
}

// HomeSite is the site ID of the home site.
const HomeSite = wire.HomeSite

// Transfer modes (the paper's two prototypes plus the adaptive policy).
const (
	// ModeMNet moves replica data over Mocha's network library alone.
	ModeMNet = core.ModeMNet
	// ModeHybrid moves replica data over a TCP-style stream set up via
	// MNet control messages.
	ModeHybrid = core.ModeHybrid
	// ModeAdaptive chooses per transfer by size.
	ModeAdaptive = core.ModeAdaptive
)

// NewParams creates an empty Parameter/Result bag.
func NewParams() *Params { return runtime.NewParams() }

// NewRegistry creates an empty task registry.
func NewRegistry() *Registry { return runtime.NewRegistry() }

// AllPermissions grants a task every capability.
func AllPermissions() Permissions { return runtime.AllPermissions() }

// Ints creates int-array replica content.
func Ints(v []int32) *Content { return marshal.Ints(v) }

// Bytes creates byte-array replica content.
func Bytes(v []byte) *Content { return marshal.Bytes(v) }

// Floats creates double-array replica content.
func Floats(v []float64) *Content { return marshal.Floats(v) }

// Object creates complex-object replica content.
func Object(s Serializable) *Content { return marshal.Object(s) }

// NewStringValue builds a shareable string object.
func NewStringValue(s string) *StringValue { return marshal.NewStringValue(s) }

// LAN returns the paper's Fast Ethernet environment.
func LAN() Profile { return netsim.LANFastEthernet() }

// WAN returns the paper's 1997 six-mile Internet environment.
func WAN() Profile { return netsim.WANInternet97() }

// CableModem returns the home-service environment of the paper's
// conclusion.
func CableModem() Profile { return netsim.CableModem() }

// Perfect returns an idealized instantaneous network for tests.
func Perfect() Profile { return netsim.Perfect() }

// JDK1Cost returns the calibrated 1997 interpreted-JVM cost model.
func JDK1Cost() CostModel { return netsim.JDK1() }

// NativeCost returns the zero cost model (pure Go performance).
func NativeCost() CostModel { return netsim.Native() }

// Option configures a cluster or site.
type Option func(*options)

type options struct {
	profile     Profile
	cost        CostModel
	mode        TransferMode
	javaCodec   bool
	seed        int64
	key         []byte
	output      optWriter
	maxServers  int
	lease       time.Duration
	reqTimeout  time.Duration
	xferTimeout time.Duration
	leaseSweep  time.Duration
	scale       float64
	perms       *Permissions
	streamReuse bool
	fanout      int
	delta       bool
	tree        bool
	placement   bool
	resolver    Resolver
	history     core.HistorySink
	metrics     *obs.Registry
	noMetrics   bool
	storeDir    string
	storeLimit  int
}

// optWriter keeps io out of the options struct zero value.
type optWriter interface{ Write(p []byte) (int, error) }

func defaultOptions() options {
	return options{
		profile: netsim.LANFastEthernet(),
		cost:    netsim.Native(),
		mode:    core.ModeMNet,
		scale:   1,
	}
}

// WithEnvironment selects the network profile (default LAN).
func WithEnvironment(p Profile) Option { return func(o *options) { o.profile = p } }

// WithCostModel selects the execution-cost model (default native Go).
func WithCostModel(c CostModel) Option { return func(o *options) { o.cost = c } }

// WithTransferMode selects the replica transfer protocol (default MNet).
func WithTransferMode(m TransferMode) Option { return func(o *options) { o.mode = m } }

// WithJavaCodec uses the JDK 1.1-style byte-at-a-time marshaling codec
// instead of the fast custom codec.
func WithJavaCodec() Option { return func(o *options) { o.javaCodec = true } }

// WithSeed fixes the simulated network's randomness.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithClusterKey enables HMAC authentication of all traffic; every site
// must share the key.
func WithClusterKey(key []byte) Option {
	return func(o *options) { o.key = append([]byte(nil), key...) }
}

// WithOutput directs remote printing and stack dumps (default: discard).
func WithOutput(w optWriter) Option { return func(o *options) { o.output = w } }

// WithMaxServers bounds concurrent remote tasks per site (default 4).
func WithMaxServers(n int) Option { return func(o *options) { o.maxServers = n } }

// WithLease sets the default lock lease for failure detection.
func WithLease(d time.Duration) Option { return func(o *options) { o.lease = d } }

// WithRequestTimeout bounds control-message operations.
func WithRequestTimeout(d time.Duration) Option { return func(o *options) { o.reqTimeout = d } }

// WithTransferTimeout bounds replica transfers.
func WithTransferTimeout(d time.Duration) Option { return func(o *options) { o.xferTimeout = d } }

// WithLeaseSweep sets how often expired leases are checked.
func WithLeaseSweep(d time.Duration) Option { return func(o *options) { o.leaseSweep = d } }

// WithTimeScale multiplies every simulated delay and modelled cost by f,
// letting tests run calibrated environments quickly (f < 1).
func WithTimeScale(f float64) Option { return func(o *options) { o.scale = f } }

// WithTaskPermissions sets the capability set granted to hosted tasks
// (default: all permissions).
func WithTaskPermissions(p Permissions) Option {
	return func(o *options) { o.perms = &p }
}

// WithStreamReuse caches hybrid-protocol connections per destination
// instead of paying connection setup and teardown on every transfer — the
// extension the paper's hybrid-protocol results point at.
func WithStreamReuse() Option { return func(o *options) { o.streamReuse = true } }

// WithDeltaTransfer enables delta-encoded replica transfer: releases and
// transfers ship only the byte ranges changed since the version the
// receiver already holds (chained through a bounded update log), falling
// back to the full copy whenever the chain is broken. Off by default —
// the paper's protocols always send the full marshaled replica.
func WithDeltaTransfer() Option { return func(o *options) { o.delta = true } }

// WithDisseminationFanout bounds how many replica push transfers run
// concurrently when a release disseminates a new version to several sites.
// The default (0) runs all pushes in parallel, overlapping their round
// trips; 1 reproduces the paper prototype's strictly sequential fan-out.
func WithDisseminationFanout(n int) Option { return func(o *options) { o.fanout = n } }

// WithDisseminationTree enables locality-aware release dissemination:
// sharing sites are clustered into RTT buckets, each bucket elects a
// scored relay, and a release pushes the new version once per bucket —
// the relay re-fans it over its local links — instead of once per
// sharer. Buckets degrade to direct pushes around failed or unhealthy
// relays. Off by default (the paper's flat fan-out).
func WithDisseminationTree() Option { return func(o *options) { o.tree = true } }

// WithHomePlacement replaces the fixed lock home of the paper's design
// with a partitioned, mobile lock namespace: lock records are spread over
// every site by a consistent-hash ring, each home migrates a lock toward
// a site that out-acquires the home by a clear margin (a tie stays), streams record deltas to its
// nearest live member (timed once, by one probe per ring member; ties and
// silence fall back to the next site by ID), and that standby promotes the
// records — leases, version floors, and dirty sets intact — if the home
// dies. A home and its standby therefore usually share a region: a whole
// region's outage strands that region's homes until one returns. With
// placement on, ReplicaLock.Unlock returns once the new version is
// disseminated and the release is on its way: the home's acknowledgment —
// a wide-area round trip — is awaited in the background, this site's next
// Lock of the same lock waits for it, and a release that cannot be
// delivered is counted (mocha_release_failures_total) and left to the
// lock's lease. Off by default (the paper's single fixed home, whose
// Unlock blocks until the home acknowledged and reports an unreachable
// home as an error).
func WithHomePlacement() Option { return func(o *options) { o.placement = true } }

// WithDurableStore backs every site's replica state with a log-structured
// file store rooted at dir (each site writes under its own subdirectory).
// Replica versions, payloads, and fencing tokens append to a segmented
// write-ahead log — delta-encoded records reusing the transfer encoding,
// crc32-framed, fsync-batched — and a site restarted on the same directory
// replays the log, re-installs its replicas at their persisted versions,
// and rejoins via the version-poll protocol instead of refetching
// everything. Off by default: the paper's replicas live in memory only and
// a crashed site returns empty.
func WithDurableStore(dir string) Option {
	return func(o *options) { o.storeDir = dir }
}

// WithStoreMemLimit caps the bytes of replica payloads the durable store
// keeps cached in memory; cold replicas above the cap are evicted (their
// bytes remain in the log) and transparently refaulted on next access.
// Zero (the default) means no cap. Only meaningful with WithDurableStore.
func WithStoreMemLimit(bytes int) Option {
	return func(o *options) { o.storeLimit = bytes }
}

// WithResolver sets the conflict resolver for the sites' session stores
// (default last-writer-wins). The resolver must be deterministic and
// order-insensitive or replicas may diverge.
func WithResolver(r Resolver) Option { return func(o *options) { o.resolver = r } }

// HistorySink receives protocol history events from every site. The
// standard sink is the lock-free recorder in internal/check, whose offline
// checker replays the recorded history against the entry-consistency
// invariants (see DESIGN.md §5).
type HistorySink = core.HistorySink

// NewMetrics builds a standalone observability registry, for callers that
// want to share one plane across several clusters or export it themselves.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithMetrics attaches a caller-provided observability registry instead of
// the cluster's default one. All sites of the cluster record into it.
func WithMetrics(m *Metrics) Option { return func(o *options) { o.metrics = m } }

// WithoutMetrics disables the observability plane entirely: no registry is
// allocated and every instrumentation point degrades to a nil-receiver
// no-op.
func WithoutMetrics() Option { return func(o *options) { o.noMetrics = true } }

// WithHistory attaches a history sink to every site in the cluster,
// turning the run into a checkable totally-ordered protocol history. Off
// by default: recording adds a replica digest per lock transition.
func WithHistory(sink HistorySink) Option { return func(o *options) { o.history = sink } }

// codec builds the configured marshal codec.
func (o options) codec() marshal.Codec {
	cost := o.cost.Scaled(o.scale)
	if o.javaCodec {
		return marshal.NewJavaStyle(cost)
	}
	return marshal.NewFast(cost)
}
