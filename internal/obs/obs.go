// Package obs is Mocha's observability plane: one lock-free metrics
// registry shared by every layer (mnet, transport, core, runtime), with
// named instruments for each protocol phase, per-operation spans tagged
// with (site, lock, version), and the structured-field vocabulary the
// typed event log records in.
//
// The package sits below everything that emits telemetry: it imports only
// netsim (for the shared simulation clock) and the standard library, so
// wire, mnet, transport, core, and eventlog can all depend on it without
// cycles. Every method is nil-safe — a nil *Registry is the disabled
// plane and costs one predictable branch per call site — so callers
// thread the registry through unconditionally.
package obs

import (
	"sync/atomic"
	"time"

	"mocha/internal/netsim"
)

// Counter identifies one monotonic counter instrument.
type Counter int

// Counter instruments, one per protocol event the paper's evaluation
// section (and the PR-1..PR-4 ablations) attribute cost to.
const (
	// CAcquireRequests counts ACQUIRELOCK requests sent by local threads.
	CAcquireRequests Counter = iota
	// CGrants counts GRANTs delivered by the synchronization thread.
	CGrants
	// CReleases counts RELEASELOCK messages sent by releasing holders.
	CReleases
	// CLeaseBreaks counts locks broken by lease expiry (dead holders).
	CLeaseBreaks
	// CBans counts sites banned after a broken lock.
	CBans
	// CDaemonPolls counts VERSION polls the synchronization thread sends.
	CDaemonPolls
	// CPushes counts release-time dissemination pushes attempted.
	CPushes
	// CPushAcks counts PUSHACKs received by releasing holders.
	CPushAcks
	// CTransfersFull counts replica sends that shipped the full copy.
	CTransfersFull
	// CTransfersDelta counts replica sends that shipped a delta.
	CTransfersDelta
	// CDeltaFallbacks counts deltas rejected and retried as full copies.
	CDeltaFallbacks
	// CTransfersHybrid counts replica sends over the hybrid TCP stream.
	CTransfersHybrid
	// CTransfersMNet counts replica sends over the MNet message path.
	CTransfersMNet
	// CTransferBytes totals replica payload bytes sent by this plane.
	CTransferBytes
	// CApplies counts replica payload sets applied by the daemon.
	CApplies
	// CStreamDials counts hybrid stream connections dialed.
	CStreamDials
	// CStreamAccepts counts hybrid stream connections accepted.
	CStreamAccepts
	// CStreamBytesOut totals bytes written to hybrid streams.
	CStreamBytesOut
	// CStreamBytesIn totals bytes read from hybrid streams.
	CStreamBytesIn
	// CMsgsSent counts MNet messages sent.
	CMsgsSent
	// CMsgsDelivered counts MNet messages delivered to handlers.
	CMsgsDelivered
	// CRetransmits counts MNet fragment retransmissions.
	CRetransmits
	// CSendFailures counts MNet sends that exhausted retries.
	CSendFailures
	// CQueueDrops counts MNet inbound messages dropped on full queues.
	CQueueDrops
	// CSendBatches counts per-peer transmit flushes (a flush of one
	// packet still counts, so batch size = packets / batches is honest).
	CSendBatches
	// CSendBatchPkts totals packets moved by transmit flushes.
	CSendBatchPkts
	// CFlushDrops counts outbound packets dropped on a full flush queue;
	// retransmission recovers them.
	CFlushDrops
	// CRelayPushes counts RelayPush frames sent to bucket relays by
	// releasers disseminating through the locality overlay.
	CRelayPushes
	// CRelayAcks counts aggregated RelayAck frames received by releasers.
	CRelayAcks
	// CRelayFanout counts local re-fan pushes performed by bucket relays
	// on behalf of an origin.
	CRelayFanout
	// CRelayFallbacks counts buckets (or bucket members) routed around
	// with direct pushes after a relay failed, timed out, or missed
	// members.
	CRelayFallbacks
	// CHomeMigrations counts locks whose home moved to another manager
	// site because of observed access locality (completed handoffs,
	// counted at the old home).
	CHomeMigrations
	// CHandoffsOut counts HandoffRecord frames shipped by old homes
	// (attempts; CHomeMigrations counts the acked subset).
	CHandoffsOut
	// CHandoffsIn counts lock records installed from a HandoffRecord.
	CHandoffsIn
	// CStandbyUpdates counts lock-record deltas streamed to a home's
	// standby.
	CStandbyUpdates
	// CStandbyPromotions counts lock records promoted from standby
	// shadows after a home crash.
	CStandbyPromotions
	// CHomeRedirects counts NackNotHome redirects sent to requesters
	// that routed a lock request to a stale home.
	CHomeRedirects
	// CTransferFailures counts directive-driven replica transfers whose
	// carriage to the destination daemon failed (unreachable or timed
	// out), tallied by the source daemon.
	CTransferFailures
	// CReleaseFailures counts RELEASELOCKs the release carriage could not
	// deliver (home and re-resolved route both unreachable, or the node
	// closed first), tallied by the sending site; the hold then falls to
	// its lease.
	CReleaseFailures
	numCounters
)

// counterNames are the exported instrument names (Prometheus style).
var counterNames = [numCounters]string{
	CAcquireRequests:   "mocha_acquire_requests_total",
	CGrants:            "mocha_grants_total",
	CReleases:          "mocha_releases_total",
	CLeaseBreaks:       "mocha_lease_breaks_total",
	CBans:              "mocha_bans_total",
	CDaemonPolls:       "mocha_daemon_polls_total",
	CPushes:            "mocha_pushes_total",
	CPushAcks:          "mocha_push_acks_total",
	CTransfersFull:     "mocha_transfers_full_total",
	CTransfersDelta:    "mocha_transfers_delta_total",
	CDeltaFallbacks:    "mocha_delta_fallbacks_total",
	CTransfersHybrid:   "mocha_transfers_hybrid_total",
	CTransfersMNet:     "mocha_transfers_mnet_total",
	CTransferBytes:     "mocha_transfer_bytes_total",
	CApplies:           "mocha_applies_total",
	CStreamDials:       "mocha_stream_dials_total",
	CStreamAccepts:     "mocha_stream_accepts_total",
	CStreamBytesOut:    "mocha_stream_bytes_out_total",
	CStreamBytesIn:     "mocha_stream_bytes_in_total",
	CMsgsSent:          "mocha_mnet_messages_sent_total",
	CMsgsDelivered:     "mocha_mnet_messages_delivered_total",
	CRetransmits:       "mocha_mnet_retransmits_total",
	CSendFailures:      "mocha_mnet_send_failures_total",
	CQueueDrops:        "mocha_mnet_queue_drops_total",
	CSendBatches:       "mocha_mnet_send_batches_total",
	CSendBatchPkts:     "mocha_mnet_send_batch_packets_total",
	CFlushDrops:        "mocha_mnet_flush_drops_total",
	CRelayPushes:       "mocha_relay_pushes_total",
	CRelayAcks:         "mocha_relay_acks_total",
	CRelayFanout:       "mocha_relay_fanout_total",
	CRelayFallbacks:    "mocha_relay_fallbacks_total",
	CHomeMigrations:    "mocha_home_migrations_total",
	CHandoffsOut:       "mocha_home_handoffs_out_total",
	CHandoffsIn:        "mocha_home_handoffs_in_total",
	CStandbyUpdates:    "mocha_standby_updates_total",
	CStandbyPromotions: "mocha_standby_promotions_total",
	CHomeRedirects:     "mocha_home_redirects_total",
	CTransferFailures:  "mocha_transfer_failures_total",
	CReleaseFailures:   "mocha_release_failures_total",
}

// Name returns the counter's exported name.
func (c Counter) Name() string { return counterNames[c] }

// Gauge identifies one point-in-time gauge instrument.
type Gauge int

const (
	// GSyncQueueDepth is the total number of acquire requests queued
	// across every sync shard.
	GSyncQueueDepth Gauge = iota
	// GSyncLocks is the number of lock records the synchronization
	// thread currently manages.
	GSyncLocks
	// GWheelTimers is the number of timers armed on the retransmit
	// timer wheel (sampled by the endpoint's gap-sweep job).
	GWheelTimers
	// GFlushQueue is the number of outbound packets waiting in the
	// endpoint's transmit flush queue.
	GFlushQueue
	// GRelayBuckets is the number of locality buckets the dissemination
	// overlay's most recent plan grouped the sharers into.
	GRelayBuckets
	numGauges
)

var gaugeNames = [numGauges]string{
	GSyncQueueDepth: "mocha_sync_queue_depth",
	GSyncLocks:      "mocha_sync_locks",
	GWheelTimers:    "mocha_timer_wheel_timers",
	GFlushQueue:     "mocha_mnet_flush_queue",
	GRelayBuckets:   "mocha_relay_buckets",
}

// Name returns the gauge's exported name.
func (g Gauge) Name() string { return gaugeNames[g] }

// NumShardDepths bounds the per-shard queue-depth gauge array. Shards
// beyond it fold onto earlier slots, which only blurs attribution.
const NumShardDepths = 64

// NumRelayScores bounds the per-site relay-quality gauge array. Sites
// beyond it fold onto earlier slots, which only blurs attribution.
const NumRelayScores = 64

// NumHomeLocks bounds the per-home lock-count gauge array. Manager sites
// beyond it fold onto earlier slots, which only blurs attribution.
const NumHomeLocks = 64

// Registry is the lock-free instrument store. All mutating methods are
// safe for any number of concurrent writers — every instrument is an
// atomic — and all are no-ops on a nil receiver, which is the disabled
// plane. Construct with NewRegistry.
type Registry struct {
	clock atomic.Pointer[netsim.Clock]

	counters    [numCounters]atomic.Int64
	gauges      [numGauges]atomic.Int64
	shardDepths [NumShardDepths]atomic.Int64
	relayScores [NumRelayScores]atomic.Int64
	homeLocks   [NumHomeLocks]atomic.Int64
	standbyRTT  [NumHomeLocks]atomic.Int64 // nanoseconds
	hists       [numHists]hist

	spanHead atomic.Uint64
	spans    [spanRingSize]atomic.Pointer[SpanRecord]
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// SetClock shares a simulation clock with the registry so span ticks and
// snapshot ticks land on the same monotonic axis as check.Recorder
// history events (cross-referenceable by seed). Nil-safe; call before
// traffic starts.
func (r *Registry) SetClock(c *netsim.Clock) {
	if r == nil || c == nil {
		return
	}
	r.clock.Store(c)
}

// tick advances and returns the shared clock, or 0 without one.
func (r *Registry) tick() uint64 {
	if c := r.clock.Load(); c != nil {
		return c.Tick()
	}
	return 0
}

// now reads the shared clock without advancing it.
func (r *Registry) now() uint64 {
	if r == nil {
		return 0
	}
	if c := r.clock.Load(); c != nil {
		return c.Now()
	}
	return 0
}

// Inc adds one to a counter.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// Add adds n to a counter.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// CounterValue reads a counter (0 on a nil registry).
func (r *Registry) CounterValue(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// GaugeAdd moves a gauge by delta (negative to decrement).
func (r *Registry) GaugeAdd(g Gauge, delta int64) {
	if r == nil {
		return
	}
	r.gauges[g].Add(delta)
}

// GaugeSet overwrites a gauge.
func (r *Registry) GaugeSet(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// GaugeValue reads a gauge (0 on a nil registry).
func (r *Registry) GaugeValue(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// ShardDepthAdd moves one sync shard's queue-depth gauge.
func (r *Registry) ShardDepthAdd(shard int, delta int64) {
	if r == nil {
		return
	}
	if shard < 0 {
		shard = -shard
	}
	r.shardDepths[shard%NumShardDepths].Add(delta)
}

// RelayScoreSet publishes one site's dissemination-relay quality score in
// milli-units (1000 = perfect).
func (r *Registry) RelayScoreSet(site uint32, milli int64) {
	if r == nil {
		return
	}
	r.relayScores[site%NumRelayScores].Store(milli)
}

// RelayScoreValue reads one site's published relay score (0 on a nil
// registry or a never-scored site).
func (r *Registry) RelayScoreValue(site uint32) int64 {
	if r == nil {
		return 0
	}
	return r.relayScores[site%NumRelayScores].Load()
}

// HomeLockAdd moves one manager site's lock-count gauge: the number of
// lock records it currently homes under consistent-hash placement.
func (r *Registry) HomeLockAdd(site uint32, delta int64) {
	if r == nil {
		return
	}
	r.homeLocks[site%NumHomeLocks].Add(delta)
}

// HomeLockValue reads one manager site's homed-lock count (0 on a nil
// registry).
func (r *Registry) HomeLockValue(site uint32) int64 {
	if r == nil {
		return 0
	}
	return r.homeLocks[site%NumHomeLocks].Load()
}

// StandbyRTTSet publishes the probe round trip to the standby a manager
// site chose (0: chosen without a measurement, the ring-successor
// fallback). Shares NumHomeLocks' folding.
func (r *Registry) StandbyRTTSet(site uint32, d time.Duration) {
	if r == nil {
		return
	}
	r.standbyRTT[site%NumHomeLocks].Store(int64(d))
}

// StandbyRTTValue reads one manager site's published standby round trip
// (0 on a nil registry or before the site chose).
func (r *Registry) StandbyRTTValue(site uint32) time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.standbyRTT[site%NumHomeLocks].Load())
}

// Observe records one duration into a latency histogram.
func (r *Registry) Observe(h HistID, d time.Duration) {
	if r == nil {
		return
	}
	r.hists[h].observe(d)
}

// Hist snapshots one histogram (zero-valued on a nil registry).
func (r *Registry) Hist(h HistID) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.hists[h].snapshot()
}
