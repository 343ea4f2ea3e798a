package obs

import (
	"sync/atomic"
	"time"
)

// HistID identifies one fixed-bucket latency histogram. Each protocol
// phase of an operation gets its own histogram, so one acquire decomposes
// into queue-wait → request-RTT → transfer → apply by reading four
// instruments.
type HistID int

const (
	// HAcquireTotal is the whole Lock() round trip.
	HAcquireTotal HistID = iota
	// HQueueWait is the local-gate wait before the request is sent.
	HQueueWait
	// HRequestRTT is request-sent to grant-received.
	HRequestRTT
	// HTransferWait is grant-received to consistent-version-present.
	HTransferWait
	// HApply is the daemon's unmarshal-and-install of arrived payloads.
	HApply
	// HReleaseTotal is the whole Unlock() round trip.
	HReleaseTotal
	// HDisseminate is the release-time UR push fan-out.
	HDisseminate
	// HDaemonPoll is one VERSION poll round trip at the sync thread.
	HDaemonPoll
	// HGrantDeliver is the sync thread's grant send.
	HGrantDeliver
	// HRelayHop is a bucket relay's push-to-aggregated-ack round trip as
	// observed by the releaser.
	HRelayHop
	// HReleaseAck is the release carriage's send-to-ack time for one
	// RELEASELOCK: part of HReleaseTotal with a fixed home, outside it
	// under home placement, where Unlock does not wait for it.
	HReleaseAck
	// HStandbyStream is a home's synchronous record stream to its standby
	// before a GRANT leaves (streamHoldSync): part of the requester's
	// request RTT under home placement, not of HGrantDeliver.
	HStandbyStream
	numHists
)

var histNames = [numHists]string{
	HAcquireTotal:  "mocha_acquire_seconds",
	HQueueWait:     "mocha_acquire_queue_wait_seconds",
	HRequestRTT:    "mocha_acquire_request_rtt_seconds",
	HTransferWait:  "mocha_acquire_transfer_wait_seconds",
	HApply:         "mocha_apply_seconds",
	HReleaseTotal:  "mocha_release_seconds",
	HDisseminate:   "mocha_disseminate_seconds",
	HDaemonPoll:    "mocha_daemon_poll_seconds",
	HGrantDeliver:  "mocha_grant_deliver_seconds",
	HRelayHop:      "mocha_relay_hop_seconds",
	HReleaseAck:    "mocha_release_ack_seconds",
	HStandbyStream: "mocha_standby_stream_seconds",
}

var phaseNames = [numHists]string{
	HAcquireTotal:  "acquire",
	HQueueWait:     "queue_wait",
	HRequestRTT:    "request_rtt",
	HTransferWait:  "transfer_wait",
	HApply:         "apply",
	HReleaseTotal:  "release",
	HDisseminate:   "disseminate",
	HDaemonPoll:    "daemon_poll",
	HGrantDeliver:  "grant_deliver",
	HRelayHop:      "relay_hop",
	HReleaseAck:    "release_ack",
	HStandbyStream: "standby_stream",
}

// Name returns the histogram's exported name.
func (h HistID) Name() string { return histNames[h] }

// PhaseName returns the short phase label spans tag durations with.
func (h HistID) PhaseName() string { return phaseNames[h] }

// BucketBounds are the shared upper bounds (inclusive) of every latency
// histogram, spanning sub-millisecond native operation up to the paper's
// multi-second WAN transfers; a final implicit +Inf bucket catches the
// rest. Fixed buckets keep observation lock-free: one atomic add.
var BucketBounds = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// NumBuckets counts the bucket array including the +Inf overflow bucket.
const NumBuckets = len(BucketBounds) + 1

// hist is one lock-free fixed-bucket histogram.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	for i, b := range BucketBounds {
		if d <= b {
			return i
		}
	}
	return len(BucketBounds)
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
	}
	if s.Count == 0 {
		return s
	}
	s.Buckets = make([]int64, NumBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is one histogram's point-in-time state.
type HistSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum totals all observations.
	Sum time.Duration `json:"sum_ns"`
	// Buckets holds per-bucket observation counts aligned with
	// BucketBounds plus the final +Inf bucket; nil when Count is 0.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Mean returns the average observation.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper bound on the p-th percentile (0 < p <= 100):
// the bound of the first bucket whose cumulative count reaches the rank.
// Observations past the last bound report the largest bound.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			if i < len(BucketBounds) {
				return BucketBounds[i]
			}
			return BucketBounds[len(BucketBounds)-1]
		}
	}
	return BucketBounds[len(BucketBounds)-1]
}
