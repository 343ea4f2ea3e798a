// Package overlay is Mocha's locality-aware dissemination overlay. It
// clusters sharing sites into buckets by measured round-trip time — from
// the origin first, then from each elected relay to its members, as the
// relays report it — elects one relay per cluster, and plans release-time
// pushes so the releaser's uplink carries one frame per region instead of
// one per sharer; the relay re-fans the version over its cheap local links
// (core/disseminate.go speaks the RelayPush/RelayAck protocol the plan
// drives). The tracker has no RTT source of its own: callers feed it with
// Observe.
//
// Relays are scored continuously: every observed ack pulls a peer's score
// toward perfect, every loss or pathologically slow aggregated ack pulls
// it toward zero, and a peer below the health floor is never elected — so
// a sick relay demotes itself after a couple of bad rounds and its bucket
// degrades to direct pushes instead of losing versions. All planning is
// deterministic given the same observations (ties break on the lowest
// site ID), which keeps the seeded simulation harnesses replayable.
package overlay

import (
	"sort"
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// Config parameterizes a Tracker. The zero value is usable: defaults are
// filled in by NewTracker.
type Config struct {
	// BucketWidth is the RTT quantum: peers whose smoothed RTT falls in the
	// same BucketWidth-wide band share a locality bucket, and inside a
	// bucket a member stays with its relay unless the relay's measured hop
	// to it is at least BucketWidth. Default 12ms — the regional WAN
	// geography's RTT distance step, far above an in-region hop and the
	// backbone's per-link jitter (up to 2 ms a hop), far below any
	// cross-region round trip.
	BucketWidth time.Duration
	// Alpha is the EWMA weight of a new sample (0 < Alpha <= 1). Default
	// 0.5: two consecutive losses demote a perfect peer below the default
	// health floor, which makes failure detection fast and deterministic.
	Alpha float64
	// HealthFloor is the minimum score a peer needs to be electable as a
	// relay. Default 0.5.
	HealthFloor float64
	// SlowFactor caps how much slower than its own RTT a relay's
	// aggregated ack may be before the ack counts against the relay
	// instead of for it. The re-fan adds local round trips on top of the
	// relay hop, so the cap is generous: ack latency above
	// SlowFactor × (2 × RTT) is "slow". Default 16.
	SlowFactor float64
	// Metrics receives relay-score gauge updates (nil-safe).
	Metrics *obs.Registry
}

// DefaultBucketWidth is Config.BucketWidth's default: the RTT distance
// step that separates one locality band from the next. core names a home's
// standby by the same width, so "near" means one thing everywhere.
const DefaultBucketWidth = 12 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.BucketWidth <= 0 {
		c.BucketWidth = DefaultBucketWidth
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.HealthFloor <= 0 {
		c.HealthFloor = 0.5
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = 16
	}
	return c
}

// peer is one remote site's observed quality state.
type peer struct {
	rtt    time.Duration // smoothed request RTT; valid only if hasRTT
	hasRTT bool
	ackLat time.Duration // smoothed aggregated-ack latency; 0 until first ack
	score  float64       // 1 = perfect, 0 = dead; starts at 1
	acks   int64
	losses int64
}

// sitePair is an unordered pair of sites, lower ID first.
type sitePair struct{ lo, hi wire.SiteID }

func pairOf(a, b wire.SiteID) sitePair {
	if a > b {
		a, b = b, a
	}
	return sitePair{a, b}
}

// hopStat is what relays have reported about one pair's mutual distance:
// the fastest push round trip between them and how many were seen.
type hopStat struct {
	min time.Duration
	n   int
}

// Tracker accumulates per-peer RTT and relay-quality observations, plus
// the relay-to-member hops relays report, and plans locality-bucketed
// dissemination. All methods are safe for concurrent use.
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	peers map[wire.SiteID]*peer
	hops  map[sitePair]hopStat
}

// NewTracker builds an empty tracker.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{
		cfg:   cfg.withDefaults(),
		peers: make(map[wire.SiteID]*peer),
		hops:  make(map[sitePair]hopStat),
	}
}

// get returns the peer record, creating a perfect-score one. Caller holds mu.
func (t *Tracker) get(site wire.SiteID) *peer {
	p := t.peers[site]
	if p == nil {
		p = &peer{score: 1}
		t.peers[site] = p
	}
	return p
}

// publish pushes the peer's score gauge. Caller holds mu.
func (t *Tracker) publish(site wire.SiteID, p *peer) {
	t.cfg.Metrics.RelayScoreSet(uint32(site), int64(p.score*1000))
}

// Observe records one request-RTT sample for a peer — the signal locality
// buckets are built from — and nudges its score toward healthy (a peer we
// can complete round trips with is alive).
func (t *Tracker) Observe(site wire.SiteID, rtt time.Duration) {
	if rtt < 0 {
		return
	}
	t.mu.Lock()
	p := t.get(site)
	if p.hasRTT {
		a := t.cfg.Alpha
		p.rtt = time.Duration(a*float64(rtt) + (1-a)*float64(p.rtt))
	} else {
		p.rtt = rtt
		p.hasRTT = true
	}
	p.score += t.cfg.Alpha * (1 - p.score)
	t.publish(site, p)
	t.mu.Unlock()
}

// ObserveAck records a relay's aggregated-ack latency. A timely ack pulls
// the score toward perfect; an ack slower than SlowFactor × (2 × RTT)
// counts as a slow round and pulls the score down instead, so a relay that
// answers but crawls is demoted and routed around. Ack latency includes
// the relay's whole local re-fan, so it deliberately does NOT feed the RTT
// estimate used for bucketing.
func (t *Tracker) ObserveAck(site wire.SiteID, lat time.Duration) {
	t.mu.Lock()
	p := t.get(site)
	p.acks++
	if p.ackLat == 0 {
		p.ackLat = lat
	} else {
		a := t.cfg.Alpha
		p.ackLat = time.Duration(a*float64(lat) + (1-a)*float64(p.ackLat))
	}
	slow := p.hasRTT && float64(lat) > t.cfg.SlowFactor*2*float64(p.rtt)
	if slow {
		p.score -= t.cfg.Alpha * p.score
	} else {
		p.score += t.cfg.Alpha * (1 - p.score)
	}
	t.publish(site, p)
	t.mu.Unlock()
}

// ObserveHop records one push round trip a relay measured to a member of
// its group — the distance between two remote sites, which the origin
// cannot measure itself. The tracker keeps the pair's minimum: a hop
// includes the member's apply and, now and then, a delta-to-full fallback or
// a stall, and only the fastest sample bounds the link.
func (t *Tracker) ObserveHop(relay, member wire.SiteID, hop time.Duration) {
	if relay == member || hop < 0 {
		return
	}
	k := pairOf(relay, member)
	t.mu.Lock()
	st := t.hops[k]
	if st.n == 0 || hop < st.min {
		st.min = hop
	}
	st.n++
	t.hops[k] = st
	t.mu.Unlock()
}

// far reports whether a member is known to sit at least a BucketWidth from
// its relay. One slow sample proves nothing (a GC pause, a delta-to-full
// fallback), so a pair is far only once two samples agree; a pair nobody
// measured is near.
//
// A far verdict stops the relay pushing to the member, and with that the
// samples that could overturn it — and two slow samples do happen together:
// a relay re-fanning full copies over an unsplit bucket queues its in-region
// copies behind the backbone ones on its own uplink. So the verdict is
// suspended on the relay's 4th, 8th, 16th, ... ack: that one release is
// planned as if the pair were unknown, the relay measures it again, and the
// pair's minimum either drops below the width for good or stands. Caller
// holds mu.
func (t *Tracker) far(relay, member wire.SiteID) bool {
	st := t.hops[pairOf(relay, member)]
	if st.n < 2 || st.min < t.cfg.BucketWidth {
		return false
	}
	acks := t.peers[relay].acks
	return acks < 4 || acks&(acks-1) != 0
}

// ObserveLoss records a failed or timed-out exchange with a peer, pulling
// its score toward dead. With the default Alpha, two consecutive losses
// drop a perfect peer below the default health floor.
func (t *Tracker) ObserveLoss(site wire.SiteID) {
	t.mu.Lock()
	p := t.get(site)
	p.losses++
	p.score -= t.cfg.Alpha * p.score
	t.publish(site, p)
	t.mu.Unlock()
}

// Score reports a peer's current quality score in [0, 1]. Unobserved
// peers score a perfect 1 (innocent until proven slow).
func (t *Tracker) Score(site wire.SiteID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.peers[site]; p != nil {
		return p.score
	}
	return 1
}

// RTT reports a peer's smoothed request RTT and whether one is known.
func (t *Tracker) RTT(site wire.SiteID) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.peers[site]; p != nil && p.hasRTT {
		return p.rtt, true
	}
	return 0, false
}

// Healthy reports whether a peer is electable as a relay.
func (t *Tracker) Healthy(site wire.SiteID) bool {
	return t.Score(site) >= t.cfg.HealthFloor
}

// Group is one locality cluster of a dissemination plan: the releaser
// sends the version once to Relay, which re-fans it to Members.
type Group struct {
	Relay   wire.SiteID
	Members []wire.SiteID
}

// Plan is a locality-bucketed dissemination plan: one relay hop per group
// plus direct pushes for sites the overlay cannot (or should not) cluster.
type Plan struct {
	Groups []Group
	Direct []wire.SiteID
}

// Plan buckets targets by smoothed RTT from this site, then splits each
// bucket by mutual distance: it elects one healthy relay (highest score;
// ties break on the lowest site ID), groups with it every member not known
// to be far from it, and repeats on the members left over — so two regions
// that are equally far from the origin but far from each other each get
// their own relay once a relay has reported the hops. Targets fall back to
// Direct when the overlay has no RTT sample for them, when they end up
// alone (a relay hop would only add latency), or when nobody left in their
// bucket is healthy. Output is deterministic given the same observations:
// groups by ascending bucket then election order, members and directs
// ascending by site ID.
func (t *Tracker) Plan(targets []wire.SiteID) Plan {
	t.mu.Lock()
	buckets := make(map[int][]wire.SiteID)
	var plan Plan
	for _, site := range targets {
		p := t.peers[site]
		if p == nil || !p.hasRTT {
			plan.Direct = append(plan.Direct, site)
			continue
		}
		b := int(p.rtt / t.cfg.BucketWidth)
		buckets[b] = append(buckets[b], site)
	}
	keys := make([]int, 0, len(buckets))
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	for _, b := range keys {
		left := buckets[b]
		sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
		for len(left) > 0 {
			relay, ok := t.elect(left)
			if !ok {
				// No healthy candidate: degrade what is left to direct.
				plan.Direct = append(plan.Direct, left...)
				break
			}
			var members, rest []wire.SiteID
			for _, site := range left {
				switch {
				case site == relay:
				case t.far(relay, site):
					rest = append(rest, site)
				default:
					members = append(members, site)
				}
			}
			if len(members) == 0 {
				plan.Direct = append(plan.Direct, relay)
			} else {
				plan.Groups = append(plan.Groups, Group{Relay: relay, Members: members})
			}
			left = rest
		}
	}
	t.mu.Unlock()
	sort.Slice(plan.Direct, func(i, j int) bool { return plan.Direct[i] < plan.Direct[j] })
	t.cfg.Metrics.GaugeSet(obs.GRelayBuckets, int64(len(plan.Groups)))
	return plan
}

// elect picks the relay among sites (ascending by ID): the healthy one with
// the highest score, the lowest ID on a tie. Caller holds mu.
func (t *Tracker) elect(sites []wire.SiteID) (relay wire.SiteID, ok bool) {
	best := -1.0
	for _, site := range sites {
		if p := t.peers[site]; p.score >= t.cfg.HealthFloor && p.score > best {
			best = p.score
			relay = site
		}
	}
	return relay, best >= 0
}
