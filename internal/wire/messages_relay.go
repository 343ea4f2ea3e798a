package wire

import "errors"

// This file defines the dissemination relay-tree messages. At release time
// a holder with many wide-area sharers no longer pushes one PushUpdate per
// site: the locality overlay (internal/overlay) buckets sharers by
// measured RTT, and the releaser sends one RelayPush per bucket to an
// elected relay. The relay applies the version itself, re-fans it to the
// bucket's remaining members over its (local, cheap) links, and answers
// with one RelayAck aggregating every member that confirmed application —
// so the releaser's uplink carries O(regions) frames per release instead
// of O(sharers).

// relayFormMarker, in a frame's 16-bit count slot, selects the frame's
// second form: the delta form of a RelayPush (in the payload-count slot)
// and the need-full form of a RelayAck (in the site-set word-count slot).
// No real frame counts that high, so a full-form RelayPush keeps the
// encoding it had before the second forms existed, and — unlike an optional
// trailing field — every strict prefix of either form still fails to
// decode.
const relayFormMarker = 0xFFFF

// RelayPush asks a bucket relay to apply a new replica version and re-fan
// it to Targets on the origin's behalf. Targets is the full bucket
// membership (the relay excludes itself and the origin when re-fanning, so
// a stale plan cannot make it push back upstream).
//
// The frame has two forms. The full form carries the complete marshaled
// Replicas. The delta form (S29 x S33) carries Delta instead — the
// release's push delta from FromVersion to Version — plus UpToDate, the
// bucket members the grant listed as holding FromVersion: the relay patches
// its own copy, offers the same delta to those members, and serves any
// full-copy fallback from its post-apply payload cache. A frame is in the
// delta form exactly when Delta is non-empty; FromVersion and UpToDate are
// not encoded otherwise.
type RelayPush struct {
	Lock     LockID
	Origin   SiteID
	Version  uint64
	Replicas []ReplicaPayload
	Targets  SiteSet

	FromVersion uint64
	UpToDate    SiteSet
	Delta       []DeltaPayload
}

// Kind implements Payload.
func (*RelayPush) Kind() Kind { return KindRelayPush }

func (m *RelayPush) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Origin))
	w.U64(m.Version)
	if len(m.Delta) == 0 {
		encodePayloads(w, m.Replicas)
	} else {
		w.U16(relayFormMarker)
		w.U64(m.FromVersion)
		m.UpToDate.encode(w)
		encodeDeltas(w, m.Delta)
	}
	m.Targets.encode(w)
}

func (m *RelayPush) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Origin = SiteID(r.U32())
	m.Version = r.U64()
	if n := r.U16(); n != relayFormMarker {
		m.Replicas = decodePayloadsN(r, int(n))
	} else {
		m.FromVersion = r.U64()
		m.UpToDate = decodeSiteSet(r)
		m.Delta = decodeDeltas(r)
	}
	m.Targets = decodeSiteSet(r)
	return r.Err()
}

func (m *RelayPush) encodedSize() int {
	n := 4 + 4 + 8 + m.Targets.encodedSize()
	if len(m.Delta) == 0 {
		return n + payloadsSize(m.Replicas)
	}
	return n + 2 + 8 + m.UpToDate.encodedSize() + deltasSize(m.Delta)
}

// RelayAck is the relay's aggregated answer to a RelayPush: Acked is the
// set of sites — the relay itself plus every re-fanned member whose
// PushAck arrived — that confirmed application of Version. The origin
// counts Acked into the up-to-date set and direct-pushes any member the
// relay could not reach. HopMicros runs parallel to Acked.Sites(): the
// push round trip, in microseconds, the relay measured to that member (0
// for the relay itself) — the relay-to-member distance the origin's overlay
// clusters on and cannot measure from where it stands. NeedFull answers a
// delta-form RelayPush the relay could not apply (no base, checksum
// mismatch): nothing was applied or re-fanned, so there is no Acked set and
// no hop to send, and the origin re-sends the full form.
type RelayAck struct {
	Lock      LockID
	Relay     SiteID
	Version   uint64
	Acked     SiteSet
	HopMicros []uint32
	NeedFull  bool
}

// errRelayHops rejects an acked-form RelayAck whose hop list does not pair
// up with its Acked set.
var errRelayHops = errors.New("wire: relay ack hop count does not match its acked set")

// Kind implements Payload.
func (*RelayAck) Kind() Kind { return KindRelayAck }

func (m *RelayAck) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Relay))
	w.U64(m.Version)
	if m.NeedFull {
		w.U16(relayFormMarker)
		return
	}
	m.Acked.encode(w)
	w.U16(uint16(len(m.HopMicros)))
	for _, us := range m.HopMicros {
		w.U32(us)
	}
}

func (m *RelayAck) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Relay = SiteID(r.U32())
	m.Version = r.U64()
	n := r.U16()
	if n == relayFormMarker {
		m.NeedFull = true
		return r.Err()
	}
	m.Acked = decodeSiteSetN(r, int(n))
	hops := int(r.U16())
	if r.Err() == nil && hops != m.Acked.Len() {
		return errRelayHops
	}
	for i := 0; i < hops; i++ {
		m.HopMicros = append(m.HopMicros, r.U32())
	}
	return r.Err()
}

func (m *RelayAck) encodedSize() int {
	if m.NeedFull {
		return 4 + 4 + 8 + 2
	}
	return 4 + 4 + 8 + m.Acked.encodedSize() + 2 + 4*len(m.HopMicros)
}
