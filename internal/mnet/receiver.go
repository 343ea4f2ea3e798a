package mnet

import (
	"time"

	"mocha/internal/obs"
)

// deliveredRingCap bounds the per-peer duplicate-suppression memory.
const deliveredRingCap = 4096

// reasmExpiry bounds how long a partial message waits for its missing
// fragments before being discarded (its sender died or gave up).
const reasmExpiry = 30 * time.Second

// receive is the datagram handler: it classifies raw packets.
func (e *Endpoint) receive(from string, pkt []byte) {
	if len(pkt) == 0 {
		return
	}
	switch pkt[0] {
	case ptData:
		e.handleData(from, pkt)
	case ptAck:
		e.handleAck(pkt)
	default:
		e.stats.badPackets.Add(1)
	}
}

// handleData processes one arriving data fragment: acknowledge,
// reassemble, deduplicate, restore order, and queue for dispatch.
func (e *Endpoint) handleData(from string, pkt []byte) {
	p, err := decodeData(pkt, e.cfg.Key)
	if err != nil {
		e.stats.badPackets.Add(1)
		return
	}
	// Always acknowledge, even duplicates: the sender may have missed the
	// previous ack. The flusher owns the buffer and coalesces same-peer
	// acks into one transport batch.
	e.fl.enqueue(from, encodeAck(p.msgID, p.fragIdx, p.boot, e.cfg.Key))

	e.stats.fragmentsRecv.Add(1)

	pr := e.getPeer(from)
	pr.mu.Lock()
	defer pr.mu.Unlock()

	if pr.rxBoot != p.boot {
		if pr.staleBoot(p.boot) {
			// A delayed packet from a superseded incarnation. Dropping it
			// is the point of remembering old boots: treating it as "the
			// sender restarted" would wipe the live incarnation's ordering
			// and duplicate state — ordering.next would restart at 0 while
			// the live sender (whose fragments were already acked) is at
			// seq N, parking its messages in pending forever, and the
			// cleared delivered map would re-admit old duplicates.
			e.countDuplicate()
			return
		}
		if pr.rxBoot != 0 {
			// The sender restarted: its sequence numbers and message IDs
			// begin anew. Keep only our transmit state toward it; the old
			// incarnation's ordering, reassembly, and duplicate memory
			// would silently swallow everything the reborn endpoint says.
			pr.rememberStaleBoot(pr.rxBoot)
			pr.order = make(map[uint16]*ordering)
			pr.reasm = make(map[uint64]*reassembly)
			pr.delivered = make(map[uint64]struct{})
			pr.deliveredRing = nil
		}
		pr.rxBoot = p.boot
	}

	if _, dup := pr.delivered[p.msgID]; dup {
		e.countDuplicate()
		return
	}
	if p.fragCount == 1 {
		// Single-fragment fast path (every control message): copy the
		// payload out of the transport's delivery buffer — recycled the
		// moment this handler returns — straight into the message.
		pr.markDelivered(p.msgID)
		q := queued{from: from, srcPort: p.srcPort, data: append([]byte(nil), p.payload...), frags: 1}
		e.deliverInOrder(pr, p.dstPort, p.seq, q)
		return
	}
	r, ok := pr.reasm[p.msgID]
	if !ok {
		r = &reassembly{
			frags:   make([][]byte, p.fragCount),
			total:   int(p.fragCount),
			srcPort: p.srcPort,
			dstPort: p.dstPort,
			seq:     p.seq,
			started: time.Now(),
		}
		pr.reasm[p.msgID] = r
	}
	if int(p.fragCount) != r.total || int(p.fragIdx) >= r.total {
		// Inconsistent fragmentation metadata; drop the fragment.
		e.stats.badPackets.Add(1)
		return
	}
	if r.frags[p.fragIdx] != nil {
		e.countDuplicate()
		return
	}
	// The payload aliases the transport's delivery buffer, which is
	// recycled the moment this handler returns; a fragment that must
	// outlive the call (await its siblings) needs its own copy. The
	// single-fragment path below copies into the assembled message
	// before returning either way.
	r.frags[p.fragIdx] = append([]byte(nil), p.payload...)
	r.have++
	r.bytes += len(p.payload)
	if r.have < r.total {
		return
	}

	// Message complete.
	delete(pr.reasm, p.msgID)
	pr.markDelivered(p.msgID)
	data := make([]byte, 0, r.bytes)
	for _, f := range r.frags {
		data = append(data, f...)
	}
	q := queued{from: from, srcPort: r.srcPort, data: data, frags: r.total}
	e.deliverInOrder(pr, r.dstPort, r.seq, q)
}

// countDuplicate increments the duplicate counter.
func (e *Endpoint) countDuplicate() {
	e.stats.duplicates.Add(1)
}

// staleBootsCap bounds how many superseded sender incarnations a peer
// remembers. Delayed packets from an incarnation older than the cap's
// reach would reset receive state spuriously, but that needs more than
// staleBootsCap restarts of one sender while such a packet is in flight.
const staleBootsCap = 4

// staleBoot reports whether b is a superseded incarnation of this sender.
// Caller holds pr.mu.
func (pr *peer) staleBoot(b uint32) bool {
	for _, s := range pr.staleBoots {
		if s == b {
			return true
		}
	}
	return false
}

// rememberStaleBoot records a superseded incarnation so its delayed
// packets are dropped instead of mistaken for yet another restart. Caller
// holds pr.mu.
func (pr *peer) rememberStaleBoot(b uint32) {
	if len(pr.staleBoots) >= staleBootsCap {
		copy(pr.staleBoots, pr.staleBoots[1:])
		pr.staleBoots = pr.staleBoots[:staleBootsCap-1]
	}
	pr.staleBoots = append(pr.staleBoots, b)
}

// markDelivered records a completed msgID, evicting the oldest once the
// ring is full. Caller holds pr.mu.
func (pr *peer) markDelivered(msgID uint64) {
	pr.delivered[msgID] = struct{}{}
	pr.deliveredRing = append(pr.deliveredRing, msgID)
	if len(pr.deliveredRing) > deliveredRingCap {
		evict := pr.deliveredRing[0]
		pr.deliveredRing = pr.deliveredRing[1:]
		delete(pr.delivered, evict)
	}
}

// deliverInOrder implements the library's "sequenced delivery": messages
// from one sender to one port are handed up in send order. Caller holds
// pr.mu.
func (e *Endpoint) deliverInOrder(pr *peer, dstPort uint16, seq uint64, q queued) {
	ord, ok := pr.order[dstPort]
	if !ok {
		ord = &ordering{pending: make(map[uint64]pendingMsg)}
		pr.order[dstPort] = ord
	}
	if seq < ord.next {
		// Sequence already delivered: a late duplicate.
		e.countDuplicate()
		return
	}
	ord.pending[seq] = pendingMsg{msg: q, arrived: time.Now()}
	e.drainOrdering(ord, dstPort)
}

// drainOrdering hands consecutive pending messages to the port queue.
// Caller holds pr.mu.
func (e *Endpoint) drainOrdering(ord *ordering, dstPort uint16) {
	for {
		pm, ok := ord.pending[ord.next]
		if !ok {
			return
		}
		delete(ord.pending, ord.next)
		ord.next++
		e.enqueue(dstPort, pm.msg)
	}
}

// enqueue places a complete in-order message on its port queue, dropping
// (and counting) if the port is missing or its queue is full — exactly the
// overload behaviour of a bounded daemon mailbox.
func (e *Endpoint) enqueue(dstPort uint16, q queued) {
	e.mu.Lock()
	port := e.ports[dstPort]
	e.mu.Unlock()
	if port == nil {
		e.stats.queueDrops.Add(1)
		e.cfg.Metrics.Inc(obs.CQueueDrops)
		return
	}
	select {
	case port.queue <- q:
	default:
		e.stats.queueDrops.Add(1)
		e.cfg.Metrics.Inc(obs.CQueueDrops)
	}
}

// releaseGaps skips sequence numbers whose messages will never arrive (the
// sender failed or abandoned the send) and expires stale partial
// reassemblies. Without this, one lost message from a dead sender would
// stall the port forever.
func (e *Endpoint) releaseGaps() {
	e.mu.Lock()
	peers := make([]*peer, 0, len(e.peers))
	for _, pr := range e.peers {
		peers = append(peers, pr)
	}
	gap := e.cfg.GapTimeout
	e.mu.Unlock()

	now := time.Now()
	for _, pr := range peers {
		pr.mu.Lock()
		for dstPort, ord := range pr.order {
			if len(ord.pending) == 0 {
				continue
			}
			if _, ok := ord.pending[ord.next]; ok {
				// Head of line present; drain may simply not have run.
				e.drainOrdering(ord, dstPort)
				continue
			}
			var oldest time.Time
			minSeq := uint64(0)
			first := true
			for seq, pm := range ord.pending {
				if first || seq < minSeq {
					minSeq = seq
				}
				if first || pm.arrived.Before(oldest) {
					oldest = pm.arrived
				}
				first = false
			}
			if now.Sub(oldest) >= gap {
				ord.next = minSeq
				e.drainOrdering(ord, dstPort)
			}
		}
		for id, r := range pr.reasm {
			if now.Sub(r.started) >= reasmExpiry {
				delete(pr.reasm, id)
			}
		}
		pr.mu.Unlock()
	}
}
