package mnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/netsim"
	"mocha/internal/obs"
)

// outMsg tracks one in-flight reliable message.
type outMsg struct {
	id       uint64
	peerAddr string
	peer     *peer

	// remaining counts fragments not yet acknowledged (zeroed on failure).
	// A late timer firing reads it to skip a settled message without
	// taking its mutex.
	remaining atomic.Int32

	mu     sync.Mutex
	frags  map[uint32]*outFrag // sent but unacknowledged
	total  int
	acked  int
	failed bool
	// timer is the message's retransmission deadline on the wheel;
	// stopped when the message settles.
	timer netsim.WheelTimer
	done  chan error // buffered(1); receives nil on full ack or the failure
}

type outFrag struct {
	buf      *[]byte // pooled encoded packet; nil once released
	lastSent time.Time
	retries  int
}

// ackFrag records an acknowledgment. It reports whether the message is now
// fully acknowledged.
func (m *outMsg) ackFrag(idx uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return false
	}
	f, ok := m.frags[idx]
	if !ok {
		return false
	}
	delete(m.frags, idx)
	m.releaseFragLocked(f)
	m.releaseTokenLocked()
	m.remaining.Add(-1)
	m.acked++
	if m.acked == m.total {
		m.timer.Stop()
		m.done <- nil
		return true
	}
	return false
}

// fail marks the message failed, releases its window tokens and packet
// buffers, and signals the waiting sender. Idempotent.
func (m *outMsg) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed || m.acked == m.total {
		return
	}
	m.failed = true
	m.timer.Stop()
	for _, f := range m.frags {
		m.releaseTokenLocked()
		m.releaseFragLocked(f)
	}
	m.frags = map[uint32]*outFrag{}
	m.remaining.Store(0)
	m.done <- err
}

// releaseFragLocked returns a fragment's packet buffer to the pool.
// Caller holds m.mu.
func (m *outMsg) releaseFragLocked(f *outFrag) {
	if f.buf != nil {
		putPktBuf(f.buf)
		f.buf = nil
	}
}

// releaseTokenLocked frees one window slot.
func (m *outMsg) releaseTokenLocked() {
	select {
	case <-m.peer.window:
	default:
	}
}

// Appender is a message that can encode itself directly into the
// transmit buffer, skipping the intermediate flat []byte a plain Send
// requires. When the encoding fits one fragment, SendAppender writes it
// straight after the packet header in a pooled buffer — the zero-copy
// grant/push path. wire.Appender adapts any wire payload to this
// interface.
type Appender interface {
	// EncodedSizeHint returns the expected encoded size; it sizes the
	// packet buffer and picks the single-fragment fast path. An
	// underestimate only costs a fallback copy, never corruption.
	EncodedSizeHint() int
	// AppendEncode appends the encoded message to buf and returns the
	// extended slice.
	AppendEncode(buf []byte) []byte
}

// Send transmits one message reliably to a full MNet address
// ("endpoint/port"). It fragments the message, charges the modelled
// user-level fragmentation cost, transmits under the per-peer window, and
// blocks until every fragment is acknowledged, the context expires, or
// retransmissions are exhausted. A returned error therefore means the peer
// did not confirm the message — the failure-detection signal Section 4 of
// the paper builds on.
func (p *Port) Send(ctx context.Context, to string, data []byte) error {
	return p.sendMsg(ctx, to, data, nil)
}

// SendAppender is Send for self-encoding messages: the message marshals
// itself directly into the packet buffer when it fits one fragment,
// eliminating the intermediate encode allocation and payload copy on the
// grant and push hot paths. Larger messages fall back to the fragmenting
// path transparently.
func (p *Port) SendAppender(ctx context.Context, to string, msg Appender) error {
	return p.sendMsg(ctx, to, nil, msg)
}

func (p *Port) sendMsg(ctx context.Context, to string, data []byte, app Appender) error {
	e := p.ep
	peerAddr, dstPort, err := SplitAddr(to)
	if err != nil {
		return err
	}

	id := e.nextMsg.Add(1)

	pr := e.getPeer(peerAddr)
	pr.mu.Lock()
	seq := pr.nextSeq[dstPort]
	pr.nextSeq[dstPort] = seq + 1
	pr.mu.Unlock()

	mss := e.dg.MTU() - dataHeaderLen
	if len(e.cfg.Key) > 0 {
		mss -= macLen
	}

	hdr := dataPacket{
		srcPort:   p.num,
		dstPort:   dstPort,
		msgID:     id,
		seq:       seq,
		fragCount: 1,
		boot:      e.boot,
	}

	// pre is the single-fragment packet encoded in place by an Appender;
	// when the encoding overflows one fragment, flatten and fall back.
	var pre *[]byte
	if app != nil {
		bp := getPktBuf(dataHeaderLen + app.EncodedSizeHint() + macSize(e.cfg.Key))
		buf := app.AppendEncode((*bp)[:dataHeaderLen])
		payloadLen := len(buf) - dataHeaderLen
		if payloadLen <= mss {
			netsim.Charge(e.cfg.Cost.FragmentCost(payloadLen))
			writeDataHeader(buf, hdr)
			*bp = appendMAC(buf, e.cfg.Key)
			pre = bp
		} else {
			data = append([]byte(nil), buf[dataHeaderLen:]...)
			putPktBuf(bp)
		}
	}
	var chunks [][]byte
	if pre == nil {
		chunks = split(data, mss)
	} else {
		chunks = [][]byte{nil} // placeholder; the packet is already built
	}
	hdr.fragCount = uint32(len(chunks))

	m := &outMsg{
		id:       id,
		peerAddr: peerAddr,
		peer:     pr,
		frags:    make(map[uint32]*outFrag, len(chunks)),
		total:    len(chunks),
		done:     make(chan error, 1),
	}
	m.remaining.Store(int32(len(chunks)))
	// Register under the same critical section as the closed check, so a
	// concurrent Close cannot miss the message and leave it unfailed.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		if pre != nil {
			putPktBuf(pre)
		}
		return ErrClosed
	}
	e.outMsgs[id] = m
	e.mu.Unlock()
	e.stats.messagesSent.Add(1)
	e.cfg.Metrics.Inc(obs.CMsgsSent)
	defer func() {
		e.mu.Lock()
		delete(e.outMsgs, id)
		e.mu.Unlock()
	}()

	// One wheel timer covers the whole message: each firing retransmits
	// whatever is overdue and rearms, so settled messages cost the wheel
	// nothing.
	m.mu.Lock()
	if !m.failed {
		m.timer = e.wheel.AfterFunc(e.cfg.RTO, func() { e.msgTimeout(m) })
	}
	m.mu.Unlock()

	for i := range chunks {
		if pre == nil {
			// The paper's library fragments "at user level running as
			// interpreted byte code"; the cost model makes that visible.
			netsim.Charge(e.cfg.Cost.FragmentCost(len(chunks[i])))
		}

		select {
		case pr.window <- struct{}{}:
		case <-ctx.Done():
			m.fail(ctx.Err())
			return fmt.Errorf("mnet: send to %s: %w", to, ctx.Err())
		case <-e.done:
			m.fail(ErrClosed)
			return ErrClosed
		}

		var bp *[]byte
		if pre != nil {
			bp = pre
		} else {
			hdr.fragIdx = uint32(i)
			hdr.payload = chunks[i]
			bp = encodeData(hdr, e.cfg.Key)
		}

		// Hand the flusher its own pooled copy so the original stays
		// pinned for retransmission and Send never blocks on the
		// transport. Copy before the frag is published: once it sits in
		// m.frags, an ack or a wheel-fired failure may recycle bp
		// concurrently.
		cp := getPktBuf(len(*bp))
		copy(*cp, *bp)

		m.mu.Lock()
		if m.failed {
			m.mu.Unlock()
			putPktBuf(bp)
			putPktBuf(cp)
			select {
			case <-m.peer.window:
			default:
			}
			break
		}
		m.frags[uint32(i)] = &outFrag{buf: bp, lastSent: time.Now()}
		m.mu.Unlock()

		e.fl.enqueue(peerAddr, cp)
		e.stats.fragmentsSent.Add(1)
	}

	select {
	case err := <-m.done:
		if err != nil {
			e.stats.sendFailures.Add(1)
			e.cfg.Metrics.Inc(obs.CSendFailures)
			return fmt.Errorf("mnet: send to %s: %w", to, err)
		}
		return nil
	case <-ctx.Done():
		m.fail(ctx.Err())
		e.stats.sendFailures.Add(1)
		e.cfg.Metrics.Inc(obs.CSendFailures)
		return fmt.Errorf("mnet: send to %s: %w", to, ctx.Err())
	case <-e.done:
		return ErrClosed
	}
}

// split cuts data into MSS-sized chunks, always returning at least one
// chunk so empty messages work.
func split(data []byte, mss int) [][]byte {
	if len(data) == 0 {
		return [][]byte{nil}
	}
	chunks := make([][]byte, 0, (len(data)+mss-1)/mss)
	for len(data) > 0 {
		n := len(data)
		if n > mss {
			n = mss
		}
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// msgTimeout is the wheel-fired retransmission deadline for one message.
// It resends whatever is overdue, fails the message once a fragment
// exhausts its retries, and rearms itself while fragments remain in
// flight — so retransmission work is proportional to the traffic that
// actually timed out, not to the whole in-flight window.
func (e *Endpoint) msgTimeout(m *outMsg) {
	if m.remaining.Load() == 0 {
		return
	}
	rto := e.cfg.RTO
	// The wheel rounds deadlines up, and fragments are stamped slightly
	// after the timer is armed; a strict age >= RTO check would skip the
	// first firing and double the effective timeout.
	due := rto - rto/4
	now := time.Now()

	m.mu.Lock()
	if m.failed || m.acked == m.total {
		m.mu.Unlock()
		return
	}
	var resend []*[]byte
	gaveUp := false
	for _, f := range m.frags {
		if now.Sub(f.lastSent) < due {
			continue
		}
		if f.retries >= e.cfg.MaxRetries {
			gaveUp = true
			break
		}
		f.retries++
		f.lastSent = now
		// Copy the packet: once m.mu drops, an ack may recycle f.buf
		// while the flusher is still reading the resend.
		cp := getPktBuf(len(*f.buf))
		copy(*cp, *f.buf)
		resend = append(resend, cp)
	}
	if !gaveUp {
		m.timer = e.wheel.AfterFunc(rto, func() { e.msgTimeout(m) })
	}
	m.mu.Unlock()

	if gaveUp {
		for _, cp := range resend {
			putPktBuf(cp)
		}
		m.fail(ErrSendFailed)
		e.mu.Lock()
		delete(e.outMsgs, m.id)
		e.mu.Unlock()
		return
	}
	if len(resend) > 0 {
		for _, cp := range resend {
			e.fl.enqueue(m.peerAddr, cp)
		}
		e.stats.retransmits.Add(int64(len(resend)))
		e.cfg.Metrics.Add(obs.CRetransmits, int64(len(resend)))
	}
}

// handleAck processes an acknowledgment packet. An ack echoing another
// incarnation's boot was earned by a predecessor endpoint's packet — a
// delayed duplicate from before a restart — and must not confirm one of
// this incarnation's messages that happens to reuse the message ID.
func (e *Endpoint) handleAck(pkt []byte) {
	msgID, fragIdx, boot, err := decodeAck(pkt, e.cfg.Key)
	if err != nil {
		e.stats.badPackets.Add(1)
		return
	}
	if boot != e.boot {
		return
	}
	e.mu.Lock()
	m := e.outMsgs[msgID]
	e.mu.Unlock()
	if m == nil {
		return
	}
	m.ackFrag(fragIdx)
}
