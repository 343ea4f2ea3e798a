package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// carrier moves one replica-carrying frame to one site and reports whether
// the receiver applied it, using the paper's two protocols. "In the first
// system, all communication is performed using Mocha's network object
// library. ... For the second prototype, small 'control' messages used for
// lock acquisition and directing data transfers are sent using Mocha's
// network object library. For the actual transfer of replica data ...
// Mocha's network communication is used for establishing a TCP connection
// (i.e., propagating TCP port numbers) and the actual transfer of replica
// data is done using TCP."
//
// It is the only code that knows a frame can travel two ways: which way a
// frame goes, the stream handshake and cache, the fall back from a failed
// stream to mnet, and which acknowledgment a send waits for all stay
// behind send and receive. What the frame holds, who gets it and in which
// form is the business of the code above (transfer.go, disseminate.go).
type carrier struct {
	node *Node
	port *mnet.Port // the transfer port

	nextReq atomic.Uint64
	// established counts stream connection setups, exposed for tests and
	// the connection-reuse ablation.
	established atomic.Int64
	// abandonedListeners counts stream listeners whose dialer never
	// connected before the transfer timeout (stranded handshakes).
	abandonedListeners atomic.Int64

	// pushAcks holds the sends waiting for a push's PushAck or DeltaNack
	// over mnet.
	pushAcks ackTable[pushResult]

	streamMu sync.Mutex
	streams  map[uint64]chan string // RequestID -> remote stream address
	// conns caches established streams per destination when the
	// connection-reuse extension is enabled.
	conns map[wire.SiteID]*cachedStream
}

// cachedStream serializes frames over one reused connection.
type cachedStream struct {
	mu   sync.Mutex
	conn transport.Conn
}

// pushResult is what a waiting push sender learns about one target:
// either the update was applied, or the target needs a full copy because
// it could not use the offered delta.
type pushResult struct {
	needFull bool
}

// frame is one marshaled ReplicaData, PushUpdate or ReplicaDelta with the
// lock and version its acknowledgment will name.
type frame struct {
	lock    wire.LockID
	version uint64
	blob    []byte
}

// useStream decides per transfer whether the hybrid stream path applies.
func (c *carrier) useStream(size int) bool {
	switch c.node.cfg.Mode {
	case ModeHybrid:
		return true
	case ModeAdaptive:
		return size > adaptiveThreshold
	default:
		return false
	}
}

// send moves one frame to a site and reports whether the receiver applied
// it (false: a delta it could not use — it wants the full copy). port names
// the receiving dispatcher and with it the acknowledgment: PortXfer frames
// are pushes, answered with a PushAck or DeltaNack that send waits for;
// PortDaemon frames are a directive's copy, fire-and-forget over mnet as in
// the prototype — the waiting acquirer is woken by the apply, and a delta
// the destination cannot use comes back later as a DeltaNack
// (handleDeltaNack), so those report applied optimistically. Over a stream
// the one-byte frame ack answers both. A stream that fails (listener
// unreachable, broken connection) falls back to mnet rather than strand the
// receiver.
func (c *carrier) send(ctx context.Context, site wire.SiteID, port uint16, f frame) (applied bool, err error) {
	if c.useStream(len(f.blob)) {
		ack, err := c.sendOverStream(ctx, site, f.blob)
		if err == nil {
			c.carried(obs.CTransfersHybrid, "hybrid transfer", site, f)
			return ack == ackApplied, nil
		}
		if c.node.log.On() {
			c.node.log.Logf("fault", "hybrid transfer of lock %d to site %d failed (%v); falling back to mnet", f.lock, site, err)
		}
	}

	ep, err := c.node.endpointAddr(site)
	if err != nil {
		return false, err
	}
	addr := mnet.JoinAddr(ep, port)
	// A directive's copy leaves from the daemon port and nobody answers it;
	// a push leaves from the transfer port, registered for its answer
	// first: on a zero-delay network the ack can arrive inside the Send call.
	local := c.port
	var ackCh chan pushResult
	if port == PortDaemon {
		local = c.node.daemon.port
	} else {
		key := pushKey{f.lock, f.version, site}
		ackCh = c.pushAcks.expect(key)
		defer c.pushAcks.drop(key)
	}
	if err := local.Send(ctx, addr, f.blob); err != nil {
		return false, fmt.Errorf("mnet transfer to site %d: %w", site, err)
	}
	c.carried(obs.CTransfersMNet, "mnet transfer", site, f)
	if ackCh == nil {
		return true, nil
	}
	select {
	case res := <-ackCh:
		return !res.needFull, nil
	case <-ctx.Done():
		return false, fmt.Errorf("await push ack from site %d: %w", site, ctx.Err())
	}
}

// carried tallies and logs one frame delivered over one of the two paths.
func (c *carrier) carried(path obs.Counter, what string, site wire.SiteID, f frame) {
	c.node.obs().Inc(path)
	if c.node.log.On() {
		c.node.log.Log("xfer", what,
			obs.I("lock", int64(f.lock)), obs.I("version", int64(f.version)),
			obs.I("dest", int64(site)), obs.I("bytes", int64(len(f.blob))))
	}
}

// receive is the one place an arriving ReplicaData, PushUpdate or
// ReplicaDelta is applied and acknowledged, whichever dispatcher it reached.
// A frame that came over mnet is answered through the receiving port: a
// PushAck for an applied (or stale) push, a DeltaNack for a delta this site
// cannot apply, nothing for a transfer — its acquirer is woken through the
// version waiters — or for the cached-replica namespace, which nobody waits
// on. A stream frame has a nil port; its caller writes the ack byte from
// applied. handled is false for any other payload.
func (c *carrier) receive(p wire.Payload, port *mnet.Port, from string) (applied, handled bool) {
	n := c.node
	var reply wire.Payload
	applied = true
	switch msg := p.(type) {
	case *wire.ReplicaData:
		n.applyReplicaData(msg)
	case *wire.PushUpdate:
		n.applyPush(msg)
		if msg.Lock != CachedLock {
			reply = &wire.PushAck{Lock: msg.Lock, Site: n.cfg.Site, Version: msg.Version}
		}
	case *wire.ReplicaDelta:
		if err := n.applyDelta(msg); err != nil {
			if n.log.On() {
				n.log.Logf("xfer", "delta of lock %d v%d from site %d rejected: %v", msg.Lock, msg.Version, msg.From, err)
			}
			applied = false
			reply = &wire.DeltaNack{
				Lock:      msg.Lock,
				Site:      n.cfg.Site,
				Version:   msg.Version,
				RequestID: msg.RequestID,
				Push:      msg.Push,
				Reason:    err.Error(),
			}
		} else if msg.Push {
			reply = &wire.PushAck{Lock: msg.Lock, Site: n.cfg.Site, Version: msg.Version}
		}
	default:
		return false, false
	}
	if port != nil && reply != nil {
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout)
		defer cancel()
		if err := port.SendAppender(ctx, from, wire.Appender{P: reply}); err != nil {
			if n.log.On() {
				n.log.Logf("xfer", "reply %s to %s failed: %v", reply.Kind(), from, err)
			}
		}
	}
	return applied, true
}

// sendOverStream performs the hybrid protocol's bulk move: propagate a
// stream address over MNet, dial, write one length-prefixed frame, await
// the receiver's application acknowledgment, and tear the connection down.
// With the connection-reuse extension enabled, established connections are
// cached per destination and the per-transfer setup/teardown the paper
// identifies as the hybrid protocol's weakness disappears after the first
// transfer. Execution costs for the stream path are charged from the cost
// model's kernel-speed parameters.
func (c *carrier) sendOverStream(ctx context.Context, dest wire.SiteID, blob []byte) (byte, error) {
	if c.node.cfg.Stack == nil {
		return 0, fmt.Errorf("no stream stack configured")
	}
	if !c.node.cfg.StreamReuse {
		conn, err := c.establishStream(ctx, dest)
		if err != nil {
			return 0, err
		}
		defer func() {
			netsim.Charge(c.node.cfg.Cost.StreamTeardown)
			_ = conn.Close()
		}()
		return c.writeFrame(ctx, conn, blob)
	}

	// Connection-reuse path: one cached stream per destination. A slot
	// whose transfers keep failing is evicted from the cache entirely, so
	// a dead destination does not pin a broken entry (and its connection)
	// until node shutdown.
	cs := c.cached(dest)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if cs.conn == nil {
			conn, err := c.establishStream(ctx, dest)
			if err != nil {
				c.evictCached(dest, cs)
				return 0, err
			}
			cs.conn = conn
		}
		ack, err := c.writeFrame(ctx, cs.conn, blob)
		if err != nil {
			// The cached connection broke; drop it and retry once with a
			// fresh one.
			netsim.Charge(c.node.cfg.Cost.StreamTeardown)
			_ = cs.conn.Close()
			cs.conn = nil
			continue
		}
		return ack, nil
	}
	c.evictCached(dest, cs)
	return 0, fmt.Errorf("stream to site %d failed after reconnect", dest)
}

// evictCached removes a destination's cache slot (closing any remaining
// connection) so the next transfer starts from a clean slate. The caller
// holds cs.mu; the slot is only removed if it is still the current one.
func (c *carrier) evictCached(dest wire.SiteID, cs *cachedStream) {
	if cs.conn != nil {
		_ = cs.conn.Close()
		cs.conn = nil
	}
	c.streamMu.Lock()
	if c.conns[dest] == cs {
		delete(c.conns, dest)
	}
	c.streamMu.Unlock()
}

// closeStreams tears down every cached stream connection.
func (c *carrier) closeStreams() {
	c.streamMu.Lock()
	conns := c.conns
	c.conns = make(map[wire.SiteID]*cachedStream)
	c.streamMu.Unlock()
	for _, cs := range conns {
		cs.mu.Lock()
		if cs.conn != nil {
			_ = cs.conn.Close()
			cs.conn = nil
		}
		cs.mu.Unlock()
	}
}

// cachedConnCount reports how many destinations currently have a cache
// slot (for tests).
func (c *carrier) cachedConnCount() int {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	return len(c.conns)
}

// cached returns the destination's stream cache slot.
func (c *carrier) cached(dest wire.SiteID) *cachedStream {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	cs, ok := c.conns[dest]
	if !ok {
		cs = &cachedStream{}
		c.conns[dest] = cs
	}
	return cs
}

// establishStream performs the hybrid handshake: propagate a listener
// address over MNet, dial it, and charge the modelled socket-setup cost.
func (c *carrier) establishStream(ctx context.Context, dest wire.SiteID) (transport.Conn, error) {
	reqID := c.nextReq.Add(1)
	ch := make(chan string, 1)
	c.streamMu.Lock()
	c.streams[reqID] = ch
	c.streamMu.Unlock()
	defer func() {
		c.streamMu.Lock()
		delete(c.streams, reqID)
		c.streamMu.Unlock()
	}()

	xferAddr, err := c.node.xferAddr(dest)
	if err != nil {
		return nil, err
	}
	req := &wire.OpenStreamRequest{RequestID: reqID, From: c.node.cfg.Site}
	if err := c.port.Send(ctx, xferAddr, wire.Marshal(req)); err != nil {
		return nil, fmt.Errorf("propagate stream address: %w", err)
	}

	var streamAddr string
	select {
	case streamAddr = <-ch:
	case <-ctx.Done():
		return nil, fmt.Errorf("await stream address: %w", ctx.Err())
	}

	conn, err := c.node.cfg.Stack.DialStream(streamAddr)
	if err != nil {
		return nil, fmt.Errorf("dial stream: %w", err)
	}
	c.established.Add(1)
	netsim.Charge(c.node.cfg.Cost.StreamSetup)
	return conn, nil
}

// streamOpened hands an OpenStreamReply's listener address to the
// handshake waiting for it.
func (c *carrier) streamOpened(msg *wire.OpenStreamReply) {
	c.streamMu.Lock()
	ch := c.streams[msg.RequestID]
	c.streamMu.Unlock()
	if ch != nil {
		select {
		case ch <- msg.Addr:
		default:
		}
	}
}

// Stream application-ack values: the receiver applied the frame, or (for
// delta frames) could not and wants a full copy instead.
const (
	ackNeedFull byte = 0
	ackApplied  byte = 1
)

// writeFrame sends one length-prefixed frame and awaits the receiver's
// one-byte application ack, so the measured transfer includes remote
// processing, matching the MNet path's semantics. The ack byte is
// returned: full frames always come back ackApplied, delta frames may
// come back ackNeedFull.
func (c *carrier) writeFrame(ctx context.Context, conn transport.Conn, blob []byte) (byte, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
	netsim.Charge(c.node.cfg.Cost.StreamWriteCost(len(blob) + 4))
	if _, err := conn.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("write frame header: %w", err)
	}
	if _, err := conn.Write(blob); err != nil {
		return 0, fmt.Errorf("write frame: %w", err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	} else {
		_ = transport.SetReadDeadlineConn(conn, c.node.cfg.TransferTimeout)
	}
	// A cancelled transfer (the service closing) must not sit out the
	// deadline waiting for an ack.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetReadDeadline(time.Now()) })
	defer stop()
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return 0, fmt.Errorf("await stream ack: %w", err)
	}
	return ack[0], nil
}

// acceptStream services an OpenStreamRequest: open a fresh listener,
// start a goroutine that receives one frame on it, and propagate the
// listener address back over MNet.
func (c *carrier) acceptStream(replyTo string, req *wire.OpenStreamRequest) {
	if c.node.cfg.Stack == nil {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "stream request from site %d but no stack configured", req.From)
		}
		return
	}
	ln, err := c.node.cfg.Stack.ListenStream()
	if err != nil {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "listen for site %d: %v", req.From, err)
		}
		return
	}
	go c.receiveStream(ln)

	reply := &wire.OpenStreamReply{RequestID: req.RequestID, Addr: ln.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), c.node.cfg.RequestTimeout)
	defer cancel()
	if err := c.port.Send(ctx, replyTo, wire.Marshal(reply)); err != nil {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "stream reply to %s failed: %v", replyTo, err)
		}
		_ = ln.Close()
	}
}

// receiveStream accepts one connection and serves frames on it until the
// peer closes (one frame for the per-transfer protocol, many when the
// sender reuses connections), applying and acknowledging each.
func (c *carrier) receiveStream(ln transport.Listener) {
	// Bound how long an abandoned listener lingers. The deadline sits on
	// the shared timer wheel: transfer timeouts are coarse (seconds), so
	// a tick of wheel slack is free and the runtime heap stays clear of
	// one-shot timers that almost always cancel.
	var timedOut atomic.Bool
	timer := netsim.DefaultWheel().AfterFunc(c.node.cfg.TransferTimeout, func() {
		timedOut.Store(true)
		_ = ln.Close()
	})
	conn, err := ln.Accept()
	timer.Stop()
	_ = ln.Close()
	if err != nil {
		if timedOut.Load() {
			// The dialer propagated a handshake but never connected
			// (firewalled, crashed, or fell back to MNet); make the
			// stranded listener visible instead of exiting silently.
			c.abandonedListeners.Add(1)
			if c.node.log.On() {
				c.node.log.Logf("fault", "stream listener %s abandoned: no connection within %v", ln.Addr(), c.node.cfg.TransferTimeout)
			}
		}
		return
	}
	defer func() { _ = conn.Close() }()

	for c.serveFrame(conn) {
	}
}

// serveFrame reads, applies, and acknowledges one frame, reporting whether
// the connection is still usable.
func (c *carrier) serveFrame(conn transport.Conn) bool {
	// Reused connections may idle between transfers indefinitely; bound
	// each frame read generously rather than the connection lifetime.
	idle := 10 * c.node.cfg.TransferTimeout
	_ = transport.SetReadDeadlineConn(conn, idle)
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return false
	}
	size := binary.BigEndian.Uint32(hdr[:])
	const maxFrame = 64 << 20
	if size > maxFrame {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "stream frame of %d bytes rejected", size)
		}
		return false
	}
	blob := make([]byte, size)
	if _, err := io.ReadFull(conn, blob); err != nil {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "stream frame read: %v", err)
		}
		return false
	}

	p, err := wire.Unmarshal(blob)
	if err != nil {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "stream frame decode: %v", err)
		}
		return false
	}
	applied, handled := c.receive(p, nil, "")
	if !handled {
		if c.node.log.On() {
			c.node.log.Logf("xfer", "unexpected %s over stream", p.Kind())
		}
		return false
	}
	// One-byte application ack: data received and applied (or, for a
	// delta the receiver could not use, a request for the full copy).
	ack := ackApplied
	if !applied {
		ack = ackNeedFull
	}
	_, err = conn.Write([]byte{ack})
	return err == nil
}
