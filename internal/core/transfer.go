package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// transferService moves replica data between daemons using the paper's two
// protocols. "In the first system, all communication is performed using
// Mocha's network object library. ... For the second prototype, small
// 'control' messages used for lock acquisition and directing data
// transfers are sent using Mocha's network object library. For the actual
// transfer of replica data ... Mocha's network communication is used for
// establishing a TCP connection (i.e., propagating TCP port numbers) and
// the actual transfer of replica data is done using TCP."
type transferService struct {
	node *Node
	port *mnet.Port

	nextReq atomic.Uint64
	// established counts stream connection setups, exposed for tests and
	// the connection-reuse ablation.
	established atomic.Int64
	// pushMarshals counts PushUpdate wire marshals — the hook the
	// marshal-once pipeline is verified against: one per dissemination,
	// however many sites receive the blob.
	pushMarshals atomic.Int64
	// abandonedListeners counts stream listeners whose dialer never
	// connected before the transfer timeout (stranded handshakes).
	abandonedListeners atomic.Int64
	// replicaBytes counts the bytes of replica-carrying frames this node
	// has sent (full and delta alike) — the bytes-on-wire metric delta
	// transfer is judged by.
	replicaBytes atomic.Int64
	// deltaSends / fullSends count replica frames sent as deltas vs full
	// copies; deltaFallbacks counts deltas the receiver could not apply
	// (or refused), answered with a full copy.
	deltaSends     atomic.Int64
	fullSends      atomic.Int64
	deltaFallbacks atomic.Int64

	// tracker is the locality overlay behind Config.DisseminationTree:
	// it buckets sharers by measured RTT, elects bucket relays, and
	// scores them by observed ack latency and loss.
	tracker *overlay.Tracker
	// spanCursor marks how far into the obs span ring the tracker feed
	// has read; each dissemination drains the acquire spans recorded
	// since, so RTT estimates refresh continuously instead of only from
	// an initial probe phase.
	spanMu     sync.Mutex
	spanCursor uint64
	// uplinkSends counts dissemination pushes initiated from this node's
	// own uplink (direct pushes and relay pushes alike). The tree
	// ablation's O(regions)-vs-O(sharers) claim is measured against it.
	uplinkSends atomic.Int64

	// relayAcks demultiplexes aggregated RelayAcks back to the
	// dissemination round waiting on them, keyed like push acks by
	// (lock, version, relay site).
	relayMu   sync.Mutex
	relayAcks map[pushKey]chan *wire.RelayAck

	// carriage tracks the goroutines moving directive-driven transfers to
	// their destinations (see sendReplicas); ctx bounds them to the
	// service's lifetime, so close() can cancel and then wait for them.
	// cancel and carriage.Add both run under mu: no carriage starts once
	// the context is cancelled, so Add never races Wait.
	ctx      context.Context
	cancel   context.CancelFunc
	carriage sync.WaitGroup

	mu      sync.Mutex
	streams map[uint64]chan string // RequestID -> remote stream address
	// conns caches established streams per destination when the
	// connection-reuse extension is enabled.
	conns map[wire.SiteID]*cachedStream
}

// cachedStream serializes frames over one reused connection.
type cachedStream struct {
	mu   sync.Mutex
	conn transport.Conn
}

func newTransferService(n *Node) (*transferService, error) {
	port, err := n.ep.OpenPort(PortXfer)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &transferService{
		node:      n,
		port:      port,
		tracker:   overlay.NewTracker(overlay.Config{Metrics: n.cfg.Metrics}),
		relayAcks: make(map[pushKey]chan *wire.RelayAck),
		ctx:       ctx,
		cancel:    cancel,
		streams:   make(map[uint64]chan string),
		conns:     make(map[wire.SiteID]*cachedStream),
	}
	port.SetHandler(t.handle)
	return t, nil
}

// handle processes transfer-control traffic.
func (t *transferService) handle(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "bad message: %v", err)
		}
		return
	}
	switch msg := p.(type) {
	case *wire.OpenStreamRequest:
		t.acceptStream(m.From, msg)
	case *wire.OpenStreamReply:
		t.mu.Lock()
		ch := t.streams[msg.RequestID]
		t.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg.Addr:
			default:
			}
		}
	case *wire.PushUpdate:
		// Push updates may arrive here when sent over the transfer port;
		// apply and acknowledge exactly as the daemon does.
		t.node.applyPush(msg)
		if msg.Lock != CachedLock {
			ack := &wire.PushAck{Lock: msg.Lock, Site: t.node.cfg.Site, Version: msg.Version}
			ctx, cancel := context.WithTimeout(context.Background(), t.node.cfg.RequestTimeout)
			if err := t.port.Send(ctx, m.From, wire.Marshal(ack)); err != nil {
				if t.node.log.On() {
					t.node.log.Logf("xfer", "push ack to %s failed: %v", m.From, err)
				}
			}
			cancel()
		}
	case *wire.ReplicaDelta:
		// Delta pushes arrive on the transfer port like full PushUpdates.
		t.node.handleDeltaArrival(msg, m.From, t.port)
	case *wire.DeltaNack:
		t.handleDeltaNack(msg)
	case *wire.PushAck:
		t.node.client.handle(m)
	case *wire.RelayPush:
		// Re-fanning a bucket takes member round trips; never block the
		// dispatch goroutine on it.
		go t.relayFan(msg, m.From)
	case *wire.RelayAck:
		t.deliverRelayAck(msg)
	default:
		if t.node.log.On() {
			t.node.log.Logf("xfer", "unhandled %s on transfer port", p.Kind())
		}
	}
}

// useStream decides per transfer whether the hybrid stream path applies.
func (t *transferService) useStream(size int) bool {
	switch t.node.cfg.Mode {
	case ModeHybrid:
		return true
	case ModeAdaptive:
		return size > adaptiveThreshold
	default:
		return false
	}
}

// sendReplicas executes a TransferReplica directive from the
// synchronization thread: marshal the lock's local replicas and move them
// to the destination daemon. The uncommitted check, version snapshot,
// marshaling and delta build run on the caller — the daemon dispatcher —
// so directives see the replica state they arrived at, in arrival order,
// and that cost serializes with the site's other daemon work as in the
// prototype. Carriage — the sends and the wait for the destination's ack —
// runs on its own tracked goroutine: a slow or dead destination must not
// park the dispatcher while the REPLICADATA of this site's own pending
// acquire queues behind it. The returned error covers the dispatcher half
// only; a failed carriage is counted (obs.CTransferFailures) and logged.
func (t *transferService) sendReplicas(dir *wire.TransferReplica) error {
	if t.node.fireFault(FaultContext{
		Point: FPDropMidTransfer, Peer: dir.Dest, Lock: dir.Lock, Version: dir.Version,
	}).Drop {
		return fmt.Errorf("core: transfer of lock %d to site %d: fault injected at %s", dir.Lock, dir.Dest, FPDropMidTransfer)
	}
	st := t.node.getLockLocal(dir.Lock)
	st.mu.Lock()
	if st.uncommitted {
		// An exclusive hold mutated this content in place and never
		// committed (live hold, crash, or lease break): the bytes no
		// longer vouch for the labeled version. Serving them would leak a
		// dirty read to the grantee.
		st.mu.Unlock()
		return fmt.Errorf("core: transfer of lock %d to site %d refused: local replicas carry uncommitted writes", dir.Lock, dir.Dest)
	}
	version := st.version
	payloads, marshalErr := st.marshalPayloadsLocked(t.node.cfg.Codec)
	var delta *wire.ReplicaDelta
	if marshalErr == nil && t.node.cfg.DeltaTransfer && dir.DestVersion > 0 && dir.DestVersion < version {
		delta = st.buildDeltaLocked(t.node.cfg.Site, dir.DestVersion, version, payloads, dir.RequestID, false)
	}
	st.mu.Unlock()
	if marshalErr != nil {
		return marshalErr
	}

	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		return ErrClosed
	}
	t.carriage.Add(1)
	t.mu.Unlock()
	if t.node.histEnabled() {
		t.node.recordHist(wire.HistoryEvent{
			Kind: wire.HistTransferSend, Site: t.node.cfg.Site, Lock: dir.Lock,
			Version: version, AuxVersion: dir.DestVersion,
			Sites: wire.NewSiteSet(dir.Dest), Note: "directive",
		})
	}
	go func() {
		defer t.carriage.Done()
		ctx, cancel := context.WithTimeout(t.ctx, t.node.cfg.TransferTimeout)
		defer cancel()
		if err := t.carryReplicas(ctx, dir, version, payloads, delta); err != nil {
			t.node.obs().Inc(obs.CTransferFailures)
			if t.node.log.On() {
				t.node.log.Logf("fault", "transfer of lock %d to site %d failed: %v", dir.Lock, dir.Dest, err)
			}
		}
	}()
	return nil
}

// carryReplicas moves one directive's prepared replicas to the destination
// daemon down the delta-then-full ladder, over the stream or mnet path, and
// tallies each send the destination acknowledged.
func (t *transferService) carryReplicas(ctx context.Context, dir *wire.TransferReplica, version uint64, payloads []wire.ReplicaPayload, delta *wire.ReplicaDelta) error {
	if delta != nil {
		applied, err := t.sendDeltaTransfer(ctx, dir, delta)
		if err == nil && applied {
			return nil
		}
		if err != nil {
			if t.node.log.On() {
				t.node.log.Logf("fault", "delta transfer of lock %d to site %d failed (%v); sending full copy", dir.Lock, dir.Dest, err)
			}
		} else {
			// The receiver could not apply the patch; ship the full copy.
			t.deltaFallbacks.Add(1)
			t.node.obs().Inc(obs.CDeltaFallbacks)
		}
	}

	rd := &wire.ReplicaData{
		Lock:      dir.Lock,
		From:      t.node.cfg.Site,
		Version:   version,
		RequestID: dir.RequestID,
		Replicas:  payloads,
	}
	blob := wire.Marshal(rd)

	if t.useStream(len(blob)) {
		_, err := t.sendOverStream(ctx, dir.Dest, blob)
		if err == nil {
			t.node.obs().Inc(obs.CTransfersHybrid)
			t.countReplicaSend(len(blob), false)
			if t.node.log.On() {
				t.node.log.Log("xfer", "hybrid transfer",
					obs.I("lock", int64(dir.Lock)), obs.I("version", int64(version)),
					obs.I("dest", int64(dir.Dest)), obs.I("bytes", int64(len(blob))))
			}
			return nil
		}
		// The stream path failed (listener unreachable, broken
		// connection); fall back to the basic protocol rather than strand
		// the waiting acquirer.
		if t.node.log.On() {
			t.node.log.Logf("fault", "hybrid transfer of lock %d to site %d failed (%v); falling back to mnet", dir.Lock, dir.Dest, err)
		}
	}

	addr, err := t.node.daemonAddr(dir.Dest)
	if err != nil {
		return err
	}
	if err := t.node.daemon.port.Send(ctx, addr, blob); err != nil {
		return fmt.Errorf("mnet transfer to site %d: %w", dir.Dest, err)
	}
	t.node.obs().Inc(obs.CTransfersMNet)
	t.countReplicaSend(len(blob), false)
	if t.node.log.On() {
		t.node.log.Log("xfer", "mnet transfer",
			obs.I("lock", int64(dir.Lock)), obs.I("version", int64(version)),
			obs.I("dest", int64(dir.Dest)), obs.I("bytes", int64(len(blob))))
	}
	return nil
}

// sendDeltaTransfer ships a ReplicaDelta for a TransferReplica directive.
// applied=false with a nil error means the receiver (synchronously, over
// the stream path) asked for a full copy. Over mnet the delta is
// fire-and-forget like a full ReplicaData: a rejection comes back later as
// a DeltaNack and handleDeltaNack resends the full copy, so mnet deltas
// report applied=true optimistically.
func (t *transferService) sendDeltaTransfer(ctx context.Context, dir *wire.TransferReplica, delta *wire.ReplicaDelta) (applied bool, err error) {
	blob := wire.Marshal(delta)
	if t.useStream(len(blob)) {
		ack, err := t.sendOverStream(ctx, dir.Dest, blob)
		if err != nil {
			return false, err
		}
		if ack != ackApplied {
			return false, nil
		}
		t.node.obs().Inc(obs.CTransfersHybrid)
		t.countReplicaSend(len(blob), true)
		if t.node.log.On() {
			t.node.log.Log("xfer", "hybrid delta transfer",
				obs.I("lock", int64(dir.Lock)), obs.I("from_version", int64(delta.FromVersion)),
				obs.I("version", int64(delta.Version)), obs.I("dest", int64(dir.Dest)),
				obs.I("bytes", int64(len(blob))))
		}
		return true, nil
	}
	addr, err := t.node.daemonAddr(dir.Dest)
	if err != nil {
		return false, err
	}
	if err := t.node.daemon.port.Send(ctx, addr, blob); err != nil {
		return false, fmt.Errorf("mnet delta transfer to site %d: %w", dir.Dest, err)
	}
	t.node.obs().Inc(obs.CTransfersMNet)
	t.countReplicaSend(len(blob), true)
	if t.node.log.On() {
		t.node.log.Log("xfer", "mnet delta transfer",
			obs.I("lock", int64(dir.Lock)), obs.I("from_version", int64(delta.FromVersion)),
			obs.I("version", int64(delta.Version)), obs.I("dest", int64(dir.Dest)),
			obs.I("bytes", int64(len(blob))))
	}
	return true, nil
}

// countReplicaSend tallies one replica-carrying frame on the wire, in
// the service's own counters and in the observability plane.
func (t *transferService) countReplicaSend(n int, isDelta bool) {
	t.replicaBytes.Add(int64(n))
	t.node.obs().Add(obs.CTransferBytes, int64(n))
	if isDelta {
		t.deltaSends.Add(1)
		t.node.obs().Inc(obs.CTransfersDelta)
	} else {
		t.fullSends.Add(1)
		t.node.obs().Inc(obs.CTransfersFull)
	}
}

// handleDeltaNack reacts to a receiver that could not apply a delta: a
// rejected push is reported to the waiting pushTo via the push-ack
// channel; a rejected transfer is answered with a full retransfer, since
// the directive's sender has moved on.
func (t *transferService) handleDeltaNack(msg *wire.DeltaNack) {
	if t.node.log.On() {
		t.node.log.Logf("xfer", "delta of lock %d v%d rejected by site %d: %s", msg.Lock, msg.Version, msg.Site, msg.Reason)
	}
	if msg.Push {
		// pushTo counts the fallback when it resends the full copy.
		t.node.client.deliverPushResult(msg.Lock, msg.Version, msg.Site, pushResult{needFull: true})
		return
	}
	t.deltaFallbacks.Add(1)
	t.node.obs().Inc(obs.CDeltaFallbacks)
	t.resendFull(msg)
}

// resendFull answers a rejected transfer delta with a full copy of the
// lock's current state (which may meanwhile exceed the rejected version;
// any version at or above it satisfies the waiting acquirer).
func (t *transferService) resendFull(msg *wire.DeltaNack) {
	dir := &wire.TransferReplica{Lock: msg.Lock, Dest: msg.Site, Version: msg.Version, RequestID: msg.RequestID}
	if err := t.sendReplicas(dir); err != nil {
		if t.node.log.On() {
			t.node.log.Logf("fault", "full retransfer of lock %d to site %d failed: %v", msg.Lock, msg.Site, err)
		}
	}
}

// sendOverStream performs the hybrid protocol's bulk move: propagate a
// stream address over MNet, dial, write one length-prefixed frame, await
// the receiver's application acknowledgment, and tear the connection down.
// With the connection-reuse extension enabled, established connections are
// cached per destination and the per-transfer setup/teardown the paper
// identifies as the hybrid protocol's weakness disappears after the first
// transfer. Execution costs for the stream path are charged from the cost
// model's kernel-speed parameters.
func (t *transferService) sendOverStream(ctx context.Context, dest wire.SiteID, frame []byte) (byte, error) {
	if t.node.cfg.Stack == nil {
		return 0, fmt.Errorf("no stream stack configured")
	}
	if !t.node.cfg.StreamReuse {
		conn, err := t.establishStream(ctx, dest)
		if err != nil {
			return 0, err
		}
		defer func() {
			netsim.Charge(t.node.cfg.Cost.StreamTeardown)
			_ = conn.Close()
		}()
		return t.writeFrame(ctx, conn, frame)
	}

	// Connection-reuse path: one cached stream per destination. A slot
	// whose transfers keep failing is evicted from the cache entirely, so
	// a dead destination does not pin a broken entry (and its connection)
	// until node shutdown.
	cs := t.cached(dest)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if cs.conn == nil {
			conn, err := t.establishStream(ctx, dest)
			if err != nil {
				t.evictCached(dest, cs)
				return 0, err
			}
			cs.conn = conn
		}
		ack, err := t.writeFrame(ctx, cs.conn, frame)
		if err != nil {
			// The cached connection broke; drop it and retry once with a
			// fresh one.
			netsim.Charge(t.node.cfg.Cost.StreamTeardown)
			_ = cs.conn.Close()
			cs.conn = nil
			continue
		}
		return ack, nil
	}
	t.evictCached(dest, cs)
	return 0, fmt.Errorf("stream to site %d failed after reconnect", dest)
}

// evictCached removes a destination's cache slot (closing any remaining
// connection) so the next transfer starts from a clean slate. The caller
// holds cs.mu; the slot is only removed if it is still the current one.
func (t *transferService) evictCached(dest wire.SiteID, cs *cachedStream) {
	if cs.conn != nil {
		_ = cs.conn.Close()
		cs.conn = nil
	}
	t.mu.Lock()
	if t.conns[dest] == cs {
		delete(t.conns, dest)
	}
	t.mu.Unlock()
}

// close cancels and waits out in-flight transfer carriage, then tears down
// every cached stream connection; called from Node.Close. Once it returns
// the transfer counters are final.
func (t *transferService) close() {
	t.mu.Lock()
	t.cancel()
	t.mu.Unlock()
	t.carriage.Wait()

	t.mu.Lock()
	conns := t.conns
	t.conns = make(map[wire.SiteID]*cachedStream)
	t.mu.Unlock()
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
func (t *transferService) cachedConnCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// cached returns the destination's stream cache slot.
func (t *transferService) cached(dest wire.SiteID) *cachedStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, ok := t.conns[dest]
	if !ok {
		cs = &cachedStream{}
		t.conns[dest] = cs
	}
	return cs
}

// establishStream performs the hybrid handshake: propagate a listener
// address over MNet, dial it, and charge the modelled socket-setup cost.
func (t *transferService) establishStream(ctx context.Context, dest wire.SiteID) (transport.Conn, error) {
	reqID := t.nextReq.Add(1)
	ch := make(chan string, 1)
	t.mu.Lock()
	t.streams[reqID] = ch
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.streams, reqID)
		t.mu.Unlock()
	}()

	xferAddr, err := t.node.xferAddr(dest)
	if err != nil {
		return nil, err
	}
	req := &wire.OpenStreamRequest{RequestID: reqID, From: t.node.cfg.Site}
	if err := t.port.Send(ctx, xferAddr, wire.Marshal(req)); err != nil {
		return nil, fmt.Errorf("propagate stream address: %w", err)
	}

	var streamAddr string
	select {
	case streamAddr = <-ch:
	case <-ctx.Done():
		return nil, fmt.Errorf("await stream address: %w", ctx.Err())
	}

	conn, err := t.node.cfg.Stack.DialStream(streamAddr)
	if err != nil {
		return nil, fmt.Errorf("dial stream: %w", err)
	}
	t.established.Add(1)
	netsim.Charge(t.node.cfg.Cost.StreamSetup)
	return conn, nil
}

// StreamsEstablished reports how many stream connections this node has set
// up as a sender.
func (n *Node) StreamsEstablished() int64 { return n.xfer.established.Load() }

// AbandonedStreamListeners reports how many hybrid-protocol stream
// listeners timed out without the dialer ever connecting.
func (n *Node) AbandonedStreamListeners() int64 { return n.xfer.abandonedListeners.Load() }

// PushUpdateMarshals reports how many PushUpdate wire blobs this node has
// marshaled for dissemination — exactly one per dissemination round,
// regardless of how many sites the blob fans out to.
func (n *Node) PushUpdateMarshals() int64 { return n.xfer.pushMarshals.Load() }

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
func (t *transferService) writeFrame(ctx context.Context, conn transport.Conn, frame []byte) (byte, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	netsim.Charge(t.node.cfg.Cost.StreamWriteCost(len(frame) + 4))
	if _, err := conn.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("write frame header: %w", err)
	}
	if _, err := conn.Write(frame); err != nil {
		return 0, fmt.Errorf("write frame: %w", err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	} else {
		_ = transport.SetReadDeadlineConn(conn, t.node.cfg.TransferTimeout)
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
func (t *transferService) acceptStream(replyTo string, req *wire.OpenStreamRequest) {
	if t.node.cfg.Stack == nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "stream request from site %d but no stack configured", req.From)
		}
		return
	}
	ln, err := t.node.cfg.Stack.ListenStream()
	if err != nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "listen for site %d: %v", req.From, err)
		}
		return
	}
	go t.receiveStream(ln)

	reply := &wire.OpenStreamReply{RequestID: req.RequestID, Addr: ln.Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), t.node.cfg.RequestTimeout)
	defer cancel()
	if err := t.port.Send(ctx, replyTo, wire.Marshal(reply)); err != nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "stream reply to %s failed: %v", replyTo, err)
		}
		_ = ln.Close()
	}
}

// receiveStream accepts one connection and serves frames on it until the
// peer closes (one frame for the per-transfer protocol, many when the
// sender reuses connections), applying and acknowledging each.
func (t *transferService) receiveStream(ln transport.Listener) {
	// Bound how long an abandoned listener lingers. The deadline sits on
	// the shared timer wheel: transfer timeouts are coarse (seconds), so
	// a tick of wheel slack is free and the runtime heap stays clear of
	// one-shot timers that almost always cancel.
	var timedOut atomic.Bool
	timer := netsim.DefaultWheel().AfterFunc(t.node.cfg.TransferTimeout, func() {
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
			t.abandonedListeners.Add(1)
			if t.node.log.On() {
				t.node.log.Logf("fault", "stream listener %s abandoned: no connection within %v", ln.Addr(), t.node.cfg.TransferTimeout)
			}
		}
		return
	}
	defer func() { _ = conn.Close() }()

	for {
		if !t.serveFrame(conn) {
			return
		}
	}
}

// serveFrame reads, applies, and acknowledges one frame, reporting whether
// the connection is still usable.
func (t *transferService) serveFrame(conn transport.Conn) bool {
	// Reused connections may idle between transfers indefinitely; bound
	// each frame read generously rather than the connection lifetime.
	idle := 10 * t.node.cfg.TransferTimeout
	_ = transport.SetReadDeadlineConn(conn, idle)
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return false
	}
	size := binary.BigEndian.Uint32(hdr[:])
	const maxFrame = 64 << 20
	if size > maxFrame {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "stream frame of %d bytes rejected", size)
		}
		return false
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(conn, frame); err != nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "stream frame read: %v", err)
		}
		return false
	}

	p, err := wire.Unmarshal(frame)
	if err != nil {
		if t.node.log.On() {
			t.node.log.Logf("xfer", "stream frame decode: %v", err)
		}
		return false
	}
	ack := ackApplied
	switch msg := p.(type) {
	case *wire.ReplicaData:
		t.node.applyReplicaData(msg)
	case *wire.PushUpdate:
		t.node.applyPush(msg)
	case *wire.ReplicaDelta:
		if err := t.node.applyDelta(msg); err != nil {
			if t.node.log.On() {
				t.node.log.Logf("xfer", "stream delta of lock %d v%d rejected: %v", msg.Lock, msg.Version, err)
			}
			ack = ackNeedFull
		}
	default:
		if t.node.log.On() {
			t.node.log.Logf("xfer", "unexpected %s over stream", p.Kind())
		}
		return false
	}
	// One-byte application ack: data received and applied (or, for a
	// delta the receiver could not use, a request for the full copy).
	if _, err := conn.Write([]byte{ack}); err != nil {
		return false
	}
	return true
}

// PreparePush advances the lock's local version and marshals its replicas,
// returning the new version and payloads. It is the marshaling half of a
// push-based dissemination, split out so the benchmark harness can time
// marshaling (Figure 8) separately from transfer (Figures 9-14), as the
// paper's evaluation does.
func (n *Node) PreparePush(lock wire.LockID) (uint64, []wire.ReplicaPayload, error) {
	st := n.getLockLocal(lock)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bumpVersionLocked(st.version + 1)
	version := st.version
	payloads, err := st.marshalPayloadsLocked(n.cfg.Codec)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	st.notifyVersionLocked()
	return version, payloads, nil
}

// pushBlob is one marshal-once dissemination payload: the PushUpdate wire
// blob encoded once and shared, read-only, by every target of one
// dissemination round. When delta transfer is on and the update log
// covers the step from the previous version, delta carries the (much
// smaller) ReplicaDelta encoding of the same update, offered first to
// targets believed to hold the previous version. payloads and deltaMsg
// are the unencoded forms of the two, which a RelayPush to a bucket relay
// carries inside its own frame.
type pushBlob struct {
	lock     wire.LockID
	version  uint64
	payloads []wire.ReplicaPayload
	blob     []byte
	delta    []byte
	deltaMsg *wire.ReplicaDelta
}

// preparePushBlob marshals the PushUpdate exactly once per dissemination,
// and the delta encoding (when the release built one) beside it. Nil
// payloads — a relay whose payload cache no longer holds the version —
// leave blob nil: there is no full copy to fall back to.
func (t *transferService) preparePushBlob(lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, delta *wire.ReplicaDelta) *pushBlob {
	pb := &pushBlob{lock: lock, version: version, payloads: payloads, deltaMsg: delta}
	if payloads != nil {
		pu := &wire.PushUpdate{Lock: lock, From: t.node.cfg.Site, Version: version, Replicas: payloads}
		t.pushMarshals.Add(1)
		pb.blob = wire.Marshal(pu)
	}
	if delta != nil {
		pb.delta = wire.Marshal(delta)
	}
	return pb
}

// PushPayloads disseminates prepared payloads to the target sites over the
// configured transfer protocol, returning the sites that confirmed
// application. The wire blob is marshaled once for all targets; transfers
// run concurrently under Config.DisseminationFanout (1 = the paper's
// sequential fan-out, where this is the transfer operation Figures 9-14
// measure). Per-site failures are collected rather than aborting the
// remaining targets.
func (n *Node) PushPayloads(ctx context.Context, lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, targets []wire.SiteID) ([]wire.SiteID, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	var delta *wire.ReplicaDelta
	if n.cfg.DeltaTransfer && version > 1 {
		// Optimistically offer every target the single-step delta; a
		// target that is further behind rejects it and gets the full copy.
		st := n.getLockLocal(lock)
		st.mu.Lock()
		delta = st.buildDeltaLocked(n.cfg.Site, version-1, version, payloads, 0, true)
		st.mu.Unlock()
	}
	pb := n.xfer.preparePushBlob(lock, version, payloads, delta)
	bound := n.cfg.fanoutBound(len(targets))

	if bound == 1 {
		// Paper-faithful sequential fan-out: each transfer (including the
		// remote apply and its acknowledgment) completes before the next
		// begins, and the first failure stops the walk.
		var acked []wire.SiteID
		for _, site := range targets {
			if err := n.xfer.pushTo(ctx, site, pb, pb.delta != nil); err != nil {
				return acked, fmt.Errorf("core: push to site %d: %w", site, err)
			}
			acked = append(acked, site)
		}
		return acked, nil
	}

	errs := make([]error, len(targets))
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for i, site := range targets {
		sem <- struct{}{} // launch in target order under the bound
		wg.Add(1)
		go func(i int, site wire.SiteID) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := n.xfer.pushTo(ctx, site, pb, pb.delta != nil); err != nil {
				errs[i] = fmt.Errorf("core: push to site %d: %w", site, err)
			}
		}(i, site)
	}
	wg.Wait()

	acked := make([]wire.SiteID, 0, len(targets))
	for i, site := range targets {
		if errs[i] == nil {
			acked = append(acked, site)
		}
	}
	return acked, errors.Join(errs...)
}

// feedTracker drains the acquire spans recorded since the last
// dissemination and turns each one's request RTT into an overlay sample
// against the lock's manager — the peer the round trip actually measured.
// The probe phase a harness may run seeds the tracker; this keeps it fed
// for the rest of the run, so RTT drift (route changes, migrated homes)
// reaches the relay plan without re-probing.
//
// Under HomePlacement the request phase is not a distance: it contains the
// home's round trip to its standby, so a near home would read as a far
// one. Those samples are not fed.
func (t *transferService) feedTracker() {
	if t.node.cfg.HomePlacement {
		return
	}
	reg := t.node.obs()
	t.spanMu.Lock()
	recs, cur := reg.SpansSince(t.spanCursor)
	t.spanCursor = cur
	t.spanMu.Unlock()
	if len(recs) == 0 {
		return
	}
	self := t.node.cfg.Site
	phase := obs.HRequestRTT.PhaseName()
	for i := range recs {
		sp := &recs[i]
		// The registry may be shared across sites (benchmarks do this);
		// only this site's own acquires measured a round trip from here.
		if sp.Op != "acquire" || wire.SiteID(sp.Site) != self {
			continue
		}
		peer, _ := t.node.homeOf(wire.LockID(sp.Lock))
		if peer == 0 || peer == self {
			continue
		}
		for _, ph := range sp.Phases {
			if ph.Name == phase && ph.Dur > 0 {
				t.tracker.Observe(peer, ph.Dur)
			}
		}
	}
}

// disseminate implements the push-based update scheme of Section 4: send
// the new version to `want` additional registered daemons, working through
// the candidate set so that "the failure ... can be handled by choosing
// another daemon thread at another site to receive a copy of the new
// version of replicas". Up to Config.DisseminationFanout transfers are in
// flight at once; workers claim candidates in deterministic set order, so
// the §4 replacement walk is preserved — a failed site is simply passed
// over and the next candidate claimed. It returns the sites that confirmed
// application, in candidate order.
func (t *transferService) disseminate(ctx context.Context, lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, delta *wire.ReplicaDelta, sharers wire.SiteSet, upToDate wire.SiteSet, want int) []wire.SiteID {
	if want <= 0 {
		return nil
	}
	t.feedTracker()
	var candidates []wire.SiteID
	for _, site := range sharers.Sites() {
		if site != t.node.cfg.Site {
			candidates = append(candidates, site)
		}
	}
	// The delta is marshaled once, like the full blob, and offered to the
	// targets the grant reported as holding the previous version.
	pb := t.preparePushBlob(lock, version, payloads, delta)

	// The relay tree replaces the flat fan-out only when every candidate
	// is a target (want covers them all): a partial-UR dissemination keeps
	// the flat walk so §4's replacement semantics — claim the next
	// candidate when one fails — are untouched. Below TreeMinSharers the
	// relay hop costs more than it saves, and with the tree disabled this
	// path is the paper-baseline ablation leg.
	if t.node.cfg.DisseminationTree && want >= len(candidates) && len(candidates) >= t.node.cfg.TreeMinSharers {
		return t.disseminateTree(ctx, pb, candidates, upToDate)
	}

	var (
		mu     sync.Mutex
		next   int
		ackedN int
		okAt   = make([]bool, len(candidates))
	)
	workers := t.node.cfg.fanoutBound(want)
	if workers > len(candidates) {
		workers = len(candidates)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if ackedN >= want || next >= len(candidates) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				site := candidates[i]
				if err := t.pushTo(ctx, site, pb, upToDate.Contains(site)); err != nil {
					if t.node.log.On() {
						t.node.log.Logf("fault", "dissemination of lock %d v%d to site %d failed: %v", lock, version, site, err)
					}
					continue
				}
				mu.Lock()
				okAt[i] = true
				ackedN++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var acked []wire.SiteID
	for i, ok := range okAt {
		if ok {
			acked = append(acked, candidates[i])
		}
	}
	if len(acked) < want {
		if t.node.log.On() {
			t.node.log.Logf("fault", "dissemination of lock %d v%d reached %d of %d sites", lock, version, len(acked), want)
		}
	}
	return acked
}

// disseminateTree routes one release's dissemination through the locality
// overlay: one RelayPush per bucket (the relay applies the version and
// re-fans it to the bucket's members over its local links), direct pushes
// for sites the overlay cannot cluster. A bucket whose relay fails, times
// out, or misses members is routed around with direct pushes, so every
// reachable sharer still receives the version — the tree changes who
// carries the frames, never the guarantee. Returns acked sites in
// candidate order, like the flat walk.
func (t *transferService) disseminateTree(ctx context.Context, pb *pushBlob, candidates []wire.SiteID, upToDate wire.SiteSet) []wire.SiteID {
	plan := t.tracker.Plan(candidates)

	var (
		mu   sync.Mutex
		okAt = make(map[wire.SiteID]bool, len(candidates))
	)
	confirm := func(sites ...wire.SiteID) {
		mu.Lock()
		for _, s := range sites {
			okAt[s] = true
		}
		mu.Unlock()
	}
	pushDirect := func(site wire.SiteID) {
		if err := t.pushTo(ctx, site, pb, upToDate.Contains(site)); err != nil {
			if t.node.log.On() {
				t.node.log.Logf("fault", "dissemination of lock %d v%d to site %d failed: %v", pb.lock, pb.version, site, err)
			}
			return
		}
		confirm(site)
	}

	tasks := make([]func(), 0, len(plan.Groups)+len(plan.Direct))
	for _, g := range plan.Groups {
		g := g
		tasks = append(tasks, func() { t.pushViaRelay(ctx, pb, g, upToDate, pushDirect, confirm) })
	}
	for _, site := range plan.Direct {
		site := site
		tasks = append(tasks, func() { pushDirect(site) })
	}

	bound := t.node.cfg.fanoutBound(len(tasks))
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for _, task := range tasks {
		sem <- struct{}{}
		wg.Add(1)
		go func(task func()) {
			defer wg.Done()
			defer func() { <-sem }()
			task()
		}(task)
	}
	wg.Wait()

	var acked []wire.SiteID
	for _, site := range candidates {
		if okAt[site] {
			acked = append(acked, site)
		}
	}
	if len(acked) < len(candidates) {
		if t.node.log.On() {
			t.node.log.Logf("fault", "tree dissemination of lock %d v%d reached %d of %d sites", pb.lock, pb.version, len(acked), len(candidates))
		}
	}
	return acked
}

// pushViaRelay sends one bucket's RelayPush and waits for the aggregated
// ack. A relay the grant listed as up to date is offered the release's
// push delta first, through the same delta-then-full ladder as a direct
// push; a relay that cannot apply it answers need-full and gets the full
// form once. The relay's ack latency and losses feed its quality score,
// and the hops its ack reports feed the plan's pair distances. A relay that
// fails is routed around with direct pushes to the whole bucket, and
// members the relay could not reach are direct-pushed individually — either
// way a sick relay degrades its bucket to flat fan-out instead of losing
// the version (a re-push of an already-applied version is dropped as stale
// by the receiver, so the overlap is harmless).
func (t *transferService) pushViaRelay(ctx context.Context, pb *pushBlob, g overlay.Group, upToDate wire.SiteSet, pushDirect func(wire.SiteID), confirm func(...wire.SiteID)) {
	reg := t.node.obs()
	bucket := append([]wire.SiteID{g.Relay}, g.Members...)
	// repair direct-pushes sites concurrently under the fan-out bound: one
	// backbone round trip for the lot, not one each.
	repair := func(sites []wire.SiteID) {
		reg.Inc(obs.CRelayFallbacks)
		t.forEachBounded(sites, pushDirect)
	}
	addr, err := t.node.xferAddr(g.Relay)
	if err != nil {
		repair(bucket)
		return
	}
	msg := &wire.RelayPush{
		Lock:    pb.lock,
		Origin:  t.node.cfg.Site,
		Version: pb.version,
		Targets: wire.NewSiteSet(g.Members...),
	}
	var deltaFrame []byte
	if pb.deltaMsg != nil && upToDate.Contains(g.Relay) {
		d := *msg
		d.FromVersion, d.Delta = pb.deltaMsg.FromVersion, pb.deltaMsg.Replicas
		for _, site := range bucket {
			if upToDate.Contains(site) {
				d.UpToDate.Add(site)
			}
		}
		deltaFrame = wire.Marshal(&d)
	}
	fullFrame := func() []byte {
		msg.Replicas = pb.payloads
		return wire.Marshal(msg)
	}
	// Register before sending: on a zero-delay network the aggregated ack
	// can arrive inside the Send call.
	ackCh := t.expectRelayAck(pb.lock, pb.version, g.Relay)
	defer t.dropRelayAck(pb.lock, pb.version, g.Relay)

	t.uplinkSends.Add(1)
	reg.Inc(obs.CRelayPushes)
	var ack *wire.RelayAck
	err = t.offerDeltaThenFull(deltaFrame, fullFrame, func(frame []byte) (bool, error) {
		// The wait is bounded by the control-message timeout, not the
		// transfer timeout: a dead relay should cost one fast timeout before
		// its bucket degrades, not stall the release for a bulk-transfer
		// grace period.
		sendCtx, cancel := context.WithTimeout(ctx, t.node.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()
		if err := t.port.Send(sendCtx, addr, frame); err != nil {
			return false, err
		}
		select {
		case ack = <-ackCh:
			lat := time.Since(start)
			t.tracker.ObserveAck(g.Relay, lat)
			reg.Inc(obs.CRelayAcks)
			reg.Observe(obs.HRelayHop, lat)
			return !ack.NeedFull, nil
		case <-sendCtx.Done():
			return false, fmt.Errorf("await relay ack from site %d: %w", g.Relay, sendCtx.Err())
		}
	})
	if err != nil {
		if t.node.log.On() {
			t.node.log.Logf("fault", "relay push of lock %d v%d via site %d failed: %v", pb.lock, pb.version, g.Relay, err)
		}
		t.tracker.ObserveLoss(g.Relay)
		repair(bucket)
		return
	}
	// The relay timed its push to each member it reached: that is the one
	// distance the plan needs and this site cannot measure.
	for i, site := range ack.Acked.Sites() {
		t.tracker.ObserveHop(g.Relay, site, time.Duration(ack.HopMicros[i])*time.Microsecond)
	}
	// Route around members the relay could not reach.
	var missed []wire.SiteID
	for _, site := range bucket {
		if ack.Acked.Contains(site) {
			confirm(site)
		} else {
			missed = append(missed, site)
		}
	}
	if len(missed) > 0 {
		repair(missed)
	}
}

// relayFan services a RelayPush on the bucket relay: apply the version
// locally, re-fan it to the bucket's remaining members, and answer the
// origin with the aggregated set of sites that confirmed application and
// the round trip each one's push took. A
// full-form push re-fans ordinary PushUpdates; a delta-form push is patched
// in through applyDelta and re-fanned down the same delta-then-full ladder
// as a direct push, with the full copy served from this site's post-apply
// payload cache. A delta this site cannot apply is answered need-full with
// nothing applied or re-fanned. Runs on its own goroutine — the re-fan
// takes member round trips and must not stall the transfer port's
// dispatcher.
func (t *transferService) relayFan(msg *wire.RelayPush, replyTo string) {
	n := t.node
	if n.fireFault(FaultContext{
		Point: FPDropRelayFan, Peer: msg.Origin, Lock: msg.Lock, Version: msg.Version,
	}).Drop {
		// The relay "dies" mid-push: nothing applied, nothing re-fanned,
		// no ack — the origin times out and direct-pushes the bucket.
		return
	}
	reg := n.obs()
	ack := &wire.RelayAck{Lock: msg.Lock, Relay: n.cfg.Site, Version: msg.Version}
	var delta *wire.ReplicaDelta
	if len(msg.Delta) > 0 {
		delta = &wire.ReplicaDelta{
			Lock: msg.Lock, From: msg.Origin, Version: msg.Version,
			FromVersion: msg.FromVersion, Push: true, Replicas: msg.Delta,
		}
		if err := n.applyDelta(delta); err != nil {
			if n.log.On() {
				n.log.Logf("xfer", "relay delta of lock %d v%d from site %d rejected: %v", msg.Lock, msg.Version, msg.Origin, err)
			}
			ack.NeedFull = true
			t.sendRelayAck(ack, replyTo)
			return
		}
	} else {
		n.applyPayloads(msg.Lock, msg.Version, msg.Replicas, "relay", msg.Origin)
	}

	var (
		ackMu sync.Mutex
		hops  = make(map[wire.SiteID]time.Duration)
	)
	payloads := msg.Replicas
	st := n.getLockLocal(msg.Lock)
	st.mu.Lock()
	// Count this site only if the apply actually installed the version (or
	// it was already held): an unmarshal failure must not be reported
	// upstream as an up-to-date copy.
	if st.version >= msg.Version {
		ack.Acked.Add(n.cfg.Site)
	}
	if delta != nil && st.cachedPayloads != nil && st.cachedVersion == msg.Version {
		payloads = st.cachedPayloads
	}
	st.mu.Unlock()

	members := make([]wire.SiteID, 0, msg.Targets.Len())
	for _, s := range msg.Targets.Sites() {
		if s != n.cfg.Site && s != msg.Origin {
			members = append(members, s)
		}
	}
	if n.histEnabled() {
		n.recordHist(wire.HistoryEvent{
			Kind: wire.HistRelay, Site: n.cfg.Site, Lock: msg.Lock,
			Version: msg.Version, Sites: wire.NewSiteSet(members...),
			Note: "re-fan",
		})
	}

	if len(members) > 0 {
		pb := t.preparePushBlob(msg.Lock, msg.Version, payloads, delta)
		t.forEachBounded(members, func(site wire.SiteID) {
			start := time.Now()
			if err := t.pushTo(context.Background(), site, pb, msg.UpToDate.Contains(site)); err != nil {
				if n.log.On() {
					n.log.Logf("fault", "relay re-fan of lock %d v%d to site %d failed: %v", msg.Lock, msg.Version, site, err)
				}
				return
			}
			hop := time.Since(start)
			reg.Inc(obs.CRelayFanout)
			ackMu.Lock()
			ack.Acked.Add(site)
			hops[site] = hop
			ackMu.Unlock()
		})
	}
	// Each acked member's push round trip rides the ack: it is this site's
	// distance to the member, which the origin's plan clusters on.
	for _, site := range ack.Acked.Sites() {
		ack.HopMicros = append(ack.HopMicros, uint32(min(hops[site].Microseconds(), math.MaxUint32)))
	}
	t.sendRelayAck(ack, replyTo)
}

// forEachBounded runs fn for every site, launching in slice order with at
// most the configured dissemination fan-out in flight, and waits for all.
func (t *transferService) forEachBounded(sites []wire.SiteID, fn func(wire.SiteID)) {
	sem := make(chan struct{}, t.node.cfg.fanoutBound(len(sites)))
	var wg sync.WaitGroup
	for _, site := range sites {
		sem <- struct{}{}
		wg.Add(1)
		go func(site wire.SiteID) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(site)
		}(site)
	}
	wg.Wait()
}

// sendRelayAck answers a RelayPush's origin.
func (t *transferService) sendRelayAck(ack *wire.RelayAck, replyTo string) {
	ctx, cancel := context.WithTimeout(context.Background(), t.node.cfg.RequestTimeout)
	defer cancel()
	if err := t.port.Send(ctx, replyTo, wire.Marshal(ack)); err != nil {
		if t.node.log.On() {
			t.node.log.Logf("fault", "relay ack of lock %d v%d to %s failed: %v", ack.Lock, ack.Version, replyTo, err)
		}
	}
}

// expectRelayAck registers a waiter for one relay's aggregated ack.
func (t *transferService) expectRelayAck(lock wire.LockID, version uint64, relay wire.SiteID) chan *wire.RelayAck {
	ch := make(chan *wire.RelayAck, 1)
	t.relayMu.Lock()
	t.relayAcks[pushKey{lock: lock, version: version, site: relay}] = ch
	t.relayMu.Unlock()
	return ch
}

// deliverRelayAck routes an arriving RelayAck to its waiter, if any is
// still registered (a late ack after fallback is dropped harmlessly).
func (t *transferService) deliverRelayAck(msg *wire.RelayAck) {
	t.relayMu.Lock()
	ch := t.relayAcks[pushKey{lock: msg.Lock, version: msg.Version, site: msg.Relay}]
	t.relayMu.Unlock()
	if ch != nil {
		select {
		case ch <- msg:
		default:
		}
	}
}

// dropRelayAck unregisters a relay-ack waiter.
func (t *transferService) dropRelayAck(lock wire.LockID, version uint64, relay wire.SiteID) {
	t.relayMu.Lock()
	delete(t.relayAcks, pushKey{lock: lock, version: version, site: relay})
	t.relayMu.Unlock()
}

// pushTo sends one pre-marshaled push update to one site and waits for its
// application acknowledgment, over whichever protocol the mode selects.
// With tryDelta set, the delta encoding is offered first; a receiver that
// cannot apply it answers need-full (stream ack byte or DeltaNack) and the
// full blob follows on the same call. Safe for concurrent callers pushing
// the same blob to distinct sites.
func (t *transferService) pushTo(ctx context.Context, site wire.SiteID, pb *pushBlob, tryDelta bool) error {
	t.uplinkSends.Add(1)
	t.node.obs().Inc(obs.CPushes)
	if t.node.fireFault(FaultContext{
		Point: FPDropMidTransfer, Peer: site, Lock: pb.lock, Version: pb.version,
	}).Drop {
		return fmt.Errorf("core: push of lock %d to site %d: fault injected at %s", pb.lock, site, FPDropMidTransfer)
	}
	sendCtx, cancel := context.WithTimeout(ctx, t.node.cfg.TransferTimeout)
	defer cancel()

	var delta []byte
	if tryDelta {
		delta = pb.delta
	}
	err := t.offerDeltaThenFull(delta, func() []byte { return pb.blob }, func(frame []byte) (bool, error) {
		return t.sendPushFrame(sendCtx, site, pb, frame)
	})
	if err != nil {
		return fmt.Errorf("push of lock %d v%d to site %d: %w", pb.lock, pb.version, site, err)
	}
	return nil
}

// Errors of the delta-then-full ladder's last rung.
var (
	errNoFullCopy  = errors.New("no full copy to send")
	errFullRefused = errors.New("receiver refused the full copy")
)

// offerDeltaThenFull is the one delta-then-full ladder every replica push
// climbs, to a sharer (pushTo) or to a bucket relay (pushViaRelay): offer
// the delta frame when there is one; a receiver that cannot apply it
// answers need-full, which counts as a delta fallback and is answered with
// the full frame. send moves one frame and reports whether the receiver
// applied it; full builds the full frame and is called only when it is
// needed. Every frame a receiver applied is tallied as a replica send.
func (t *transferService) offerDeltaThenFull(delta []byte, full func() []byte, send func(frame []byte) (applied bool, err error)) error {
	if delta != nil {
		applied, err := send(delta)
		if err != nil {
			// A transport-level failure would sink the full copy too.
			return err
		}
		if applied {
			t.countReplicaSend(len(delta), true)
			return nil
		}
		t.deltaFallbacks.Add(1)
		t.node.obs().Inc(obs.CDeltaFallbacks)
	}
	frame := full()
	if frame == nil {
		return errNoFullCopy
	}
	applied, err := send(frame)
	if err != nil {
		return err
	}
	if !applied {
		return errFullRefused
	}
	t.countReplicaSend(len(frame), false)
	return nil
}

// sendPushFrame moves one push frame (full or delta encoding) to a site
// and reports whether the receiver applied it.
func (t *transferService) sendPushFrame(ctx context.Context, site wire.SiteID, pb *pushBlob, blob []byte) (applied bool, err error) {
	if t.useStream(len(blob)) {
		// The stream path's one-byte frame ack is the application
		// acknowledgment.
		ack, err := t.sendOverStream(ctx, site, blob)
		if err != nil {
			return false, err
		}
		t.node.obs().Inc(obs.CTransfersHybrid)
		return ack == ackApplied, nil
	}

	addr, err := t.node.xferAddr(site)
	if err != nil {
		return false, err
	}
	// Register before sending: on a zero-delay network the ack can arrive
	// inside the Send call.
	ackCh := t.node.client.expectPushAck(pb.lock, pb.version, site)
	defer t.node.client.dropPushAck(pb.lock, pb.version, site)
	if err := t.port.Send(ctx, addr, blob); err != nil {
		return false, err
	}
	t.node.obs().Inc(obs.CTransfersMNet)
	select {
	case res := <-ackCh:
		return !res.needFull, nil
	case <-ctx.Done():
		return false, fmt.Errorf("await push ack from site %d: %w", site, ctx.Err())
	}
}

// ReplicaBytesSent reports the total bytes of replica-carrying frames
// (full copies and deltas) this node has sent.
func (n *Node) ReplicaBytesSent() int64 { return n.xfer.replicaBytes.Load() }

// DeltaTransfersSent reports how many replica frames went out in delta
// encoding.
func (n *Node) DeltaTransfersSent() int64 { return n.xfer.deltaSends.Load() }

// FullTransfersSent reports how many replica frames went out as full
// copies.
func (n *Node) FullTransfersSent() int64 { return n.xfer.fullSends.Load() }

// DeltaFallbacks reports how many delta offers were answered with a
// request for (or fallback to) the full copy.
func (n *Node) DeltaFallbacks() int64 { return n.xfer.deltaFallbacks.Load() }

// OverlayTracker exposes the dissemination overlay's peer tracker so
// harnesses can seed it with measured RTTs (e.g. from the obs span ring)
// and tests can inspect relay scores.
func (n *Node) OverlayTracker() *overlay.Tracker { return n.xfer.tracker }

// DisseminationUplinkSends reports how many dissemination pushes (direct
// PushUpdates plus RelayPushes) this node has initiated from its own
// uplink. Under the relay tree a releaser's per-release delta here is
// O(regions) instead of O(sharers).
func (n *Node) DisseminationUplinkSends() int64 { return n.xfer.uplinkSends.Load() }
