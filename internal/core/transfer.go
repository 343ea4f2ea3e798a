package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mocha/internal/mnet"
	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/wire"
)

// transferService decides what replica data leaves this site and in which
// form — a directive's copy for a waiting acquirer, a release's push to a
// sharer or a bucket relay — and tallies what arrived. Every frame climbs
// the one delta-then-full ladder (offerDeltaThenFull) and travels through
// the embedded carrier, which alone knows how; who receives a release is
// planned in disseminate.go.
type transferService struct {
	carrier

	// pushMarshals counts PushUpdate wire marshals — the hook the
	// marshal-once pipeline is verified against: one per dissemination,
	// however many sites receive the blob.
	pushMarshals atomic.Int64
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
	relayAcks ackTable[*wire.RelayAck]

	// carriage tracks the goroutines moving directive-driven transfers to
	// their destinations (see sendReplicas).
	carriage *carriage
}

// carriage tracks goroutines that carry something to another site after the
// call that started them has returned — a directive's replicas, a release —
// so Node.Close can cancel them and wait them out. ctx bounds them to the
// owner's lifetime. cancel and wg.Add both run under mu: nothing begins once
// the context is cancelled, so Add never races Wait.
type carriage struct {
	mu     sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newCarriage() *carriage {
	c := &carriage{}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// begin registers one goroutine about to start, unless close has run; the
// goroutine calls done when it ends.
func (c *carriage) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		return false
	}
	c.wg.Add(1)
	return true
}

func (c *carriage) done() { c.wg.Done() }

// close cancels every goroutine in flight and returns once they have ended.
func (c *carriage) close() {
	c.mu.Lock()
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
}

// pushKey identifies one awaited acknowledgment. Keying by site (not just
// lock and version) lets concurrent pushes of the same version to different
// sites each wait on their own channel; a shared channel would misroute
// acks between the parallel senders.
type pushKey struct {
	lock    wire.LockID
	version uint64
	site    wire.SiteID
}

// ackTable demultiplexes arriving acknowledgments to the sends waiting on
// them. Each waiter owns its channel, so no ack is ever consumed by the
// wrong sender; the zero value is ready to use.
type ackTable[T any] struct {
	mu      sync.Mutex
	waiters map[pushKey]chan T
}

// expect registers a waiter. Register before sending: on a zero-delay
// network the ack can arrive inside the Send call.
func (a *ackTable[T]) expect(k pushKey) chan T {
	ch := make(chan T, 1)
	a.mu.Lock()
	if a.waiters == nil {
		a.waiters = make(map[pushKey]chan T)
	}
	a.waiters[k] = ch
	a.mu.Unlock()
	return ch
}

// deliver hands an acknowledgment to its waiter, if one is still
// registered.
func (a *ackTable[T]) deliver(k pushKey, v T) {
	a.mu.Lock()
	ch := a.waiters[k]
	a.mu.Unlock()
	if ch != nil {
		select {
		case ch <- v:
		default:
		}
	}
}

// drop unregisters a waiter.
func (a *ackTable[T]) drop(k pushKey) {
	a.mu.Lock()
	delete(a.waiters, k)
	a.mu.Unlock()
}

func newTransferService(n *Node) (*transferService, error) {
	port, err := n.ep.OpenPort(PortXfer)
	if err != nil {
		return nil, err
	}
	t := &transferService{
		carrier: carrier{
			node:    n,
			port:    port,
			streams: make(map[uint64]chan string),
			conns:   make(map[wire.SiteID]*cachedStream),
		},
		tracker:  overlay.NewTracker(overlay.Config{Metrics: n.cfg.Metrics}),
		carriage: newCarriage(),
	}
	port.SetHandler(t.handle)
	return t, nil
}

// handle processes transfer-port traffic.
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
		t.streamOpened(msg)
	case *wire.DeltaNack:
		t.handleDeltaNack(msg)
	case *wire.PushAck:
		t.node.obs().Inc(obs.CPushAcks)
		t.pushAcks.deliver(pushKey{msg.Lock, msg.Version, msg.Site}, pushResult{})
	case *wire.RelayPush:
		// Re-fanning a bucket takes member round trips; never block the
		// dispatch goroutine on it.
		go t.relayFan(msg, m.From)
	case *wire.RelayAck:
		// A late ack after fallback finds no waiter and is dropped.
		t.relayAcks.deliver(pushKey{msg.Lock, msg.Version, msg.Relay}, msg)
	default:
		if _, handled := t.receive(p, t.port, m.From); !handled && t.node.log.On() {
			t.node.log.Logf("xfer", "unhandled %s on transfer port", p.Kind())
		}
	}
}

// sendReplicas executes a TransferReplica directive from the
// synchronization thread: marshal the lock's local replicas and move them
// to the destination daemon. The uncommitted check, version snapshot,
// marshaling and delta build run on the caller — the daemon dispatcher —
// so directives see the replica state they arrived at, in arrival order,
// and that cost serializes with the site's other daemon work as in the
// prototype. Carriage — the sends down the delta-then-full ladder and the
// wait for the destination's ack — runs on its own tracked goroutine: a
// slow or dead destination must not park the dispatcher while the
// REPLICADATA of this site's own pending acquire queues behind it. The
// returned error covers the dispatcher half only; a failed carriage is
// counted (obs.CTransferFailures) and logged.
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

	if !t.carriage.begin() {
		return ErrClosed
	}
	if t.node.histEnabled() {
		t.node.recordHist(wire.HistoryEvent{
			Kind: wire.HistTransferSend, Site: t.node.cfg.Site, Lock: dir.Lock,
			Version: version, AuxVersion: dir.DestVersion,
			Sites: wire.NewSiteSet(dir.Dest), Note: "directive",
		})
	}
	go func() {
		defer t.carriage.done()
		ctx, cancel := context.WithTimeout(t.carriage.ctx, t.node.cfg.TransferTimeout)
		defer cancel()
		var deltaBlob []byte
		if delta != nil {
			deltaBlob = wire.Marshal(delta)
		}
		full := func() []byte {
			return wire.Marshal(&wire.ReplicaData{
				Lock:      dir.Lock,
				From:      t.node.cfg.Site,
				Version:   version,
				RequestID: dir.RequestID,
				Replicas:  payloads,
			})
		}
		err := t.offerDeltaThenFull(deltaBlob, full, func(blob []byte) (bool, error) {
			return t.send(ctx, dir.Dest, PortDaemon, frame{lock: dir.Lock, version: version, blob: blob})
		})
		if err != nil {
			t.node.obs().Inc(obs.CTransferFailures)
			if t.node.log.On() {
				t.node.log.Logf("fault", "transfer of lock %d to site %d failed: %v", dir.Lock, dir.Dest, err)
			}
		}
	}()
	return nil
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

// countDeltaFallback tallies one delta a receiver answered with need-full.
func (t *transferService) countDeltaFallback() {
	t.deltaFallbacks.Add(1)
	t.node.obs().Inc(obs.CDeltaFallbacks)
}

// handleDeltaNack reacts to a receiver that could not apply a delta sent
// over mnet: a rejected push is reported to the send waiting on the
// push-ack channel, and the ladder it runs under counts the fallback and
// follows with the full copy; a rejected transfer is answered with a full
// retransfer, since the directive's ladder has moved on.
func (t *transferService) handleDeltaNack(msg *wire.DeltaNack) {
	if t.node.log.On() {
		t.node.log.Logf("xfer", "delta of lock %d v%d rejected by site %d: %s", msg.Lock, msg.Version, msg.Site, msg.Reason)
	}
	if msg.Push {
		t.pushAcks.deliver(pushKey{msg.Lock, msg.Version, msg.Site}, pushResult{needFull: true})
		return
	}
	t.countDeltaFallback()
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

// close cancels and waits out in-flight transfer carriage, then tears down
// every cached stream connection; called from Node.Close. Once it returns
// the transfer counters are final.
func (t *transferService) close() {
	t.carriage.close()
	t.closeStreams()
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

// pushTo sends one pre-marshaled push update to one site and waits for its
// application acknowledgment. With tryDelta set, the delta encoding is
// offered first; a receiver that cannot apply it answers need-full and the
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
	err := t.offerDeltaThenFull(delta, func() []byte { return pb.blob }, func(blob []byte) (bool, error) {
		return t.send(sendCtx, site, PortXfer, frame{lock: pb.lock, version: pb.version, blob: blob})
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

// offerDeltaThenFull is the one delta-then-full ladder every replica frame
// climbs — a directive's copy (sendReplicas), a push to a sharer (pushTo),
// a push to a bucket relay (pushViaRelay): offer the delta when there is
// one; a receiver that cannot apply it answers need-full, which counts as a
// delta fallback and is answered with the full copy. send moves one blob
// and reports whether the receiver applied it; full builds the full blob
// and is called only when it is needed. Every blob a receiver applied is
// tallied as a replica send.
func (t *transferService) offerDeltaThenFull(delta []byte, full func() []byte, send func(blob []byte) (applied bool, err error)) error {
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
		t.countDeltaFallback()
	}
	blob := full()
	if blob == nil {
		return errNoFullCopy
	}
	applied, err := send(blob)
	if err != nil {
		return err
	}
	if !applied {
		return errFullRefused
	}
	t.countReplicaSend(len(blob), false)
	return nil
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
