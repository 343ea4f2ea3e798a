package core

import (
	"context"
	"fmt"

	"time"

	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// daemon is the Go form of the paper's daemon thread (Figure 6): a single
// dispatcher that owns access to the site's shared replicas, transfers
// them to remote sites on request, and applies arriving updates. It runs
// as the handler of the daemon port, so its work is serialized exactly
// like the maximum-priority Java thread in the prototype — except the
// carriage of an outgoing transfer, which the dispatcher hands to a
// goroutine once the replicas are marshaled (transferService.sendReplicas):
// waiting for a destination's ack is not replica access.
type daemon struct {
	node *Node
	port *mnet.Port
}

func newDaemon(n *Node) (*daemon, error) {
	port, err := n.ep.OpenPort(PortDaemon)
	if err != nil {
		return nil, err
	}
	d := &daemon{node: n, port: port}
	port.SetHandler(d.handle)
	return d, nil
}

// handle processes one daemon-port message.
func (d *daemon) handle(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		if d.node.log.On() {
			d.node.log.Logf("daemon", "bad message: %v", err)
		}
		return
	}
	switch msg := p.(type) {
	case *wire.TransferReplica:
		// "when a daemon thread receives a request for its copy of
		// replicas, the thread identifies the replicas associated with
		// the lock identifier it receives, marshals those replicas and
		// sends them to the mandated destination." The send itself leaves
		// the dispatcher; only a refusal comes back here.
		if err := d.node.xfer.sendReplicas(msg); err != nil {
			if d.node.log.On() {
				d.node.log.Logf("daemon", "transfer of lock %d to site %d refused: %v", msg.Lock, msg.Dest, err)
			}
		}
	case *wire.DeltaNack:
		d.node.xfer.handleDeltaNack(msg)
	case *wire.PollVersion:
		st := d.node.getLockLocal(msg.Lock)
		st.mu.Lock()
		version := st.version
		// Content a broken exclusive hold may have scribbled on cannot be
		// offered to recovery as the labeled version.
		dirty := st.uncommitted
		st.mu.Unlock()
		if d.node.fireFault(FaultContext{
			Point: FPDelayDaemonPoll, Lock: msg.Lock, Version: version,
		}).Drop {
			// The daemon's reply is lost; past the poll deadline this
			// site's copy is treated as unavailable.
			return
		}
		reply := &wire.PollVersionReply{
			Lock:    msg.Lock,
			Site:    d.node.cfg.Site,
			Nonce:   msg.Nonce,
			Version: version,
			HasData: version > 0 && !dirty,
		}
		d.replyTo(m.From, reply)
	case *wire.Heartbeat:
		d.replyTo(m.From, &wire.HeartbeatAck{Nonce: msg.Nonce, Site: d.node.cfg.Site})
	case *wire.HomeHint:
		d.node.learnHome(msg.Lock, msg.Home, msg.Epoch)
	case *wire.HomeMoved:
		if len(msg.Locks) == 0 {
			// A surrogate took over From's whole slice.
			d.node.learnSlice(msg.From, msg.To, msg.Epoch)
			return
		}
		for _, lock := range msg.Locks {
			d.node.learnHome(lock, msg.To, msg.Epoch)
		}
		if d.node.log.On() {
			d.node.log.Logf("daemon", "home for %d locks moved from site %d to site %d (epoch %d)",
				len(msg.Locks), msg.From, msg.To, msg.Epoch)
		}
	default:
		// Replica data — a directive's copy, full or delta, and cached
		// publishes — is applied and answered by the carrier.
		if _, handled := d.node.xfer.receive(p, d.port, m.From); !handled && d.node.log.On() {
			d.node.log.Logf("daemon", "unhandled %s on daemon port", p.Kind())
		}
	}
}

// replyTo sends a response back to the message's origin port, encoding
// directly into the packet buffer (acks and version replies all fit one
// fragment).
func (d *daemon) replyTo(to string, p wire.Payload) {
	ctx, cancel := context.WithTimeout(context.Background(), d.node.cfg.RequestTimeout)
	defer cancel()
	if err := d.port.SendAppender(ctx, to, wire.Appender{P: p}); err != nil {
		if d.node.log.On() {
			d.node.log.Logf("daemon", "reply %s to %s failed: %v", p.Kind(), to, err)
		}
	}
}

// applyReplicaData installs a transferred replica version, waking any
// thread blocked in lock() waiting for it. Stale versions are ignored, so
// duplicate deliveries and overtaken pushes are harmless.
func (n *Node) applyReplicaData(rd *wire.ReplicaData) {
	n.applyPayloads(rd.Lock, rd.Version, rd.Replicas, "transfer", rd.From)
}

// applyPush installs a disseminated update. Lock 0 is the cached-replica
// namespace: unguarded replicas updated best-effort without consistency
// maintenance, like the image replicas of the table-setting application.
func (n *Node) applyPush(pu *wire.PushUpdate) {
	if pu.Lock == CachedLock {
		n.applyCached(pu)
		return
	}
	n.applyPayloads(pu.Lock, pu.Version, pu.Replicas, "push", pu.From)
}

// applyPayloads is the shared update-application path.
func (n *Node) applyPayloads(lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, how string, from wire.SiteID) {
	applyStart := time.Now()
	st := n.getLockLocal(lock)
	st.mu.Lock()
	defer st.mu.Unlock()
	// A re-delivery of the version the local label already claims is
	// normally stale — but when the copy is uncommitted, the label is a
	// lie (a broken hold scribbled on the bytes) and the arriving
	// committed bytes are exactly the repair a blocked acquirer waits on.
	if version < st.version || (version == st.version && !st.uncommitted) {
		if n.log.On() {
			n.log.Logf("daemon", "stale %s of lock %d v%d from site %d (have v%d)", how, lock, version, from, st.version)
		}
		return
	}
	if n.applyBlobsLocked(st, lock, version, payloads, how, from, nil) {
		n.obs().Inc(obs.CApplies)
		n.obs().Observe(obs.HApply, time.Since(applyStart))
	}
}

// applyBlobsLocked installs marshaled blobs as the lock's new local
// version: unmarshal into the associated replicas (holding unknown names
// as pending), record the version step in the delta log, advance the
// version, and wake waiters. Caller holds st.mu and has already rejected
// stale versions. delta, when non-nil, is the S29 delta the blobs were
// patched from, so the store can log the patch instead of the full bytes.
// Reports whether the version was installed.
func (n *Node) applyBlobsLocked(st *lockLocal, lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, how string, from wire.SiteID, delta *wire.ReplicaDelta) bool {
	// Recorded against the outgoing version's cache, so it must run before
	// the unmarshal loop replaces the content.
	st.recordIncomingStepLocked(version, payloads)
	for _, p := range payloads {
		r, ok := st.byName[p.Name]
		if !ok {
			// Replica not associated here yet: hold the payload until it
			// is.
			st.pending[p.Name] = pendingPayload{version: version, data: p.Data}
			continue
		}
		if err := n.cfg.Codec.Unmarshal(p.Data, r.content); err != nil {
			if n.log.On() {
				n.log.Logf("daemon", "unmarshal %q v%d: %v", p.Name, version, err)
			}
			// The loop may have replaced some replicas already while the
			// version stays put: the marshaled cache no longer describes
			// the content, and neither does any recorded delta chain.
			st.invalidatePayloadsLocked()
			if st.dlog != nil {
				st.dlog.reset()
				st.prevPayloads = nil
			}
			return false
		}
	}
	st.version = version
	if st.holder == 0 || st.heldShared {
		// The arriving committed bytes replaced the content wholesale; any
		// earlier broken hold's dirty writes are gone. With a live exclusive
		// hold the flag must stand — the holder keeps mutating in place.
		st.uncommitted = false
	}
	// Applied bytes are poll-adoptable (recovery can rebase on a pushed
	// version), so they persist as committed state.
	n.persistReplicasLocked(st, version, false, payloads, delta)
	if st.dlog != nil {
		// Keep the arriving blobs as this version's marshaled cache so
		// this site can serve deltas (and diff the next incoming step)
		// without re-marshaling.
		st.updatePayloadCacheLocked(version, payloads)
	}
	st.notifyVersionLocked()
	if n.histEnabled() {
		// Recorded under st.mu before the daemon acknowledges, so the
		// apply precedes any release claiming this site is up to date.
		n.recordHist(wire.HistoryEvent{
			Kind:    wire.HistApply,
			Site:    n.cfg.Site,
			Lock:    lock,
			Version: version,
			Digests: wire.DigestPayloads(payloads),
			Note:    how,
		})
	}
	if n.log.On() {
		n.log.Log("daemon", "applied update",
			obs.S("how", how), obs.I("lock", int64(lock)), obs.I("version", int64(version)),
			obs.I("from", int64(from)), obs.I("replicas", int64(len(payloads))))
	}
	return true
}

// applyDelta applies a ReplicaDelta: resolve the base blobs for the
// delta's FromVersion, patch and verify each replica, and install the
// result like a full update. A non-nil error means the receiver needs a
// full copy instead (the sender's fallback trigger); a stale delta is
// dropped without error, like a stale full update.
func (n *Node) applyDelta(rd *wire.ReplicaDelta) error {
	applyStart := time.Now()
	st := n.getLockLocal(rd.Lock)
	st.mu.Lock()
	defer st.mu.Unlock()
	if rd.Version < st.version || (rd.Version == st.version && !st.uncommitted) {
		if n.log.On() {
			n.log.Logf("daemon", "stale delta of lock %d v%d from site %d (have v%d)", rd.Lock, rd.Version, rd.From, st.version)
		}
		return nil
	}
	var base map[string][]byte
	switch {
	case st.cachedPayloads != nil && st.cachedVersion == rd.FromVersion:
		base = make(map[string][]byte, len(st.cachedPayloads))
		for _, p := range st.cachedPayloads {
			base[p.Name] = p.Data
		}
	case st.version == rd.FromVersion && !st.uncommitted:
		// No marshaled cache of the base, but the live content is at the
		// base version: marshal it on demand.
		base = make(map[string][]byte, len(st.replicas))
		for _, r := range st.replicas {
			blob, err := n.cfg.Codec.Marshal(r.content)
			if err != nil {
				return fmt.Errorf("marshal base %q: %w", r.name, err)
			}
			base[r.name] = blob
		}
	default:
		return fmt.Errorf("base v%d unavailable (have v%d)", rd.FromVersion, st.version)
	}

	blobs := make([]wire.ReplicaPayload, 0, len(rd.Replicas))
	for i := range rd.Replicas {
		dp := &rd.Replicas[i]
		if dp.Full {
			blobs = append(blobs, wire.ReplicaPayload{Name: dp.Name, Data: dp.Data})
			continue
		}
		old, ok := base[dp.Name]
		if !ok {
			return fmt.Errorf("no base blob for %q at v%d", dp.Name, rd.FromVersion)
		}
		ops := make([]marshal.PatchOp, len(dp.Ops))
		for j, op := range dp.Ops {
			ops[j] = marshal.PatchOp{Off: int(op.Off), Data: op.Data}
		}
		patched, err := marshal.ApplyPatch(old, int(dp.NewLen), ops)
		if err != nil {
			return fmt.Errorf("patch %q: %w", dp.Name, err)
		}
		if marshal.Checksum(patched) != dp.Checksum {
			return fmt.Errorf("checksum mismatch patching %q to v%d", dp.Name, rd.Version)
		}
		blobs = append(blobs, wire.ReplicaPayload{Name: dp.Name, Data: patched})
	}

	how := "delta transfer"
	if rd.Push {
		how = "delta push"
	}
	if !n.applyBlobsLocked(st, rd.Lock, rd.Version, blobs, how, rd.From, rd) {
		return fmt.Errorf("apply patched blobs of lock %d v%d failed", rd.Lock, rd.Version)
	}
	n.obs().Inc(obs.CApplies)
	n.obs().Observe(obs.HApply, time.Since(applyStart))
	return nil
}

// CachedLock is the reserved lock ID for unguarded cached replicas:
// shared objects deliberately not associated with any ReplicaLock, "cached
// at each host without any consistency maintenance being performed on
// them".
const CachedLock wire.LockID = 0

// RegisterCached installs a local unguarded replica that receives
// best-effort push updates by name.
func (n *Node) RegisterCached(r *Replica) error {
	if r == nil {
		return fmt.Errorf("core: nil cached replica")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	n.cached[r.name] = r
	return nil
}

// CachedReplica looks up a registered cached replica.
func (n *Node) CachedReplica(name string) (*Replica, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.cached[name]
	return r, ok
}

// applyCached applies a cached-namespace push: last writer wins, no
// version discipline — the non-synchronization-based sharing mode.
func (n *Node) applyCached(pu *wire.PushUpdate) {
	for _, p := range pu.Replicas {
		n.mu.Lock()
		r, ok := n.cached[p.Name]
		n.mu.Unlock()
		if !ok {
			if n.log.On() {
				n.log.Logf("daemon", "cached push for unregistered %q ignored", p.Name)
			}
			continue
		}
		r.cachedMu.Lock()
		err := n.cfg.Codec.Unmarshal(p.Data, r.content)
		r.cachedMu.Unlock()
		if err != nil {
			if n.log.On() {
				n.log.Logf("daemon", "cached unmarshal %q: %v", p.Name, err)
			}
		}
	}
}

// PublishCached pushes a cached replica's current content to the listed
// sites (all directory sites when targets is nil), best-effort: failures
// are logged and skipped, and no ordering is enforced.
func (n *Node) PublishCached(ctx context.Context, r *Replica, targets []wire.SiteID) error {
	r.cachedMu.Lock()
	blob, err := n.cfg.Codec.Marshal(r.content)
	r.cachedMu.Unlock()
	if err != nil {
		return fmt.Errorf("core: marshal cached %q: %w", r.name, err)
	}
	if targets == nil {
		for site := range n.cfg.Directory {
			if site != n.cfg.Site {
				targets = append(targets, site)
			}
		}
	}
	pu := &wire.PushUpdate{
		Lock:     CachedLock,
		From:     n.cfg.Site,
		Version:  1,
		Replicas: []wire.ReplicaPayload{{Name: r.name, Data: blob}},
	}
	msg := wire.Marshal(pu)
	for _, site := range targets {
		addr, err := n.daemonAddr(site)
		if err != nil {
			if n.log.On() {
				n.log.Logf("daemon", "cached publish: %v", err)
			}
			continue
		}
		sendCtx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		if err := n.xfer.port.Send(sendCtx, addr, msg); err != nil {
			if n.log.On() {
				n.log.Logf("daemon", "cached publish of %q to site %d failed: %v", r.name, site, err)
			}
		}
		cancel()
	}
	return nil
}

// Marshal content helper used by the runtime layer.
func (n *Node) marshalContent(c *marshal.Content) ([]byte, error) {
	return n.cfg.Codec.Marshal(c)
}
