package core

import (
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/placement"
	"mocha/internal/wire"
)

// This file implements the mobile lock namespace. With home placement on,
// the lock namespace is partitioned across manager sites by a consistent-
// hash ring (internal/placement) instead of pinned to the paper's single
// home site, and a lock's home can move at runtime:
//
//   - Migration: the sweep watches per-site acquire tallies and, when a
//     remote site dominates an idle lock's traffic, freezes the record,
//     ships it to that site in a HandoffRecord, and leaves a redirecting
//     tombstone behind. Clients chasing the old home get NackNotHome with
//     the new address and re-route.
//   - Standby failover: every home streams record deltas to one standby,
//     its nearest live ring member by one timed probe round (chooseStandby).
//     The standby watches every home that streams to it and, after enough
//     missed heartbeats, promotes its shadows — leases, version floors,
//     and dirty sets survive the home's death, so no lock is stranded.
//
// Everything here is reached only through a non-nil *homeState; a nil one
// (placement off) preserves the fixed-home baseline byte for byte.

const (
	// migrateMinAcquires is the tally a lock must accumulate before the
	// sweep considers moving its home; tallies halve each time they are
	// considered, so a stale burst decays instead of triggering forever.
	migrateMinAcquires = 8
	// handoffAttempts bounds HandoffRecord (re)sends per migration.
	handoffAttempts = 3
	// standbyMissThreshold is how many consecutive failed probes of a home
	// the standby monitor tolerates before promoting.
	standbyMissThreshold = 3
	// standbyBand is how much slower than the fastest probe answer a ring
	// member may be and still count as near when a home picks its standby:
	// the overlay's locality band, so "near" means one thing everywhere.
	standbyBand = overlay.DefaultBucketWidth
)

// homeRoute is a forwarding address for a migrated lock: where it went
// and at what per-lock epoch. to and epoch are immutable; rec (re-ship
// insurance, see below) has its own lock.
type homeRoute struct {
	to    wire.SiteID
	epoch uint32

	// recMu guards rec: a marshaled HandoffRecord retained when a
	// migration committed without an application-level ack (the MNet ack
	// proved delivery of the packet, not the install). Each redirect
	// re-ships it until a late HandoffAck clears it, so a target that
	// dropped the install under queue pressure still converges.
	recMu sync.Mutex
	rec   []byte
}

func (r *homeRoute) setRec(data []byte) {
	r.recMu.Lock()
	r.rec = data
	r.recMu.Unlock()
}

func (r *homeRoute) getRec() []byte {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	return r.rec
}

// shadowRecord is a standby's copy of one of a home's records.
type shadowRecord struct {
	from  wire.SiteID
	epoch uint32
	seq   uint64
	rec   wire.LockRecord
}

// homeState is the per-manager mobile-namespace bookkeeping. Its mutex is
// a leaf: never held while taking a shard or record mutex, and vice versa
// code paths release one before taking the other.
type homeState struct {
	s    *syncThread
	ring *placement.Ring
	self wire.SiteID

	// standbyOnce guards standbyTo, the one standby this home streams to,
	// chosen on first use (see standby); 0 only when the ring has no other
	// member.
	standbyOnce sync.Once
	standbyTo   wire.SiteID

	mu sync.Mutex
	// adopted marks locks this manager serves even though the ring hashes
	// them elsewhere (installed by handoff or promotion). Adoption
	// survives record GC so a re-register recreates the record here
	// instead of ping-ponging between managers.
	adopted map[wire.LockID]bool
	// moved keeps forwarding routes for migrated-away locks after their
	// tombstone records are collected.
	moved   map[wire.LockID]*homeRoute
	shadows map[wire.LockID]*shadowRecord
	// waiters delivers HandoffAcks to in-flight migrations, keyed by lock
	// (a frozen lock has at most one migration).
	waiters  map[wire.LockID]chan *wire.HandoffAck
	promoted map[wire.SiteID]bool
	// watching marks the homes that stream to this standby, each watched
	// by one monitor from its first StandbyUpdate on; retired stops new
	// monitors once the manager is stopping.
	watching map[wire.SiteID]bool
	retired  bool
}

func newHomeState(s *syncThread) *homeState {
	return &homeState{
		s:        s,
		ring:     s.node.ring,
		self:     s.node.cfg.Site,
		adopted:  make(map[wire.LockID]bool),
		moved:    make(map[wire.LockID]*homeRoute),
		shadows:  make(map[wire.LockID]*shadowRecord),
		waiters:  make(map[wire.LockID]chan *wire.HandoffAck),
		promoted: make(map[wire.SiteID]bool),
		watching: make(map[wire.SiteID]bool),
	}
}

// retire stops StandbyUpdates from starting monitors. syncThread.stop calls
// it before waiting out sweepWG, so every monitor's Add precedes the Wait.
func (hs *homeState) retire() {
	hs.mu.Lock()
	hs.retired = true
	hs.mu.Unlock()
}

func (hs *homeState) routeFor(lock wire.LockID) *homeRoute {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.moved[lock]
}

func (hs *homeState) isAdopted(lock wire.LockID) bool {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.adopted[lock]
}

func (hs *homeState) adopt(lock wire.LockID) {
	hs.mu.Lock()
	hs.adopted[lock] = true
	delete(hs.moved, lock)
	hs.mu.Unlock()
}

// ---- request routing -------------------------------------------------

// redirectIfNotHome answers an acquire with NackNotHome when this manager
// should not serve the lock, reporting whether the request was consumed.
// When the manager will serve it, a stale restored hold by the same
// requester is broken first so the checker never sees a holder queue
// behind its own ghost.
func (hs *homeState) redirectIfNotHome(msg *wire.AcquireLock) bool {
	s := hs.s
	l := s.lookupLock(msg.Lock)
	if l == nil {
		if route := hs.routeFor(msg.Lock); route != nil {
			hs.redirectTo(msg, route)
			return true
		}
		if rh := hs.ring.Home(msg.Lock); rh != hs.self && !hs.isAdopted(msg.Lock) {
			hs.redirectTo(msg, &homeRoute{to: rh})
			return true
		}
		return false // ours: onAcquire refuses it as unknown
	}
	l.mu.Lock()
	if route := l.moved; route != nil {
		l.mu.Unlock()
		hs.redirectTo(msg, route)
		return true
	}
	hs.breakStaleRestoredLocked(l, msg.Thread)
	l.mu.Unlock()
	return false
}

// redirectTo sends the NackNotHome and, when the route still carries
// re-ship insurance, re-sends the handoff record to the new home.
func (hs *homeState) redirectTo(msg *wire.AcquireLock, route *homeRoute) {
	s := hs.s
	s.node.obs().Inc(obs.CHomeRedirects)
	nack := &wire.LockNack{
		Lock: msg.Lock, Thread: msg.Thread, Code: wire.NackNotHome,
		Reason: "lock is homed elsewhere", Home: route.to, HomeEpoch: route.epoch,
	}
	site := msg.Requester
	go s.sendToClient(site, nack)
	if data := route.getRec(); data != nil {
		to := route.to
		go hs.sendToManager(to, data)
	}
}

// breakStaleRestoredLocked drops a restored hold owned by the requesting
// thread; the caller holds l.mu. A restored hold is a best guess shipped
// by the old home — if its owner shows up asking again, the release was
// lost with the old home and the ghost must not block the queue.
func (hs *homeState) breakStaleRestoredLocked(l *syncLock, thread wire.ThreadID) {
	drop := func(h *holderInfo) {
		hs.s.node.recordHist(wire.HistoryEvent{
			Kind: wire.HistBreak, Site: h.site, Thread: h.thread, Lock: l.id,
			Note: "stale-restored-hold",
		})
	}
	if h := l.holder; h != nil && h.restored && h.thread == thread {
		l.holder = nil
		drop(h)
	}
	if h := l.readers[thread]; h != nil && h.restored {
		delete(l.readers, thread)
		drop(h)
	}
}

// forwardReleaseIfMoved re-routes a release for a lock this manager no
// longer (or never) homed, reporting whether the message was consumed.
// Only authoritative knowledge forwards — a moved tombstone or route. A
// release for a lock that plainly is not ours is dropped rather than
// bounced off the ring: releases are best-effort (lease expiry is the
// backstop) and a server-side forwarding loop would never terminate. A
// forwarded release rides the node's release carriage like one of its own:
// same retry ladder, waited out by Close, a loss counted.
func (hs *homeState) forwardReleaseIfMoved(l *syncLock, msg *wire.ReleaseLock) bool {
	var route *homeRoute
	if l != nil {
		l.mu.Lock()
		route = l.moved
		l.mu.Unlock()
		if route == nil {
			return false // live record: serve here
		}
	} else {
		route = hs.routeFor(msg.Lock)
		if route == nil {
			if rh := hs.ring.Home(msg.Lock); rh == hs.self || hs.isAdopted(msg.Lock) {
				return false // ours: onRelease ignores the unknown lock
			}
			return true // not ours, no route: drop
		}
	}
	if route.to == hs.self {
		return false
	}
	// This manager's word on where the lock went is as good as a redirect:
	// teach the node's own router, and the release carriage's ladder starts
	// at the new home.
	n := hs.s.node
	n.learnHome(msg.Lock, route.to, route.epoch)
	var insurance func()
	if rec, to := route.getRec(), route.to; rec != nil {
		// Shipped first so the release finds an installed record at the new
		// home.
		insurance = func() { hs.sendToManager(to, rec) }
	}
	n.client.carryRelease(msg, insurance, nil)
	return true
}

// forwardRegisterIfNotHome re-routes a register toward the lock's home,
// reporting whether the message was consumed. The origin daemon also gets
// a HomeHint when the route is a learned (post-migration) one, so its
// clients skip the detour next time.
func (hs *homeState) forwardRegisterIfNotHome(msg *wire.RegisterReplica) bool {
	s := hs.s
	if l := s.lookupLock(msg.Lock); l != nil {
		l.mu.Lock()
		route := l.moved
		l.mu.Unlock()
		if route == nil {
			return false
		}
		hs.forwardRegister(msg, route.to, route.epoch)
		return true
	}
	if route := hs.routeFor(msg.Lock); route != nil {
		hs.forwardRegister(msg, route.to, route.epoch)
		return true
	}
	if hs.isAdopted(msg.Lock) {
		return false
	}
	if rh := hs.ring.Home(msg.Lock); rh != hs.self {
		hs.forwardRegister(msg, rh, 0)
		return true
	}
	return false
}

func (hs *homeState) forwardRegister(msg *wire.RegisterReplica, to wire.SiteID, epoch uint32) {
	if to == 0 || to == hs.self {
		return
	}
	n := hs.s.node
	data := wire.Marshal(msg)
	origin := msg.Site
	go func() {
		hs.sendToManager(to, data)
		if epoch == 0 {
			return // ring default; nothing worth hinting
		}
		hint := wire.Marshal(&wire.HomeHint{Lock: msg.Lock, Home: to, Epoch: epoch})
		if addr, err := n.daemonAddr(origin); err == nil {
			ctx, cancel := timeoutCtx(n.cfg.RequestTimeout)
			defer cancel()
			_ = hs.s.aux.Send(ctx, addr, hint)
		}
	}()
}

// sendToManager delivers one frame to another manager's sync port.
func (hs *homeState) sendToManager(to wire.SiteID, data []byte) bool {
	n := hs.s.node
	addr, err := n.syncAddrOf(to)
	if err != nil {
		return false
	}
	ctx, cancel := timeoutCtx(n.cfg.RequestTimeout)
	defer cancel()
	return hs.s.aux.Send(ctx, addr, data) == nil
}

// ---- bookkeeping hooks from the synchronization thread ---------------

// noteCreated stamps a freshly created record as homed here.
func (hs *homeState) noteCreated(l *syncLock) {
	l.mu.Lock()
	if l.homeEpoch == 0 {
		l.homeEpoch = 1
	}
	epoch := l.homeEpoch
	l.mu.Unlock()
	n := hs.s.node
	n.recordHist(wire.HistoryEvent{
		Kind: wire.HistHome, Site: hs.self, Lock: l.id, AuxVersion: uint64(epoch), Note: "register",
	})
	n.obs().HomeLockAdd(uint32(hs.self), 1)
}

// noteAcquireLocked tallies one acquire for locality tracking; the caller
// holds l.mu.
func (hs *homeState) noteAcquireLocked(l *syncLock, msg *wire.AcquireLock) {
	if l.acq == nil {
		l.acq = make(map[wire.SiteID]uint64)
	}
	l.acq[msg.Requester]++
	l.acqTotal++
}

// noteCollected settles the books when the sweep collects a record. A
// moved tombstone already paid its gauge and standby delete at commit
// time; adoption is deliberately kept (see homeState.adopted).
func (hs *homeState) noteCollected(id wire.LockID, wasMoved bool) {
	if wasMoved {
		return
	}
	hs.s.node.obs().HomeLockAdd(uint32(hs.self), -1)
	hs.streamDelete(id)
}

// ---- migration -------------------------------------------------------

// migrationTargetLocked decides whether a lock's home should move, and
// where; the caller holds l.mu. Only an idle record moves (no holds, no
// queue), and only toward a ring member whose tally dominates — weighted
// by observed RTT, so far-away heavy users pull harder than near ones.
func (hs *homeState) migrationTargetLocked(l *syncLock) (wire.SiteID, bool) {
	if l.frozen || l.moved != nil || l.holder != nil || len(l.readers) > 0 || len(l.queue) > 0 {
		return 0, false
	}
	if l.acqTotal < migrateMinAcquires {
		return 0, false
	}
	total := l.acqTotal
	defer func() {
		for site := range l.acq {
			l.acq[site] /= 2
		}
		l.acqTotal /= 2
	}()
	tracker := hs.s.node.OverlayTracker()
	var best wire.SiteID
	var bestScore, bestCount uint64
	for site, count := range l.acq {
		if site == hs.self || !hs.ring.Contains(site) {
			continue
		}
		weight := uint64(1)
		if tracker != nil {
			if rtt, ok := tracker.RTT(site); ok {
				if ms := uint64(rtt / time.Millisecond); ms > 1 {
					weight = ms
				}
			}
		}
		if score := count * weight; score > bestScore {
			best, bestScore, bestCount = site, score, count
		}
	}
	if best == 0 || bestCount*2 < total {
		return 0, false
	}
	return best, true
}

// migrate runs the two-phase handoff for one frozen lock. Phase one
// (freeze) happened in the sweep; phase two ships the record snapshot and
// waits for the application-level ack. Outcomes:
//
//   - ack OK: commit — tombstone installed, queue drained with redirects.
//   - explicit refusal: abort — the target deliberately did not install.
//   - no send ever left: abort — nobody can have the record.
//   - sent but never acked: commit with re-ship insurance. The MNet ack
//     means the target received the frame; if its handler dropped it, the
//     insurance re-ships on every redirect until a late ack lands. An
//     uninstalled target is harmless in the meantime — no client routes
//     to it except through our tombstone, which carries the insurance.
func (hs *homeState) migrate(l *syncLock, to wire.SiteID) {
	s := hs.s
	n := s.node
	if d := n.fireFault(FaultContext{Point: FPDelayHandoff, Peer: to, Lock: l.id}); d.Drop {
		hs.unfreeze(l)
		return
	}
	l.mu.Lock()
	if l.moved != nil || !l.frozen {
		l.mu.Unlock()
		return
	}
	epoch := l.homeEpoch
	rec := snapshotRecordLocked(l, time.Now())
	l.mu.Unlock()
	data := wire.Marshal(&wire.HandoffRecord{From: hs.self, Epoch: epoch, Record: rec})

	ch := make(chan *wire.HandoffAck, handoffAttempts+1)
	hs.mu.Lock()
	hs.waiters[l.id] = ch
	hs.mu.Unlock()
	defer func() {
		hs.mu.Lock()
		delete(hs.waiters, l.id)
		hs.mu.Unlock()
	}()

	n.recordHist(wire.HistoryEvent{
		Kind: wire.HistHandoff, Site: hs.self, Lock: l.id,
		Sites: wire.NewSiteSet(to), AuxVersion: uint64(epoch),
	})
	n.obs().Inc(obs.CHandoffsOut)
	if n.log.On() {
		n.log.Logf("sync", "migrating lock %d home to site %d (epoch %d)", l.id, to, epoch)
	}

	sent := false
	for attempt := 0; attempt < handoffAttempts; attempt++ {
		if hs.sendToManager(to, data) {
			sent = true
		}
		select {
		case ack := <-ch:
			if ack.OK && ack.To == to {
				hs.commitMove(l, to, epoch+1, nil)
			} else {
				hs.unfreeze(l)
			}
			return
		case <-time.After(n.cfg.RequestTimeout):
		case <-s.stopCh:
			hs.unfreeze(l)
			return
		}
	}
	if sent {
		hs.commitMove(l, to, epoch+1, data)
	} else {
		hs.unfreeze(l)
	}
}

// unfreeze aborts a migration: the record resumes granting here.
func (hs *homeState) unfreeze(l *syncLock) {
	s := hs.s
	l.mu.Lock()
	s.recordDeferredLocked(l)
	l.frozen = false
	actions := s.tryGrantLocked(l)
	l.mu.Unlock()
	s.run(actions)
}

// commitMove installs the tombstone for a migrated-away lock and drains
// its queue with redirects. insurance is the marshaled HandoffRecord to
// keep re-shipping (nil when the target acked the install).
func (hs *homeState) commitMove(l *syncLock, to wire.SiteID, newEpoch uint32, insurance []byte) {
	s := hs.s
	n := s.node
	route := &homeRoute{to: to, epoch: newEpoch}
	if insurance != nil {
		route.setRec(insurance)
	}
	l.mu.Lock()
	l.moved = route
	l.frozen = false
	drained := l.queue
	l.queue = nil
	l.mu.Unlock()
	for range drained {
		n.obs().GaugeAdd(obs.GSyncQueueDepth, -1)
		n.obs().ShardDepthAdd(int(uint32(l.id)%uint32(len(s.shards))), -1)
	}
	hs.mu.Lock()
	hs.moved[l.id] = route
	delete(hs.adopted, l.id)
	hs.mu.Unlock()
	n.obs().Inc(obs.CHomeMigrations)
	n.obs().HomeLockAdd(uint32(hs.self), -1)
	hs.streamDelete(l.id)
	for _, req := range drained {
		msg := &wire.AcquireLock{Lock: l.id, Requester: req.site, Thread: req.thread, Shared: req.shared}
		s.recordRequest(l.id, req)
		s.recordNack(msg, "lock moved to new home")
		hs.redirectTo(msg, route)
	}
	if n.log.On() {
		n.log.Logf("sync", "lock %d home moved to site %d (epoch %d)", l.id, to, newEpoch)
	}
}

// onHandoff installs a shipped lock record, making this manager the
// lock's home, and acks the old home. Installs are idempotent: a re-ship
// of an already-installed record just re-acks.
func (s *syncThread) onHandoff(msg *wire.HandoffRecord) {
	hs := s.home
	lock := msg.Record.Lock
	ok := hs != nil && hs.install(msg)
	ack := wire.Marshal(&wire.HandoffAck{Lock: lock, To: s.node.cfg.Site, Epoch: msg.Epoch, OK: ok})
	from := msg.From
	go func() {
		if hs != nil {
			hs.sendToManager(from, ack)
			return
		}
		if addr, err := s.node.syncAddrOf(from); err == nil {
			ctx, cancel := timeoutCtx(s.node.cfg.RequestTimeout)
			defer cancel()
			_ = s.aux.Send(ctx, addr, ack)
		}
	}()
}

func (hs *homeState) install(msg *wire.HandoffRecord) bool {
	s := hs.s
	n := s.node
	newEpoch := msg.Epoch + 1
	l, created := s.ensureLockCreated(msg.Record.Lock)
	l.mu.Lock()
	if !created && l.moved == nil && l.homeEpoch >= newEpoch {
		// A duplicate of a record already installed (or one we since
		// re-homed at a higher epoch): just re-ack.
		l.mu.Unlock()
		return true
	}
	becameHome := created || l.moved != nil
	l.moved = nil
	l.frozen = false
	s.installRecordLocked(l, &msg.Record, newEpoch)
	n.recordHist(wire.HistoryEvent{
		Kind: wire.HistHome, Site: hs.self, Lock: l.id, AuxVersion: uint64(newEpoch), Note: "handoff-install",
	})
	standby := hs.standbyActionLocked(l)
	l.mu.Unlock()
	hs.adopt(l.id)
	n.obs().Inc(obs.CHandoffsIn)
	if becameHome {
		n.obs().HomeLockAdd(uint32(hs.self), 1)
	}
	go standby()
	if n.log.On() {
		n.log.Logf("sync", "installed lock %d from site %d (epoch %d)", l.id, msg.From, newEpoch)
	}
	return true
}

// onHandoffAck routes an ack to the waiting migration, or — when the
// migration already committed on timeout — retires its re-ship insurance.
func (hs *homeState) onHandoffAck(msg *wire.HandoffAck) {
	hs.mu.Lock()
	ch := hs.waiters[msg.Lock]
	route := hs.moved[msg.Lock]
	hs.mu.Unlock()
	if ch != nil {
		select {
		case ch <- msg:
		default:
		}
		return
	}
	if msg.OK && route != nil && route.to == msg.To {
		route.setRec(nil)
	}
}

// ---- standby replication and failover --------------------------------

// chooseStandby picks a home's standby from order — the other ring members
// in ID-successor order — by timing one probe to each, all in parallel.
// The standby is the first member in order whose round trip is below the
// fastest answer plus band, so equally near members tie-break by ID the
// way the ring always did. The choice closes at the first answer plus band
// (or once every probe is back): a dead or far member never delays it.
// With no answer at all it is order[0], the ring successor — as it is on a
// uniform network, where every member answers inside the band. The second
// result is the chosen member's round trip, 0 when none was measured.
func chooseStandby(order []wire.SiteID, band time.Duration, probe func(wire.SiteID) bool) (wire.SiteID, time.Duration) {
	if len(order) == 0 {
		return 0, 0
	}
	type answer struct {
		site wire.SiteID
		rtt  time.Duration
		ok   bool
	}
	// Buffered for every probe: the ones still out when the choice closes
	// finish into it and exit.
	answers := make(chan answer, len(order))
	start := time.Now()
	for _, site := range order {
		site := site
		go func() {
			ok := probe(site)
			answers <- answer{site, time.Since(start), ok}
		}()
	}
	rtts := make(map[wire.SiteID]time.Duration, len(order))
	var fastest time.Duration
	var closed <-chan time.Time
collect:
	for pending := len(order); pending > 0; pending-- {
		select {
		case a := <-answers:
			if !a.ok {
				continue
			}
			if len(rtts) == 0 {
				fastest = a.rtt
				t := time.NewTimer(band)
				defer t.Stop()
				closed = t.C
			}
			rtts[a.site] = a.rtt
		case <-closed:
			break collect
		}
	}
	for _, site := range order {
		if rtt, ok := rtts[site]; ok && rtt < fastest+band {
			return site, rtt
		}
	}
	return order[0], 0
}

// standby returns the one site this home streams its records to, choosing
// it on first use — before the first record the home creates, installs or
// promotes is streamed — by one Heartbeat probe to every other ring member
// (chooseStandby). The probes' samples choose the standby and nothing
// else. Callers hold no record mutex: the first one waits out the probes.
func (hs *homeState) standby() wire.SiteID {
	hs.standbyOnce.Do(func() {
		s := hs.s
		to, rtt := chooseStandby(hs.ring.Successors(hs.self), standbyBand, func(site wire.SiteID) bool {
			addr, err := s.node.daemonAddr(site)
			return err == nil && s.probe(addr)
		})
		hs.standbyTo = to
		s.node.obs().StandbyRTTSet(uint32(hs.self), rtt)
		if s.node.log.On() {
			s.node.log.Logf("sync", "standby for site %d's records is site %d (probe rtt %v)", hs.self, to, rtt)
		}
	})
	return hs.standbyTo
}

// hasStandby reports whether this home streams to a standby at all — any
// other ring member — without waiting for the choice; safe under l.mu.
func (hs *homeState) hasStandby() bool { return hs.ring.Len() > 1 }

// standbyActionLocked snapshots the record for the standby; the caller
// holds l.mu. The returned action performs the send (never nil, possibly a
// no-op) and must run outside every record mutex.
func (hs *homeState) standbyActionLocked(l *syncLock) func() {
	if !hs.hasStandby() || l.moved != nil {
		return func() {}
	}
	l.standbySeq++
	upd := &wire.StandbyUpdate{From: hs.self, Epoch: l.homeEpoch, Seq: l.standbySeq, Record: snapshotRecordLocked(l, time.Now())}
	data := wire.Marshal(upd)
	return func() {
		if hs.sendToManager(hs.standby(), data) {
			hs.s.node.obs().Inc(obs.CStandbyUpdates)
		}
	}
}

// streamHoldSync streams the record to the standby synchronously. Called
// by deliverGrant before the grant leaves, closing the window where a
// client could hold a lock no standby knows about.
func (hs *homeState) streamHoldSync(l *syncLock) {
	start := time.Now()
	l.mu.Lock()
	action := hs.standbyActionLocked(l)
	l.mu.Unlock()
	action()
	hs.s.node.obs().Observe(obs.HStandbyStream, time.Since(start))
}

// streamDelete retires the standby's shadow of a collected record.
func (hs *homeState) streamDelete(lock wire.LockID) {
	if !hs.hasStandby() {
		return
	}
	data := wire.Marshal(&wire.StandbyUpdate{From: hs.self, Delete: true, Record: wire.LockRecord{Lock: lock}})
	go func() {
		if hs.sendToManager(hs.standby(), data) {
			hs.s.node.obs().Inc(obs.CStandbyUpdates)
		}
	}()
}

// onStandbyUpdate applies one home's record delta to the shadow table. The
// first update from a home starts this site's monitor of it: a home names
// its standby by streaming to it, so the two agree by construction.
func (hs *homeState) onStandbyUpdate(msg *wire.StandbyUpdate) {
	if msg.From == hs.self {
		return
	}
	lock := msg.Record.Lock
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if !hs.watching[msg.From] && !hs.retired {
		hs.watching[msg.From] = true
		hs.s.sweepWG.Add(1)
		go hs.monitor(msg.From)
	}
	if msg.Delete {
		// Deletes carry no snapshot sequence: the home GC'd the record, so
		// any shadow it streamed is obsolete regardless of ordering.
		if old := hs.shadows[lock]; old != nil && old.from == msg.From {
			delete(hs.shadows, lock)
		}
		return
	}
	if old := hs.shadows[lock]; old != nil && old.from == msg.From &&
		(old.epoch > msg.Epoch || (old.epoch == msg.Epoch && old.seq >= msg.Seq)) {
		return
	}
	hs.shadows[lock] = &shadowRecord{from: msg.From, epoch: msg.Epoch, seq: msg.Seq, rec: msg.Record}
}

// monitor probes a home that streams to this standby and promotes its
// shadows once it is declared dead. One-shot: after a promotion the
// monitor retires (the static ring has no rejoin protocol).
func (hs *homeState) monitor(home wire.SiteID) {
	s := hs.s
	defer s.sweepWG.Done()
	t := time.NewTicker(s.node.cfg.LeaseSweep)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-t.C:
		case <-s.stopCh:
			return
		}
		addr, err := s.node.daemonAddr(home)
		if err != nil {
			continue
		}
		if s.probe(addr) {
			misses = 0
			continue
		}
		misses++
		if misses >= standbyMissThreshold {
			hs.promoteFrom(home)
			return
		}
	}
}

// promoteFrom installs every shadow streamed by a dead home, making this
// manager home for its locks, and broadcasts the new routes. Restored
// holds are re-anchored on this site's clock with their shipped remaining
// leases; version floors and dirty sets carry over unchanged.
func (hs *homeState) promoteFrom(dead wire.SiteID) {
	s := hs.s
	n := s.node
	hs.mu.Lock()
	if hs.promoted[dead] {
		hs.mu.Unlock()
		return
	}
	hs.promoted[dead] = true
	var shadows []*shadowRecord
	for lock, sh := range hs.shadows {
		if sh.from == dead {
			shadows = append(shadows, sh)
			delete(hs.shadows, lock)
		}
	}
	hs.mu.Unlock()
	n.obs().Inc(obs.CStandbyPromotions)
	if n.log.On() {
		n.log.Logf("fault", "promoting %d standby records from dead site %d", len(shadows), dead)
	}

	var locks []wire.LockID
	var maxEpoch uint32
	var standbys []func()
	for _, sh := range shadows {
		newEpoch := sh.epoch + 1
		l, created := s.ensureLockCreated(sh.rec.Lock)
		l.mu.Lock()
		if !created && l.moved == nil && l.homeEpoch >= newEpoch {
			l.mu.Unlock()
			continue
		}
		l.moved = nil
		l.frozen = false
		s.installRecordLocked(l, &sh.rec, newEpoch)
		var holderThread wire.ThreadID
		if sh.rec.HasHolder {
			holderThread = sh.rec.Holder.Thread
		}
		n.recordHist(wire.HistoryEvent{
			Kind: wire.HistRecover, Site: hs.self, Lock: l.id, Version: sh.rec.Version,
			Thread: holderThread, Sites: sh.rec.UpToDate.Clone(), Note: "standby-promote",
		})
		n.recordHist(wire.HistoryEvent{
			Kind: wire.HistHome, Site: hs.self, Lock: l.id, AuxVersion: uint64(newEpoch), Note: "standby-promote",
		})
		standbys = append(standbys, hs.standbyActionLocked(l))
		l.mu.Unlock()
		hs.adopt(l.id)
		n.obs().HomeLockAdd(uint32(hs.self), 1)
		locks = append(locks, l.id)
		if newEpoch > maxEpoch {
			maxEpoch = newEpoch
		}
	}
	if len(locks) == 0 {
		return
	}
	for _, lk := range locks {
		n.learnHome(lk, hs.self, maxEpoch)
	}
	moved := wire.Marshal(&wire.HomeMoved{From: dead, To: hs.self, Epoch: maxEpoch, Locks: locks})
	for site := range n.cfg.Directory {
		if site == hs.self {
			continue
		}
		site := site
		go func() {
			if addr, err := n.daemonAddr(site); err == nil {
				ctx, cancel := timeoutCtx(n.cfg.RequestTimeout)
				defer cancel()
				_ = s.aux.Send(ctx, addr, moved)
			}
		}()
	}
	for _, f := range standbys {
		go f()
	}
}

// ---- record serialization --------------------------------------------

// snapshotRecordLocked serializes a record for handoff or standby
// streaming; the caller holds l.mu. Queued requests are not carried —
// waiters re-issue after a redirect or timeout.
func snapshotRecordLocked(l *syncLock, now time.Time) wire.LockRecord {
	rec := wire.LockRecord{
		Lock:      l.id,
		Version:   l.version,
		HighWater: l.highWater,
		LastOwner: l.lastOwner,
		Fence:     l.fence,
		UpToDate:  l.upToDate.Clone(),
		Dirty:     l.dirty.Clone(),
		Sharers:   l.sharers.Clone(),
	}
	for name := range l.names {
		rec.Names = append(rec.Names, name)
	}
	if h := l.holder; h != nil {
		rec.HasHolder = true
		rec.Holder = heldLease(h, now)
	}
	for _, h := range l.readers {
		rec.Readers = append(rec.Readers, heldLease(h, now))
	}
	return rec
}

func heldLease(h *holderInfo, now time.Time) wire.HeldLease {
	remaining := h.lease - now.Sub(h.grantedAt)
	if remaining < 0 {
		remaining = 0
	}
	return wire.HeldLease{
		Thread: h.thread, Site: h.site, Shared: h.shared,
		RemainingMillis: uint32(remaining / time.Millisecond),
	}
}

// installRecordLocked overwrites a record from a shipped snapshot; the
// caller holds l.mu. Holds are re-anchored on the local clock with their
// remaining leases and marked restored.
func (s *syncThread) installRecordLocked(l *syncLock, rec *wire.LockRecord, homeEpoch uint32) {
	l.version = rec.Version
	l.highWater = rec.HighWater
	if l.highWater < l.version {
		l.highWater = l.version
	}
	l.lastOwner = rec.LastOwner
	if rec.Fence > l.fence {
		l.fence = rec.Fence
	}
	l.upToDate = rec.UpToDate.Clone()
	l.dirty = rec.Dirty.Clone()
	l.sharers = rec.Sharers.Clone()
	if l.names == nil {
		l.names = make(map[string]bool)
	}
	for _, name := range rec.Names {
		l.names[name] = true
	}
	l.homeEpoch = homeEpoch
	l.holder = nil
	if l.readers == nil {
		l.readers = make(map[wire.ThreadID]*holderInfo)
	} else {
		for k := range l.readers {
			delete(l.readers, k)
		}
	}
	now := time.Now()
	restored := func(h *wire.HeldLease) *holderInfo {
		return &holderInfo{
			site: h.Site, thread: h.Thread, shared: h.Shared,
			grantedAt: now,
			lease:     time.Duration(h.RemainingMillis) * time.Millisecond,
			restored:  true,
		}
	}
	if rec.HasHolder {
		l.holder = restored(&rec.Holder)
		// The original token travelled with the grant the holder already
		// has; mint a fresh one under the new epoch so any revised grant
		// issued from here carries a strictly larger fence.
		l.holder.fence = s.mintFenceLocked(l)
	}
	for i := range rec.Readers {
		h := restored(&rec.Readers[i])
		h.fence = s.mintFenceLocked(l)
		l.readers[h.thread] = h
	}
}

// PromoteStandby forces this site's manager to promote the shadows it
// holds for one home, as if the standby monitor had declared it
// dead. For tests and operational tooling.
func (n *Node) PromoteStandby(from wire.SiteID) {
	n.mu.Lock()
	s := n.sync
	n.mu.Unlock()
	if s == nil || s.home == nil {
		return
	}
	s.home.promoteFrom(from)
}
