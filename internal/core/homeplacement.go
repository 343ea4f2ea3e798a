package core

import (
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/placement"
	"mocha/internal/wire"
)

// This file implements the home model's routing and migration. The lock
// namespace is partitioned across manager sites by a consistent-hash ring
// (internal/placement): every site under HomePlacement, the paper's fixed
// home site alone otherwise. A lock's home can move at runtime:
//
//   - Migration: the sweep watches per-site acquire tallies and, when
//     moving an idle lock to a remote ring member would cut its acquirers'
//     round trips by a margin (migrationTarget), freezes the record, ships
//     it to that site in a HandoffRecord, and leaves a redirecting
//     tombstone behind. Clients chasing the old home get NackNotHome with
//     the new address and re-route.
//   - Takeover: a dead home's records are promoted elsewhere — by the
//     standby it streamed them to, or by a surrogate started from its
//     snapshot (standby.go, surrogate.go) — and a HomeMoved broadcast
//     re-routes the clients.
//
// A ring of one has no member to migrate to and no standby, so the fixed
// home runs the same code and behaves as the paper's.

const (
	// migrateMinAcquires is the tally a lock must accumulate before the
	// sweep considers moving its home. A considered tally halves once it
	// reaches twice this, so a stale burst decays while a recent split of
	// 8 to 15 acquires stays in view.
	migrateMinAcquires = 8
	// handoffAttempts bounds HandoffRecord (re)sends per migration.
	handoffAttempts = 3
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
	// slice is the ring member whose whole slice this manager took over
	// as a surrogate (0: none); it serves that slice's unknown locks too.
	slice wire.SiteID
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

func (hs *homeState) adopt(lock wire.LockID) {
	hs.mu.Lock()
	hs.adopted[lock] = true
	delete(hs.moved, lock)
	hs.mu.Unlock()
}

func (hs *homeState) takeSlice(member wire.SiteID) {
	hs.mu.Lock()
	hs.slice = member
	hs.mu.Unlock()
}

// ---- request routing -------------------------------------------------

// elsewhere resolves where a lock this manager holds no record for lives:
// nil when this manager serves it — its ring slice, an adopted lock, or a
// slice it took over — else the route to follow: a migration's forwarding
// route, or the ring default at epoch 0.
func (hs *homeState) elsewhere(lock wire.LockID) *homeRoute {
	hs.mu.Lock()
	route, adopted, slice := hs.moved[lock], hs.adopted[lock], hs.slice
	hs.mu.Unlock()
	if route != nil {
		return route
	}
	if rh := hs.ring.Home(lock); rh != hs.self && rh != slice && !adopted {
		return &homeRoute{to: rh}
	}
	return nil
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

// forwardRelease re-routes a release for a lock this manager no longer
// homes along the migration's route. Only authoritative knowledge forwards
// — a moved tombstone or route: a release for a lock that plainly is not
// ours is dropped rather than bounced off the ring, because releases are
// best-effort (lease expiry is the backstop) and a server-side forwarding
// loop would never terminate. A forwarded release rides the node's release
// carriage like one of its own: same retry ladder, waited out by Close, a
// loss counted.
func (hs *homeState) forwardRelease(msg *wire.ReleaseLock, route *homeRoute) {
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
}

// forwardRegister re-routes a register toward the lock's home. The origin
// daemon also gets a HomeHint when the route is a learned
// (post-migration) one, so its clients skip the detour next time.
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

// noteCreatedLocked stamps a record registration created as homed here;
// the caller holds l.mu. A handoff or promotion that installed the record
// first has stamped it already.
func (hs *homeState) noteCreatedLocked(l *syncLock) {
	if l.homeEpoch != 0 {
		return
	}
	l.homeEpoch = 1
	n := hs.s.node
	n.recordHist(wire.HistoryEvent{
		Kind: wire.HistHome, Site: hs.self, Lock: l.id, AuxVersion: 1, Note: "register",
	})
	n.obs().HomeLockAdd(uint32(hs.self), 1)
}

// noteAcquireLocked tallies one acquire for locality tracking; the caller
// holds l.mu. A ring of one has nowhere to migrate to and keeps no tally.
func (hs *homeState) noteAcquireLocked(l *syncLock, msg *wire.AcquireLock) {
	if hs.ring.Len() == 1 {
		return
	}
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
// where; the caller holds l.mu. Only an idle record is considered (no
// holds, no queue); migrationTarget makes the decision. The tallies halve
// once they reach twice migrateMinAcquires, not at every decision: a
// decision to stay keeps its evidence, so every sweep decides on the last
// 8 to 15 acquires instead of a fresh handful.
func (hs *homeState) migrationTargetLocked(l *syncLock) (wire.SiteID, bool) {
	if l.frozen || l.moved != nil || l.holder != nil || len(l.readers) > 0 || len(l.queue) > 0 ||
		l.acqTotal < migrateMinAcquires {
		return 0, false
	}
	defer func() {
		if l.acqTotal < 2*migrateMinAcquires {
			return
		}
		for site := range l.acq {
			l.acq[site] /= 2
		}
		l.acqTotal /= 2
	}()
	rtt := func(wire.SiteID) (time.Duration, bool) { return 0, false }
	if tracker := hs.s.node.OverlayTracker(); tracker != nil {
		rtt = tracker.RTT
	}
	return migrationTarget(l.acq, l.acqTotal, hs.self, hs.ring.Contains, rtt)
}

// migrationTarget is the migration rule, a pure function of one lock's
// decayed per-site acquire tally (acq, summing to total), the incumbent
// home self, ring membership and the incumbent's round-trip estimates.
//
// An acquire costs a round trip to the home, so moving the home from self
// to a challenger makes the challenger's acquires cheap and every other
// acquire no cheaper. The acquires that are already cheap count against
// the move: self's own and, where the round trip is known, those of sites
// within one locality band of self. The home moves only when the
// challenger's tally exceeds them by a third of the whole tally; a tie, or
// anything short of that margin, stays put, so two sites sharing a lock
// do not toss its home back and forth. Round trips choose among
// challengers (a far heavy acquirer is worth more than a near one) but
// never decide stay against move; unknown round trips weigh 1.
func migrationTarget(acq map[wire.SiteID]uint64, total uint64, self wire.SiteID,
	member func(wire.SiteID) bool, rtt func(wire.SiteID) (time.Duration, bool)) (wire.SiteID, bool) {
	if total < migrateMinAcquires {
		return 0, false
	}
	var (
		best                 wire.SiteID
		bestScore, bestCount uint64
		stay                 uint64
	)
	for site, count := range acq {
		if site == self {
			stay += count
			continue
		}
		weight := uint64(1)
		if d, ok := rtt(site); ok {
			if d < overlay.DefaultBucketWidth {
				stay += count
			}
			if ms := uint64(d / time.Millisecond); ms > 1 {
				weight = ms
			}
		}
		if !member(site) {
			continue
		}
		if score := count * weight; score > bestScore || score == bestScore && score > 0 && site < best {
			best, bestScore, bestCount = site, score, count
		}
	}
	if best == 0 || bestCount < stay || 3*(bestCount-stay) < total {
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
	hs.install(msg)
	ack := wire.Marshal(&wire.HandoffAck{Lock: msg.Record.Lock, To: s.node.cfg.Site, Epoch: msg.Epoch, OK: true})
	go hs.sendToManager(msg.From, ack)
}

func (hs *homeState) install(msg *wire.HandoffRecord) {
	s := hs.s
	n := s.node
	newEpoch := msg.Epoch + 1
	l, created := s.ensureLockCreated(msg.Record.Lock)
	l.mu.Lock()
	if !created && l.moved == nil && l.homeEpoch >= newEpoch {
		// A duplicate of a record already installed (or one we since
		// re-homed at a higher epoch): just re-ack.
		l.mu.Unlock()
		return
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
	if standby != nil {
		go standby()
	}
	if n.log.On() {
		n.log.Logf("sync", "installed lock %d from site %d (epoch %d)", l.id, msg.From, newEpoch)
	}
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
