package core

import (
	"context"
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/wire"
)

// This file holds the other half of the home model (homeplacement.go has
// routing and migration): each home streams its records to one standby,
// the standby promotes them when the home dies, and one record format —
// wire.LockRecord — carries a record through handoff, standby streaming and
// a surrogate's snapshot alike. A ring of one has no other member to
// stream to, so the fixed home streams nothing and only an operator-started
// surrogate promotes its records (surrogate.go).

const (
	// standbyMissThreshold is how many consecutive failed probes of a home
	// the standby monitor tolerates before promoting.
	standbyMissThreshold = 3
	// standbyBand is how much slower than the fastest probe answer a ring
	// member may be and still count as near when a home picks its standby:
	// the overlay's locality band, so "near" means one thing everywhere.
	standbyBand = overlay.DefaultBucketWidth
)

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
// other ring member — without waiting for the choice; safe under l.mu. A
// ring of one has none: the paper's fixed home streams nothing.
func (hs *homeState) hasStandby() bool { return hs.ring.Len() > 1 }

// standbyPushLocked snapshots the record for the standby; the caller
// holds l.mu. The returned push performs the send, reports whether the
// standby acknowledged it, and must run outside every record mutex; it is
// nil when there is nothing to stream (no standby, or a tombstone), so
// callers skip it rather than spawn a no-op.
func (hs *homeState) standbyPushLocked(l *syncLock) func() bool {
	if !hs.hasStandby() || l.moved != nil {
		return nil
	}
	l.standbySeq++
	upd := &wire.StandbyUpdate{From: hs.self, Epoch: l.homeEpoch, Seq: l.standbySeq, Record: snapshotRecordLocked(l, time.Now())}
	data := wire.Marshal(upd)
	return func() bool {
		if !hs.sendToManager(hs.standby(), data) {
			return false
		}
		hs.s.node.obs().Inc(obs.CStandbyUpdates)
		return true
	}
}

// standbyActionLocked is standbyPushLocked as a syncThread.run action.
func (hs *homeState) standbyActionLocked(l *syncLock) func() {
	if push := hs.standbyPushLocked(l); push != nil {
		return func() { push() }
	}
	return nil
}

// streamHoldSync streams the record to the standby synchronously. Called
// by deliverGrant before the grant leaves, closing the window where a
// client could hold a lock no standby knows about.
func (hs *homeState) streamHoldSync(l *syncLock) {
	if !hs.hasStandby() {
		return
	}
	start := time.Now()
	l.mu.Lock()
	action := hs.standbyActionLocked(l)
	l.mu.Unlock()
	if action != nil {
		action()
	}
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

// promoteFrom installs every shadow streamed by a dead home and broadcasts
// the new routes, lock by lock: a standby never saw the dead home's
// migrated-away tombstones, so adopting its whole slice could create a
// second home for a lock the dead home had handed off.
func (hs *homeState) promoteFrom(dead wire.SiteID) {
	n := hs.s.node
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
	if n.log.On() {
		n.log.Logf("fault", "promoting %d standby records from dead site %d", len(shadows), dead)
	}
	locks, epoch := hs.promote(shadows)
	if len(locks) == 0 {
		return
	}
	for _, lk := range locks {
		n.learnHome(lk, hs.self, epoch)
	}
	go hs.broadcast(context.Background(), &wire.HomeMoved{From: dead, To: hs.self, Epoch: epoch, Locks: locks})
}

// promote makes this manager home for records a dead home left behind —
// a standby's shadows or a surrogate's snapshot — each at its shipped home
// epoch + 1, and returns the locks it installed with the highest new
// epoch. Restored holds are re-anchored on this site's clock with their
// shipped remaining leases; version floors and dirty sets carry over
// unchanged.
func (hs *homeState) promote(records []*shadowRecord) ([]wire.LockID, uint32) {
	s := hs.s
	n := s.node
	n.obs().Inc(obs.CStandbyPromotions)
	var locks []wire.LockID
	var maxEpoch uint32
	var standbys []func()
	for _, sh := range records {
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
		if push := hs.standbyActionLocked(l); push != nil {
			standbys = append(standbys, push)
		}
		l.mu.Unlock()
		hs.adopt(l.id)
		n.obs().HomeLockAdd(uint32(hs.self), 1)
		locks = append(locks, l.id)
		maxEpoch = max(maxEpoch, newEpoch)
	}
	s.run(standbys)
	return locks, maxEpoch
}

// broadcast tells every other site's daemon where locks now live and
// returns once each send is acknowledged or has failed.
func (hs *homeState) broadcast(ctx context.Context, moved *wire.HomeMoved) {
	n := hs.s.node
	data := wire.Marshal(moved)
	var wg sync.WaitGroup
	for site := range n.cfg.Directory {
		addr, err := n.daemonAddr(site)
		if site == hs.self || err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendCtx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
			defer cancel()
			if err := hs.s.aux.Send(sendCtx, addr, data); err != nil && n.log.On() {
				n.log.Logf("sync", "HomeMoved to site %d failed: %v", site, err)
			}
		}()
	}
	wg.Wait()
}

// snapshotRecordLocked serializes a record for handoff, standby streaming
// or a surrogate's snapshot; the caller holds l.mu. Queued requests are
// not carried — waiters re-issue after a redirect or timeout.
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
	if s == nil {
		return
	}
	s.home.promoteFrom(from)
}
