package core

import (
	"context"
	"fmt"
	"time"

	"mocha/internal/wire"
)

// This file implements the synchronization-thread recovery the paper
// sketches at the end of Section 4: "Failure detection and handling of the
// synchronization thread could be handled by logging its state and
// employing a recovery protocol whereby a new synchronization thread is
// spawned which informs the daemon threads of its existence."
//
// The fixed home is a ring of one with no standby to stream to, so its
// state is logged by hand (Snapshot) and the surrogate is started by hand
// (StartSurrogate). Everything after that is a standby promotion: the
// records install through the same loop, holds survive with their
// remaining leases, and a HomeMoved broadcast — for the whole slice, since
// the snapshot is the manager's complete log — informs the daemons.

// SyncState is the synchronization thread's logged state: every record it
// homes, in the wire.LockRecord form handoff and standby streaming use, and
// its ban table. Epoch is the highest home epoch among the records; a
// surrogate restoring the state manages them at Epoch+1.
type SyncState struct {
	Epoch  uint32
	Locks  map[wire.LockID]wire.LockRecord
	Banned map[wire.ThreadID]BanRecord
}

// BanRecord is the compact durable form of one ban: which lock's lease
// expired and which site's heartbeat went unanswered. The human-readable
// reason string is reconstructed on demand — the only ban cause is a
// lease break, so two integers carry the whole story.
type BanRecord struct {
	Lock wire.LockID
	Site wire.SiteID
}

// Snapshot captures the manager's durable state — the "logging its state"
// half of the recovery protocol. It walks the shards one at a time, so a
// snapshot never stalls lock traffic table-wide. Tombstones of migrated
// locks are not this manager's records and stay out.
func (s *syncThread) Snapshot() SyncState {
	out := SyncState{
		Epoch:  s.epoch,
		Locks:  make(map[wire.LockID]wire.LockRecord),
		Banned: make(map[wire.ThreadID]BanRecord),
	}
	now := time.Now()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, l := range sh.locks {
			l.mu.Lock()
			if l.moved == nil {
				out.Locks[id] = snapshotRecordLocked(l, now)
				out.Epoch = max(out.Epoch, l.homeEpoch)
			}
			l.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	s.bannedMu.Lock()
	for t, rec := range s.banned {
		out.Banned[t] = BanRecord{Lock: rec.lock, Site: rec.site}
	}
	s.bannedMu.Unlock()
	return out
}

// StartSurrogate spawns a surrogate synchronization thread on this node
// from a logged snapshot: the records are promoted as a dead home's
// standby promotes its shadows, this manager takes over the fixed home's
// whole ring slice, and every daemon in the directory is informed of its
// existence.
func (n *Node) StartSurrogate(ctx context.Context, state SyncState) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.sync != nil {
		n.mu.Unlock()
		return fmt.Errorf("core: site %d already runs a synchronization thread", n.cfg.Site)
	}
	n.mu.Unlock()

	s, err := newSyncThread(n, state.Epoch+1)
	if err != nil {
		return fmt.Errorf("core: start surrogate: %w", err)
	}
	n.mu.Lock()
	n.sync = s
	n.mu.Unlock()

	for t, rec := range state.Banned {
		s.ban(t, rec.Lock, rec.Site)
	}
	hs := s.home
	hs.takeSlice(wire.HomeSite)
	records := make([]*shadowRecord, 0, len(state.Locks))
	for _, rec := range state.Locks {
		records = append(records, &shadowRecord{epoch: state.Epoch, rec: rec})
	}
	hs.promote(records)
	n.learnSlice(wire.HomeSite, n.cfg.Site, s.epoch)
	if n.log.On() {
		n.log.Logf("sync", "surrogate synchronization thread started with %d records (epoch %d)", len(records), s.epoch)
	}
	hs.broadcast(ctx, &wire.HomeMoved{From: wire.HomeSite, To: n.cfg.Site, Epoch: s.epoch})
	return nil
}
