// Package store is the pluggable replica-state store behind a site's
// daemon. The paper's library keeps every replica's marshaled bytes in the
// site manager's address space and loses them on a crash — recovery then
// rebuilds state by polling surviving sites (Section 4). This package
// factors that state behind a small interface with two backends:
//
//   - Memory: the extracted in-memory map, the default. Nothing survives a
//     restart, which is exactly the paper's baseline behavior.
//   - FileStore: a log-structured durable store. Every install, patch, and
//     commit appends a wire.WALRecord — the S29 delta encoding reused as
//     the on-disk record format — to a segmented, CRC-framed, fsync-batched
//     write-ahead log. A restarted daemon replays the log and re-joins the
//     protocol at the persisted version instead of refetching everything.
//
// Payload byte slices handed to a store are treated as immutable: stores
// retain them without copying, exactly like the daemon's marshaled-payload
// cache. Records recovered or refaulted from disk are freshly decoded and
// never aliased by later writes.
package store

import (
	"bytes"
	"errors"
	"fmt"

	"mocha/internal/marshal"
	"mocha/internal/wire"
)

// Record is one lock's replica state as the store tracks it: the marshaled
// replica blobs plus the version/commit/fence bookkeeping a recovery needs
// to re-join the protocol honestly.
type Record struct {
	Lock    wire.LockID
	Version uint64
	// Dirty marks state whose commit was not yet durable when the record
	// was written: a release that published Version but whose RELEASELOCK
	// was not yet acknowledged. A recovered dirty record must be reported
	// to version polls as dirty, never as committed — the version number
	// may have died with the releaser.
	Dirty bool
	// Fence is the highest fencing token persisted with the lock's state.
	Fence uint64
	// Replicas holds the lock's marshaled replica blobs by name. Nil on an
	// evicted FileStore record until a Get refaults it.
	Replicas []wire.ReplicaPayload
}

// Store is the replica-state store interface. All methods are safe for
// concurrent use.
type Store interface {
	// Get returns the lock's record, refaulting evicted payloads from the
	// log. ok is false when the lock has no record.
	Get(lock wire.LockID) (rec Record, ok bool, err error)
	// Put installs rec.Replicas as the lock's complete replica set at
	// rec.Version, replacing any prior record.
	Put(rec Record) error
	// AppendDelta advances the lock from fromVersion to rec.Version by the
	// given patch set. deltas carries the ops and is what gets logged and
	// validated; rec.Replicas, when the caller has the patched blobs at
	// hand, lets the store keep the caller's slices instead of a private
	// copy of the same bytes. If the store's current record is not at
	// fromVersion it returns ErrBadDeltaBase and the caller falls back to
	// Put.
	AppendDelta(fromVersion uint64, rec Record, deltas []wire.DeltaPayload) error
	// Commit marks version committed for the lock, clearing the dirty flag
	// the matching Put/AppendDelta recorded.
	Commit(lock wire.LockID, version uint64) error
	// Evict drops the lock's in-memory payload bytes, keeping them
	// refaultable from the backing log. Dirty records refuse eviction with
	// ErrEvictDirty; a volatile store refuses with ErrVolatile.
	Evict(lock wire.LockID) error
	// Recover returns the records replayed from the backing log when the
	// store was opened, once; a volatile store recovers nothing.
	Recover() ([]Record, error)
	// Durable reports whether records survive Close and reopen.
	Durable() bool
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
	Close() error
}

// Stats counts store activity, for the ablation harness and tests.
type Stats struct {
	// Records is the number of locks with live records.
	Records int
	// CachedBytes is the payload bytes currently held in memory.
	CachedBytes int
	Appends     uint64
	Fsyncs      uint64
	Evictions   uint64
	Refaults    uint64
	Compactions uint64
	// Recovered is the number of records replayed at open.
	Recovered int
	// SkippedRecords counts replayed records dropped for a missing or
	// mismatched delta base.
	SkippedRecords uint64
	// TruncatedTails counts segments whose tail was cut at a torn or
	// corrupt frame during replay.
	TruncatedTails uint64
	// FaultsInjected counts storage faults fired by the fault hook.
	FaultsInjected uint64
}

// Sentinel errors.
var (
	// ErrBadDeltaBase rejects an AppendDelta whose base version does not
	// match the stored record; the caller falls back to a full Put.
	ErrBadDeltaBase = errors.New("store: delta base version mismatch")
	// ErrEvictDirty refuses to evict a record whose commit is not durable:
	// dirty bytes above the committed horizon are the only copy that can
	// still be compacted away, so they stay pinned in memory.
	ErrEvictDirty = errors.New("store: record is dirty; eviction refused")
	// ErrVolatile marks operations needing a backing log (eviction) on the
	// in-memory store.
	ErrVolatile = errors.New("store: memory store has no backing log")
	// ErrUnknownLock reports an operation on a lock with no record.
	ErrUnknownLock = errors.New("store: no record for lock")
	// ErrFaultInjected reports an append suppressed by a storage fault
	// point (crash-before-fsync, torn-wal-tail).
	ErrFaultInjected = errors.New("store: fault injected")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
)

// FaultHook lets a fault-exploration harness inject storage faults. It is
// consulted at named points (FPCrashBeforeFsync, FPTornWALTail in core's
// fault-point registry) and returns true when the fault should fire. The
// store cannot import core, so the hook is threaded in as a closure.
type FaultHook func(point string, lock wire.LockID, version uint64) bool

// Storage fault-point names, mirrored by core's fault-point registry.
const (
	// FaultCrashBeforeFsync loses an append as if the site crashed after
	// the release was published but before the log record reached disk.
	FaultCrashBeforeFsync = "crash-before-fsync"
	// FaultTornWALTail writes only a prefix of the record's frame, the
	// torn tail a mid-write power cut leaves behind.
	FaultTornWALTail = "torn-wal-tail"
)

// fullsToDeltas wraps complete replica blobs as Full delta payloads — the
// WALPut body reuses the delta encoding so one record type covers both.
func fullsToDeltas(ps []wire.ReplicaPayload) []wire.DeltaPayload {
	out := make([]wire.DeltaPayload, len(ps))
	for i, p := range ps {
		out[i] = wire.DeltaPayload{Name: p.Name, Full: true, Data: p.Data}
	}
	return out
}

// applyDeltaSet patches a base replica set with a delta payload set,
// verifying lengths and checksums exactly like the daemon's delta apply
// path. Payloads the delta does not name are carried over unchanged.
func applyDeltaSet(base []wire.ReplicaPayload, deltas []wire.DeltaPayload) ([]wire.ReplicaPayload, error) {
	baseByName := make(map[string][]byte, len(base))
	for _, p := range base {
		baseByName[p.Name] = p.Data
	}
	out := make([]wire.ReplicaPayload, 0, len(deltas))
	named := make(map[string]bool, len(deltas))
	for i := range deltas {
		dp := &deltas[i]
		named[dp.Name] = true
		if dp.Full {
			out = append(out, wire.ReplicaPayload{Name: dp.Name, Data: dp.Data})
			continue
		}
		old, ok := baseByName[dp.Name]
		if !ok {
			return nil, fmt.Errorf("store: no base blob for %q", dp.Name)
		}
		ops := make([]marshal.PatchOp, len(dp.Ops))
		for j, op := range dp.Ops {
			ops[j] = marshal.PatchOp{Off: int(op.Off), Data: op.Data}
		}
		patched, err := marshal.ApplyPatch(old, int(dp.NewLen), ops)
		if err != nil {
			return nil, fmt.Errorf("store: patch %q: %w", dp.Name, err)
		}
		if marshal.Checksum(patched) != dp.Checksum {
			return nil, fmt.Errorf("store: checksum mismatch patching %q", dp.Name)
		}
		out = append(out, wire.ReplicaPayload{Name: dp.Name, Data: patched})
	}
	for _, p := range base {
		if !named[p.Name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// shareCallerBlobs replaces each validated blob in patched with the
// caller's slice of the same name when the bytes are identical, so the
// daemon's payload cache and the store hold one blob per (site, lock), as
// they do after a Put. The validated result stays authoritative: a caller
// blob that differs from it is not adopted.
func shareCallerBlobs(patched, caller []wire.ReplicaPayload) []wire.ReplicaPayload {
	for i := range patched {
		for _, c := range caller {
			if c.Name == patched[i].Name && bytes.Equal(c.Data, patched[i].Data) {
				patched[i].Data = c.Data
				break
			}
		}
	}
	return patched
}

// payloadBytes sums a replica set's data bytes, the unit the memory cap
// and LRU accounting work in.
func payloadBytes(ps []wire.ReplicaPayload) int {
	n := 0
	for _, p := range ps {
		n += len(p.Data)
	}
	return n
}
