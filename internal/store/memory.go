package store

import (
	"sync"

	"mocha/internal/wire"
)

// Memory is the extracted in-memory replica store: a map from lock to
// record, nothing more. It is the default backend and the paper's baseline
// — a crashed site recovers nothing locally and rebuilds purely through
// the version-poll protocol. Eviction is refused (there is no backing log
// to refault from), and Recover always returns an empty set.
type Memory struct {
	mu      sync.Mutex
	records map[wire.LockID]Record
	stats   Stats
	closed  bool
}

var _ Store = (*Memory)(nil)

// NewMemory creates an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{records: make(map[wire.LockID]Record)}
}

// Get implements Store.
func (m *Memory) Get(lock wire.LockID) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Record{}, false, ErrClosed
	}
	rec, ok := m.records[lock]
	return rec, ok, nil
}

// Put implements Store.
func (m *Memory) Put(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.records[rec.Lock] = rec
	m.stats.Appends++
	return nil
}

// AppendDelta implements Store.
func (m *Memory) AppendDelta(fromVersion uint64, rec Record, deltas []wire.DeltaPayload) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	cur, ok := m.records[rec.Lock]
	if !ok || cur.Version != fromVersion {
		return ErrBadDeltaBase
	}
	patched, err := applyDeltaSet(cur.Replicas, deltas)
	if err != nil {
		return err
	}
	rec.Replicas = shareCallerBlobs(patched, rec.Replicas)
	m.records[rec.Lock] = rec
	m.stats.Appends++
	return nil
}

// Commit implements Store.
func (m *Memory) Commit(lock wire.LockID, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	rec, ok := m.records[lock]
	if !ok {
		return ErrUnknownLock
	}
	if rec.Version == version {
		rec.Dirty = false
		m.records[lock] = rec
	}
	return nil
}

// Evict implements Store: always refused, payloads have no other home.
func (m *Memory) Evict(lock wire.LockID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.records[lock]; !ok {
		return ErrUnknownLock
	}
	return ErrVolatile
}

// Recover implements Store: a restarted memory store is empty by
// definition, so there is never anything to recover.
func (m *Memory) Recover() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	return nil, nil
}

// Durable implements Store.
func (m *Memory) Durable() bool { return false }

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Records = len(m.records)
	for _, rec := range m.records {
		s.CachedBytes += payloadBytes(rec.Replicas)
	}
	return s
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.records = nil
	return nil
}
