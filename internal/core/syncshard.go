package core

import (
	"sync"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// syncShard is one slice of the synchronization thread's lock table. The
// shard mutex only guards table membership (lookup, create, collect);
// per-lock protocol state is serialized by each syncLock's own mutex, so
// traffic on one lock never contends with another lock's transitions even
// within a shard. Lock order is shard.mu before syncLock.mu, and neither
// is ever held across network I/O.
type syncShard struct {
	mu    sync.Mutex
	locks map[wire.LockID]*syncLock
}

// syncShards is the number of independent shards the synchronization
// thread's lock table is split across. Locks hash to a shard by ID; traffic
// on one lock never waits on another lock's shard, and network I/O (grants,
// transfer directives, polls, heartbeats) never runs under any shard or lock
// mutex.
const syncShards = 32

// newShards allocates an n-way sharded lock table.
func newShards(n int) []*syncShard {
	if n < 1 {
		n = 1
	}
	shards := make([]*syncShard, n)
	for i := range shards {
		shards[i] = &syncShard{locks: make(map[wire.LockID]*syncLock)}
	}
	return shards
}

// shardFor maps a lock ID to its shard.
func (s *syncThread) shardFor(id wire.LockID) *syncShard {
	return s.shards[uint32(id)%uint32(len(s.shards))]
}

// lookupLock returns the record for a lock, or nil if no daemon has ever
// registered it. Acquires and releases use this: they never create
// records ("getLock creates a syncLock for any LockID an acquirer names"
// was the unbounded-growth bug this replaces).
func (s *syncThread) lookupLock(id wire.LockID) *syncLock {
	sh := s.shardFor(id)
	sh.mu.Lock()
	l := sh.locks[id]
	sh.mu.Unlock()
	return l
}

// ensureLockCreated returns the record for a lock, creating it if
// necessary — "determines if the lock exists and creates a Lock object if
// necessary" — and reports whether this call created it. Only
// registration, handoff install, and promotion may create records.
func (s *syncThread) ensureLockCreated(id wire.LockID) (*syncLock, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	l, ok := sh.locks[id]
	if !ok {
		l = &syncLock{
			id:      id,
			names:   make(map[string]bool),
			readers: make(map[wire.ThreadID]*holderInfo),
		}
		sh.locks[id] = l
		s.node.obs().GaugeAdd(obs.GSyncLocks, 1)
	}
	sh.mu.Unlock()
	return l, !ok
}

// lockCount reports how many lock records exist across all shards (for
// tests).
func (s *syncThread) lockCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.locks)
		sh.mu.Unlock()
	}
	return total
}
