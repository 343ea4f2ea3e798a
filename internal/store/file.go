package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mocha/internal/wire"
)

// WAL framing: each record is a Marshal'ed wire.WALRecord inside a
// length+CRC frame. A torn tail — a frame whose header or body was cut by
// a crash mid-write — decodes as a short read or CRC mismatch and replay
// truncates the segment there, never installing partial bytes.
//
//	[u32 body length][u32 crc32(body)][body]
const frameHeader = 8

// maxFrameBody bounds a frame body so a corrupt length field cannot make
// replay allocate gigabytes before the CRC catches it.
const maxFrameBody = 64 << 20

const (
	defaultSegmentBytes  = 4 << 20
	defaultFsyncInterval = 5 * time.Millisecond
	segPrefix            = "wal-"
	segSuffix            = ".log"
)

// Options configures a FileStore.
type Options struct {
	// MemLimit caps the payload bytes held in memory; once exceeded, clean
	// records are evicted least-recently-used and refault from the log on
	// the next Get. 0 means unlimited.
	MemLimit int
	// SegmentBytes rotates and compacts the log when the active segment
	// grows past this size. 0 picks a default.
	SegmentBytes int
	// FsyncInterval batches fsyncs: appends return after the buffered OS
	// write and a flusher syncs the segment at this cadence (group
	// commit). 0 picks a default; negative syncs on every append.
	FsyncInterval time.Duration
	// FaultHook, when non-nil, is consulted before each append.
	FaultHook FaultHook
}

// frameRef locates one replayable frame: the segment it lives in and its
// offset, so a refault can re-read exactly the frames that built a record.
type frameRef struct {
	seq uint64
	off int64
	len int
}

// entry is one lock's in-store state: the record (payloads nil when
// evicted), the frame chain that rebuilds it, and its LRU hook.
type entry struct {
	rec   Record
	bytes int
	// chain is the record's replay chain: a full WALPut frame followed by
	// the WALDelta frames applied since. Compaction collapses it back to
	// one frame.
	chain []frameRef
	elem  *list.Element
}

// segment is one log file, kept open for refault reads until compaction
// deletes it.
type segment struct {
	seq  uint64
	f    *os.File
	size int64
}

// FileStore is the log-structured durable backend: an append-only
// write-ahead log of wire.WALRecords plus an in-memory record cache with
// LRU eviction. The log is the truth; the cache is a performance layer
// that can always be rebuilt from it.
type FileStore struct {
	dir  string
	opts Options

	mu      sync.Mutex
	closed  bool
	entries map[wire.LockID]*entry
	// lru orders cached entries, front = most recently used. Dirty and
	// evicted entries are not on the list.
	lru    *list.List
	cached int
	segs   map[uint64]*segment
	active *segment
	// compact is the in-progress incremental compaction sweep, nil when
	// idle. Appends advance it a bounded step at a time.
	compact *compactState
	// unsynced marks buffered appends the flusher has not fsynced yet.
	unsynced  bool
	stats     Stats
	recovered []Record

	flushStop chan struct{}
	flushDone chan struct{}
}

var _ Store = (*FileStore)(nil)

// Open opens (creating if necessary) a durable store rooted at dir and
// replays its write-ahead log. The recovered records are available from
// Recover until the first call consumes them.
func Open(dir string, opts Options) (*FileStore, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	fs := &FileStore{
		dir:       dir,
		opts:      opts,
		entries:   make(map[wire.LockID]*entry),
		lru:       list.New(),
		segs:      make(map[uint64]*segment),
		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	if err := fs.replay(); err != nil {
		fs.closeSegments()
		return nil, err
	}
	if fs.active == nil {
		if err := fs.openSegment(1); err != nil {
			fs.closeSegments()
			return nil, err
		}
	}
	if opts.FsyncInterval > 0 {
		go fs.flusher()
	} else {
		close(fs.flushDone)
	}
	return fs, nil
}

// segPath names a segment file; the sequence number orders replay.
func (fs *FileStore) segPath(seq uint64) string {
	return filepath.Join(fs.dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// openSegment creates (or reopens) a segment as the active one.
func (fs *FileStore) openSegment(seq uint64) error {
	f, err := os.OpenFile(fs.segPath(seq), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: seek segment: %w", err)
	}
	seg := &segment{seq: seq, f: f, size: size}
	fs.segs[seq] = seg
	fs.active = seg
	return nil
}

// replay scans every segment in sequence order, rebuilding the record
// cache. Each segment is independently tail-truncated at the first bad
// frame: compaction writes full checkpoints at the head of every new
// segment, so replay stays sound even if an earlier tail was lost.
func (fs *FileStore) replay() error {
	names, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("store: read dir: %w", err)
	}
	var seqs []uint64
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if err := fs.replaySegment(seq); err != nil {
			return err
		}
	}
	if len(seqs) > 0 {
		fs.active = fs.segs[seqs[len(seqs)-1]]
	}
	for _, e := range fs.entries {
		fs.recovered = append(fs.recovered, e.rec)
		if e.rec.Dirty {
			continue
		}
		e.elem = fs.lru.PushFront(e)
	}
	sort.Slice(fs.recovered, func(i, j int) bool { return fs.recovered[i].Lock < fs.recovered[j].Lock })
	fs.stats.Recovered = len(fs.recovered)
	fs.enforceLimitLocked()
	return nil
}

// replaySegment replays one segment file, truncating at the first torn or
// corrupt frame.
func (fs *FileStore) replaySegment(seq uint64) error {
	f, err := os.OpenFile(fs.segPath(seq), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %d: %w", seq, err)
	}
	seg := &segment{seq: seq, f: f}
	fs.segs[seq] = seg
	var off int64
	hdr := make([]byte, frameHeader)
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			break // clean EOF or torn header: truncate here
		}
		bodyLen := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if bodyLen == 0 || bodyLen > maxFrameBody {
			break
		}
		body := make([]byte, bodyLen)
		if _, err := f.ReadAt(body, off+frameHeader); err != nil {
			break // torn body
		}
		if crc32.ChecksumIEEE(body) != sum {
			break // bit flip or half-written body
		}
		p, err := wire.Unmarshal(body)
		if err != nil {
			break
		}
		rec, ok := p.(*wire.WALRecord)
		if !ok {
			break
		}
		frame := frameRef{seq: seq, off: off, len: frameHeader + int(bodyLen)}
		fs.applyReplayed(rec, frame)
		off += int64(frame.len)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: seek segment %d: %w", seq, err)
	}
	if off < size {
		fs.stats.TruncatedTails++
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail of segment %d: %w", seq, err)
		}
	}
	seg.size = off
	return nil
}

// applyReplayed folds one replayed record into the cache.
func (fs *FileStore) applyReplayed(rec *wire.WALRecord, frame frameRef) {
	e := fs.entries[rec.Lock]
	switch rec.Op {
	case wire.WALPut:
		full, err := applyDeltaSet(nil, rec.Replicas)
		if err != nil {
			fs.stats.SkippedRecords++
			return
		}
		if e == nil {
			e = &entry{}
			fs.entries[rec.Lock] = e
		} else {
			fs.cached -= e.bytes
		}
		e.rec = Record{Lock: rec.Lock, Version: rec.Version, Dirty: rec.Dirty, Fence: rec.Fence, Replicas: full}
		e.bytes = payloadBytes(full)
		e.chain = []frameRef{frame}
		fs.cached += e.bytes
	case wire.WALDelta:
		if e == nil || e.rec.Version != rec.FromVersion || e.rec.Replicas == nil {
			fs.stats.SkippedRecords++
			return
		}
		patched, err := applyDeltaSet(e.rec.Replicas, rec.Replicas)
		if err != nil {
			fs.stats.SkippedRecords++
			return
		}
		fs.cached -= e.bytes
		e.rec.Version = rec.Version
		e.rec.Dirty = rec.Dirty
		e.rec.Fence = rec.Fence
		e.rec.Replicas = patched
		e.bytes = payloadBytes(patched)
		e.chain = append(e.chain, frame)
		fs.cached += e.bytes
	case wire.WALCommit:
		if e != nil && e.rec.Version == rec.Version {
			e.rec.Dirty = false
		}
	default:
		fs.stats.SkippedRecords++
	}
}

// flusher batches fsyncs at the configured cadence (group commit): an
// append returns after the buffered OS write, and durability lags by at
// most one interval — the window the crash-before-fsync fault explores.
func (fs *FileStore) flusher() {
	defer close(fs.flushDone)
	t := time.NewTicker(fs.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-fs.flushStop:
			return
		case <-t.C:
			fs.Sync()
		}
	}
}

// Sync fsyncs the active segment if appends are pending.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	if fs.closed || !fs.unsynced || fs.active == nil {
		fs.mu.Unlock()
		return nil
	}
	f := fs.active.f
	fs.unsynced = false
	fs.stats.Fsyncs++
	fs.mu.Unlock()
	// Sync outside the lock: appends may proceed against the OS buffer
	// while the disk catches up.
	return f.Sync()
}

// appendFrame writes one WAL record to the active segment, firing the
// storage fault points first. Caller holds fs.mu.
func (fs *FileStore) appendFrameLocked(rec *wire.WALRecord) (frameRef, error) {
	if hook := fs.opts.FaultHook; hook != nil {
		if hook(FaultCrashBeforeFsync, rec.Lock, rec.Version) {
			// The record is lost exactly as if the site died after the
			// protocol action but before the log write reached disk.
			fs.stats.FaultsInjected++
			return frameRef{}, fmt.Errorf("%w: %s", ErrFaultInjected, FaultCrashBeforeFsync)
		}
	}
	body := wire.Marshal(rec)
	frame := make([]byte, frameHeader+len(body))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	copy(frame[frameHeader:], body)
	if hook := fs.opts.FaultHook; hook != nil {
		if hook(FaultTornWALTail, rec.Lock, rec.Version) {
			// Write a torn prefix — header plus half the body — and sync
			// it, the state a mid-write power cut leaves on disk. Replay
			// must truncate it cleanly.
			fs.stats.FaultsInjected++
			torn := frame[:frameHeader+len(body)/2]
			if _, err := fs.active.f.WriteAt(torn, fs.active.size); err == nil {
				fs.active.size += int64(len(torn))
				fs.active.f.Sync()
			}
			return frameRef{}, fmt.Errorf("%w: %s", ErrFaultInjected, FaultTornWALTail)
		}
	}
	off := fs.active.size
	if _, err := fs.active.f.WriteAt(frame, off); err != nil {
		return frameRef{}, fmt.Errorf("store: append: %w", err)
	}
	fs.active.size += int64(len(frame))
	fs.unsynced = true
	fs.stats.Appends++
	if fs.opts.FsyncInterval < 0 {
		fs.stats.Fsyncs++
		if err := fs.active.f.Sync(); err != nil {
			return frameRef{}, fmt.Errorf("store: fsync: %w", err)
		}
		fs.unsynced = false
	}
	return frameRef{seq: fs.active.seq, off: off, len: len(frame)}, nil
}

// Get implements Store, refaulting evicted payloads from the log.
func (fs *FileStore) Get(lock wire.LockID) (Record, bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return Record{}, false, ErrClosed
	}
	e, ok := fs.entries[lock]
	if !ok {
		return Record{}, false, nil
	}
	if e.rec.Replicas == nil {
		if err := fs.refaultLocked(e); err != nil {
			return Record{}, true, err
		}
	}
	fs.touchLocked(e)
	return e.rec, true, nil
}

// refaultLocked re-reads an evicted record's frame chain and rebuilds its
// payloads. Caller holds fs.mu.
func (fs *FileStore) refaultLocked(e *entry) error {
	var payloads []wire.ReplicaPayload
	version := uint64(0)
	for i, fr := range e.chain {
		seg := fs.segs[fr.seq]
		if seg == nil {
			return fmt.Errorf("store: refault: segment %d gone", fr.seq)
		}
		buf := make([]byte, fr.len)
		if _, err := seg.f.ReadAt(buf, fr.off); err != nil {
			return fmt.Errorf("store: refault read: %w", err)
		}
		body := buf[frameHeader:]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[4:8]) {
			return fmt.Errorf("store: refault: frame checksum mismatch in segment %d", fr.seq)
		}
		p, err := wire.Unmarshal(body)
		if err != nil {
			return fmt.Errorf("store: refault decode: %w", err)
		}
		rec, ok := p.(*wire.WALRecord)
		if !ok {
			return fmt.Errorf("store: refault: unexpected %s frame", p.Kind())
		}
		switch {
		case i == 0 && rec.Op == wire.WALPut:
		case i > 0 && rec.Op == wire.WALDelta && rec.FromVersion == version:
		default:
			return fmt.Errorf("store: refault: broken chain at frame %d (%d op %d from v%d have v%d)",
				i, rec.Lock, rec.Op, rec.FromVersion, version)
		}
		payloads, err = applyDeltaSet(payloads, rec.Replicas)
		if err != nil {
			return fmt.Errorf("store: refault replay: %w", err)
		}
		version = rec.Version
	}
	if version != e.rec.Version {
		return fmt.Errorf("store: refault: chain ends at v%d, record at v%d", version, e.rec.Version)
	}
	e.rec.Replicas = payloads
	e.bytes = payloadBytes(payloads)
	fs.cached += e.bytes
	fs.stats.Refaults++
	return nil
}

// touchLocked marks an entry most-recently-used and enforces the memory
// cap. Dirty entries are pinned off the LRU list: their bytes are the only
// copy guaranteed above the committed horizon.
func (fs *FileStore) touchLocked(e *entry) {
	if e.rec.Dirty {
		if e.elem != nil {
			fs.lru.Remove(e.elem)
			e.elem = nil
		}
	} else if e.elem != nil {
		fs.lru.MoveToFront(e.elem)
	} else if e.rec.Replicas != nil {
		e.elem = fs.lru.PushFront(e)
	}
	fs.enforceLimitLocked()
}

// enforceLimitLocked evicts clean LRU records until the cache fits the
// configured cap. Caller holds fs.mu.
func (fs *FileStore) enforceLimitLocked() {
	if fs.opts.MemLimit <= 0 {
		return
	}
	for fs.cached > fs.opts.MemLimit {
		back := fs.lru.Back()
		if back == nil {
			return // everything left is dirty or already evicted
		}
		e := back.Value.(*entry)
		fs.evictLocked(e)
	}
}

// evictLocked drops one entry's payload bytes. Caller holds fs.mu and has
// checked the entry is clean.
func (fs *FileStore) evictLocked(e *entry) {
	if e.elem != nil {
		fs.lru.Remove(e.elem)
		e.elem = nil
	}
	if e.rec.Replicas == nil {
		return
	}
	fs.cached -= e.bytes
	e.rec.Replicas = nil
	e.bytes = 0
	fs.stats.Evictions++
}

// Put implements Store.
func (fs *FileStore) Put(rec Record) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	frame, err := fs.appendFrameLocked(&wire.WALRecord{
		Op: wire.WALPut, Lock: rec.Lock, Version: rec.Version,
		Dirty: rec.Dirty, Fence: rec.Fence, Replicas: fullsToDeltas(rec.Replicas),
	})
	if err != nil {
		return err
	}
	e, ok := fs.entries[rec.Lock]
	if !ok {
		e = &entry{}
		fs.entries[rec.Lock] = e
	} else {
		fs.cached -= e.bytes
	}
	e.rec = rec
	e.bytes = payloadBytes(rec.Replicas)
	e.chain = []frameRef{frame}
	fs.cached += e.bytes
	fs.touchLocked(e)
	return fs.maybeCompactLocked()
}

// AppendDelta implements Store.
func (fs *FileStore) AppendDelta(fromVersion uint64, rec Record, deltas []wire.DeltaPayload) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	e, ok := fs.entries[rec.Lock]
	if !ok || e.rec.Version != fromVersion {
		return ErrBadDeltaBase
	}
	// Validate the delta against the record's bytes before it reaches the
	// log — refaulting an evicted record first. An invalid delta appended
	// unvalidated would extend the frame chain with a frame replay can
	// never apply, poisoning every later refault and compaction of the
	// record.
	if e.rec.Replicas == nil {
		if err := fs.refaultLocked(e); err != nil {
			return err
		}
	}
	patched, err := applyDeltaSet(e.rec.Replicas, deltas)
	if err != nil {
		return err
	}
	frame, err := fs.appendFrameLocked(&wire.WALRecord{
		Op: wire.WALDelta, Lock: rec.Lock, FromVersion: fromVersion, Version: rec.Version,
		Dirty: rec.Dirty, Fence: rec.Fence, Replicas: deltas,
	})
	if err != nil {
		return err
	}
	fs.cached -= e.bytes
	e.rec.Version = rec.Version
	e.rec.Dirty = rec.Dirty
	e.rec.Fence = rec.Fence
	e.rec.Replicas = shareCallerBlobs(patched, rec.Replicas)
	e.bytes = payloadBytes(patched)
	e.chain = append(e.chain, frame)
	fs.cached += e.bytes
	fs.touchLocked(e)
	return fs.maybeCompactLocked()
}

// Commit implements Store.
func (fs *FileStore) Commit(lock wire.LockID, version uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	e, ok := fs.entries[lock]
	if !ok {
		return ErrUnknownLock
	}
	if e.rec.Version != version {
		return nil // superseded: a later record already replaced it
	}
	if _, err := fs.appendFrameLocked(&wire.WALRecord{Op: wire.WALCommit, Lock: lock, Version: version, Fence: e.rec.Fence}); err != nil {
		return err
	}
	e.rec.Dirty = false
	fs.touchLocked(e)
	// Commit appends a frame like the other write paths, so it must also
	// drive compaction: a commit-heavy stretch would otherwise grow the
	// active segment arbitrarily past SegmentBytes.
	return fs.maybeCompactLocked()
}

// Evict implements Store.
func (fs *FileStore) Evict(lock wire.LockID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	e, ok := fs.entries[lock]
	if !ok {
		return ErrUnknownLock
	}
	if e.rec.Dirty {
		return ErrEvictDirty
	}
	fs.evictLocked(e)
	return nil
}

// Recover implements Store, handing out the records replayed at Open once.
func (fs *FileStore) Recover() ([]Record, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	recs := fs.recovered
	fs.recovered = nil
	return recs, nil
}

// Durable implements Store.
func (fs *FileStore) Durable() bool { return true }

// Stats implements Store.
func (fs *FileStore) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	s.Records = len(fs.entries)
	s.CachedBytes = fs.cached
	return s
}

// compactStepBudget bounds how many records a single append checkpoints
// during an incremental compaction sweep. The rewrite of the whole store
// is amortized across appends instead of stalling one release/apply path
// (the daemon calls Put/AppendDelta holding the lock's st.mu) with an
// O(store size) burst of refaults, rewrites, and an fsync.
const compactStepBudget = 4

// compactState is one in-progress incremental compaction sweep: the
// segments being retired and the locks whose frame chains may still
// reference them.
type compactState struct {
	old   map[uint64]*segment
	queue []wire.LockID
}

// chainTouches reports whether any frame of the chain lives in one of the
// retiring segments.
func chainTouches(chain []frameRef, old map[uint64]*segment) bool {
	for _, fr := range chain {
		if _, ok := old[fr.seq]; ok {
			return true
		}
	}
	return false
}

// maybeCompactLocked rotates to a fresh segment once the active one grows
// past the configured size, then incrementally checkpoints live records
// into it — a bounded number per append — and deletes the retired
// segments once no chain references them: the log never retains bytes
// below the committed horizon longer than one sweep's worth of appends.
// Caller holds fs.mu.
func (fs *FileStore) maybeCompactLocked() error {
	if fs.compact == nil {
		if fs.active == nil || fs.active.size < int64(fs.opts.SegmentBytes) {
			return nil
		}
		old := make(map[uint64]*segment, len(fs.segs))
		for seq, seg := range fs.segs {
			old[seq] = seg
		}
		if err := fs.openSegment(fs.active.seq + 1); err != nil {
			return err
		}
		// Snapshot the locks to sweep. Records put after the rotation land
		// in the new segment chain-and-all, so the snapshot is complete.
		locks := make([]wire.LockID, 0, len(fs.entries))
		for id := range fs.entries {
			locks = append(locks, id)
		}
		sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
		fs.compact = &compactState{old: old, queue: locks}
	}
	return fs.compactStepLocked()
}

// compactStepLocked advances the sweep: checkpoints up to
// compactStepBudget records, and on the last one fsyncs the new segment
// and reclaims the retired ones. A failed record stays at the head of the
// queue — retired segments are never removed while a chain still points
// into them. Caller holds fs.mu.
func (fs *FileStore) compactStepLocked() error {
	cs := fs.compact
	for n := 0; n < compactStepBudget && len(cs.queue) > 0; {
		id := cs.queue[0]
		e, ok := fs.entries[id]
		if !ok || !chainTouches(e.chain, cs.old) {
			// Gone, or a later Put already rewrote it into the new segment.
			cs.queue = cs.queue[1:]
			continue
		}
		// Checkpoint the record as one full WALPut. Evicted records are
		// replayed from the retiring segments transiently — the checkpoint
		// must not grow the cache past the cap.
		payloads := e.rec.Replicas
		evicted := payloads == nil
		if evicted {
			if err := fs.refaultLocked(e); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
			payloads = e.rec.Replicas
		}
		frame, err := fs.appendFrameLocked(&wire.WALRecord{
			Op: wire.WALPut, Lock: id, Version: e.rec.Version,
			Dirty: e.rec.Dirty, Fence: e.rec.Fence, Replicas: fullsToDeltas(payloads),
		})
		if evicted {
			fs.evictLocked(e)
		}
		if err != nil {
			return fmt.Errorf("store: compact checkpoint: %w", err)
		}
		e.chain = []frameRef{frame}
		cs.queue = cs.queue[1:]
		n++
	}
	if len(cs.queue) > 0 {
		return nil
	}
	fs.stats.Fsyncs++
	if err := fs.active.f.Sync(); err != nil {
		return fmt.Errorf("store: compact fsync: %w", err)
	}
	fs.unsynced = false
	for _, seg := range cs.old {
		if seg == fs.active {
			continue
		}
		seg.f.Close()
		delete(fs.segs, seg.seq)
		if err := os.Remove(fs.segPath(seg.seq)); err != nil {
			return fmt.Errorf("store: compact remove: %w", err)
		}
	}
	fs.compact = nil
	fs.stats.Compactions++
	return nil
}

// closeSegments closes every open segment file. Caller holds fs.mu or has
// exclusive access.
func (fs *FileStore) closeSegments() {
	for _, seg := range fs.segs {
		seg.f.Close()
	}
}

// Close implements Store, fsyncing pending appends first.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	var err error
	if fs.unsynced && fs.active != nil {
		err = fs.active.f.Sync()
		fs.unsynced = false
		fs.stats.Fsyncs++
	}
	fs.closeSegments()
	fs.mu.Unlock()
	if fs.opts.FsyncInterval > 0 {
		close(fs.flushStop)
		<-fs.flushDone
	}
	return err
}
