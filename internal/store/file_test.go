package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mocha/internal/marshal"
	"mocha/internal/wire"
)

func pay(name string, data []byte) wire.ReplicaPayload {
	return wire.ReplicaPayload{Name: name, Data: data}
}

func rec(lock wire.LockID, version uint64, dirty bool, fence uint64, ps ...wire.ReplicaPayload) Record {
	return Record{Lock: lock, Version: version, Dirty: dirty, Fence: fence, Replicas: ps}
}

// patchTo builds a minimal valid delta payload rewriting a blob to the
// given bytes: one op covering the whole new content.
func patchTo(name string, data []byte) wire.DeltaPayload {
	return wire.DeltaPayload{
		Name:     name,
		NewLen:   uint32(len(data)),
		Checksum: marshal.Checksum(data),
		Ops:      []wire.PatchOp{{Off: 0, Data: data}},
	}
}

func openT(t *testing.T, dir string, opts Options) *FileStore {
	t.Helper()
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = -1 // deterministic: sync every append
	}
	fs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return fs
}

func wantPayload(t *testing.T, r Record, name string, data []byte) {
	t.Helper()
	for _, p := range r.Replicas {
		if p.Name == name {
			if string(p.Data) != string(data) {
				t.Fatalf("payload %q = %q, want %q", name, p.Data, data)
			}
			return
		}
	}
	t.Fatalf("payload %q missing from record of lock %d", name, r.Lock)
}

func TestPutGetRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	if !fs.Durable() {
		t.Fatal("file store must report durable")
	}
	if err := fs.Put(rec(1, 3, false, 7, pay("a", []byte("alpha")), pay("b", []byte("beta")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := fs.Get(1)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.Version != 3 || got.Dirty || got.Fence != 7 {
		t.Fatalf("got %+v", got)
	}
	wantPayload(t, got, "a", []byte("alpha"))
	if err := fs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	recs, err := fs2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(recs) != 1 || recs[0].Lock != 1 || recs[0].Version != 3 || recs[0].Fence != 7 {
		t.Fatalf("recovered %+v", recs)
	}
	wantPayload(t, recs[0], "b", []byte("beta"))
	// Recover hands the set out once.
	again, _ := fs2.Recover()
	if len(again) != 0 {
		t.Fatalf("second Recover returned %d records", len(again))
	}
}

func TestAppendDeltaAdvancesAndRejectsBadBase(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	if err := fs.Put(rec(5, 1, false, 1, pay("x", []byte("one")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := fs.AppendDelta(1, rec(5, 2, true, 2), []wire.DeltaPayload{patchTo("x", []byte("two"))}); err != nil {
		t.Fatalf("delta: %v", err)
	}
	if err := fs.AppendDelta(9, rec(5, 10, false, 2), nil); !errors.Is(err, ErrBadDeltaBase) {
		t.Fatalf("bad base: got %v", err)
	}
	got, _, _ := fs.Get(5)
	if got.Version != 2 || !got.Dirty {
		t.Fatalf("after delta: %+v", got)
	}
	wantPayload(t, got, "x", []byte("two"))
	fs.Close()

	// The delta survives restart: replay chains the put and the patch.
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	got, ok, err := fs2.Get(5)
	if err != nil || !ok {
		t.Fatalf("get after reopen: ok=%v err=%v", ok, err)
	}
	if got.Version != 2 || !got.Dirty || got.Fence != 2 {
		t.Fatalf("reopened: %+v", got)
	}
	wantPayload(t, got, "x", []byte("two"))
}

func TestCommitClearsDirtyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	if err := fs.Put(rec(2, 4, true, 3, pay("a", []byte("uncommitted")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := fs.Commit(2, 4); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := fs.Commit(99, 1); !errors.Is(err, ErrUnknownLock) {
		t.Fatalf("commit unknown: %v", err)
	}
	fs.Close()
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	got, ok, _ := fs2.Get(2)
	if !ok || got.Dirty {
		t.Fatalf("commit did not survive restart: %+v", got)
	}
}

func TestDirtyRecordStaysDirtyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	if err := fs.Put(rec(3, 9, true, 1, pay("a", []byte("in flight")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	fs.Close()
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	got, ok, _ := fs2.Get(3)
	if !ok || !got.Dirty {
		t.Fatalf("dirty record must recover dirty: %+v", got)
	}
}

func TestTornTailTruncatedCleanly(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	if err := fs.Put(rec(1, 1, false, 0, pay("a", []byte("keep me")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	fs.Close()

	// Append garbage to the segment: a plausible header with a body that
	// was never fully written, as a crash mid-append leaves behind.
	seg := filepath.Join(dir, "wal-00000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 200, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	fs2 := openT(t, dir, Options{})
	got, ok, err := fs2.Get(1)
	if err != nil || !ok {
		t.Fatalf("get after torn tail: ok=%v err=%v", ok, err)
	}
	wantPayload(t, got, "a", []byte("keep me"))
	if st := fs2.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
	}
	// The store must stay appendable at the truncated offset.
	if err := fs2.Put(rec(2, 1, false, 0, pay("b", []byte("new")))); err != nil {
		t.Fatalf("put after truncation: %v", err)
	}
	fs2.Close()
	fs3 := openT(t, dir, Options{})
	defer fs3.Close()
	if recs, _ := fs3.Recover(); len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}

func TestRecoveryOfEmptyAndPartialSegments(t *testing.T) {
	// An empty segment file (created, never written).
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := openT(t, dir, Options{})
	if recs, _ := fs.Recover(); len(recs) != 0 {
		t.Fatalf("empty segment recovered %d records", len(recs))
	}
	if err := fs.Put(rec(1, 1, false, 0, pay("a", []byte("x")))); err != nil {
		t.Fatalf("put into recovered-empty store: %v", err)
	}
	fs.Close()

	// A segment holding only half a frame header.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "wal-00000001.log"), []byte{0, 0, 1}, 0o644); err != nil {
		t.Fatal(err)
	}
	fs2 := openT(t, dir2, Options{})
	defer fs2.Close()
	if recs, _ := fs2.Recover(); len(recs) != 0 {
		t.Fatalf("partial segment recovered %d records", len(recs))
	}
	if st := fs2.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
	}
}

func TestEvictRefaultUnderMemLimit(t *testing.T) {
	dir := t.TempDir()
	blob := make([]byte, 1024)
	for i := range blob {
		blob[i] = byte(i)
	}
	fs := openT(t, dir, Options{MemLimit: 3 * 1024})
	defer fs.Close()
	for lk := wire.LockID(1); lk <= 8; lk++ {
		data := append([]byte(nil), blob...)
		data[0] = byte(lk)
		if err := fs.Put(rec(lk, 1, false, 0, pay("blob", data))); err != nil {
			t.Fatalf("put %d: %v", lk, err)
		}
	}
	st := fs.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under cap: %+v", st)
	}
	if st.CachedBytes > 3*1024 {
		t.Fatalf("cache over cap: %d bytes", st.CachedBytes)
	}
	// Every lock's bytes still read back correctly, refaulting as needed.
	for lk := wire.LockID(1); lk <= 8; lk++ {
		got, ok, err := fs.Get(lk)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", lk, ok, err)
		}
		if got.Replicas[0].Data[0] != byte(lk) || len(got.Replicas[0].Data) != 1024 {
			t.Fatalf("lock %d refaulted wrong bytes", lk)
		}
	}
	if st := fs.Stats(); st.Refaults == 0 {
		t.Fatalf("expected refaults: %+v", st)
	}
}

func TestEvictWhileDirtyRefused(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	defer fs.Close()
	if err := fs.Put(rec(1, 2, true, 1, pay("a", []byte("dirty bytes")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := fs.Evict(1); !errors.Is(err, ErrEvictDirty) {
		t.Fatalf("evict dirty: got %v, want ErrEvictDirty", err)
	}
	if err := fs.Evict(42); !errors.Is(err, ErrUnknownLock) {
		t.Fatalf("evict unknown: got %v", err)
	}
	if err := fs.Commit(1, 2); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := fs.Evict(1); err != nil {
		t.Fatalf("evict after commit: %v", err)
	}
	got, ok, err := fs.Get(1)
	if err != nil || !ok {
		t.Fatalf("get after evict: ok=%v err=%v", ok, err)
	}
	wantPayload(t, got, "a", []byte("dirty bytes"))
}

// TestRefaultRacesIncomingDelta pins the evicted-append path: a delta
// arriving for an evicted record extends its replay chain without
// materializing it, and the next Get replays put+deltas in order. The
// concurrent half hammers Get against AppendDelta to shake out lock
// ordering bugs under the race detector.
func TestRefaultRacesIncomingDelta(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	defer fs.Close()
	if err := fs.Put(rec(1, 1, false, 0, pay("x", []byte("v1")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := fs.Evict(1); err != nil {
		t.Fatalf("evict: %v", err)
	}
	// Delta lands while the record is evicted.
	if err := fs.AppendDelta(1, rec(1, 2, false, 0), []wire.DeltaPayload{patchTo("x", []byte("v2"))}); err != nil {
		t.Fatalf("delta onto evicted record: %v", err)
	}
	got, ok, err := fs.Get(1)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.Version != 2 {
		t.Fatalf("version %d after evicted delta", got.Version)
	}
	wantPayload(t, got, "x", []byte("v2"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v := uint64(2)
		for i := 0; i < 50; i++ {
			next := []byte(fmt.Sprintf("v%d", v+1))
			if err := fs.AppendDelta(v, rec(1, v+1, false, 0), []wire.DeltaPayload{patchTo("x", next)}); err != nil {
				t.Errorf("delta v%d: %v", v+1, err)
				return
			}
			v++
			_ = fs.Evict(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r, ok, err := fs.Get(1)
			if err != nil || !ok {
				t.Errorf("racing get: ok=%v err=%v", ok, err)
				return
			}
			if want := fmt.Sprintf("v%d", r.Version); string(r.Replicas[0].Data) != want {
				t.Errorf("version %d carries bytes %q", r.Version, r.Replicas[0].Data)
				return
			}
		}
	}()
	wg.Wait()
}

func TestAppendDeltaToEvictedRecordValidatesAgainstRefault(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	defer fs.Close()
	if err := fs.Put(rec(3, 1, false, 1, pay("x", []byte("base")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := fs.Evict(3); err != nil {
		t.Fatalf("evict: %v", err)
	}

	// An invalid delta (corrupt checksum) against the evicted record must
	// be rejected before it reaches the log: appended unvalidated it would
	// extend the frame chain with a frame replay can never apply, failing
	// every later refault and compaction of the record.
	bad := patchTo("x", []byte("next"))
	bad.Checksum++
	if err := fs.AppendDelta(1, rec(3, 2, false, 1), []wire.DeltaPayload{bad}); err == nil {
		t.Fatal("invalid delta against evicted record accepted")
	}
	got, ok, err := fs.Get(3)
	if err != nil || !ok || got.Version != 1 {
		t.Fatalf("after rejected delta: %+v ok=%v err=%v", got, ok, err)
	}
	wantPayload(t, got, "x", []byte("base"))

	// A valid delta against an evicted record refaults and applies.
	if err := fs.Evict(3); err != nil {
		t.Fatalf("re-evict: %v", err)
	}
	if err := fs.AppendDelta(1, rec(3, 2, false, 2), []wire.DeltaPayload{patchTo("x", []byte("next"))}); err != nil {
		t.Fatalf("valid delta against evicted record: %v", err)
	}
	got, _, _ = fs.Get(3)
	if got.Version != 2 {
		t.Fatalf("after delta: %+v", got)
	}
	wantPayload(t, got, "x", []byte("next"))
}

func TestCommitHeavyStretchStillCompacts(t *testing.T) {
	// Commit appends WALCommit frames like every other write path, so a
	// commit-heavy stretch must rotate and compact the log too, not grow
	// the active segment without bound.
	dir := t.TempDir()
	fs := openT(t, dir, Options{SegmentBytes: 2048})
	defer fs.Close()
	if err := fs.Put(rec(1, 1, true, 1, pay("x", []byte("data")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := fs.Commit(1, 1); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := fs.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d appends via Commit: %+v", st.Appends, st)
	}
	var size int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if info, err := de.Info(); err == nil {
			size += info.Size()
		}
	}
	if size > 2*2048 {
		t.Fatalf("log grew to %dB under commit-only load (SegmentBytes 2048)", size)
	}
}

func TestCompactionCollapsesSegments(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{SegmentBytes: 2048, MemLimit: 1500})
	blob := make([]byte, 400)
	v := uint64(0)
	for i := 0; i < 40; i++ {
		v++
		blob[0] = byte(v)
		lk := wire.LockID(1 + i%3)
		if err := fs.Put(rec(lk, v, false, 0, pay("b", append([]byte(nil), blob...)))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := fs.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after %d appends: %+v", st.Appends, st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("compaction left %d segments", len(ents))
	}
	fs.Close()
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	recs, _ := fs2.Recover()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
}

func TestCrashBeforeFsyncFaultLosesAppend(t *testing.T) {
	dir := t.TempDir()
	arm := false
	hook := func(point string, lock wire.LockID, version uint64) bool {
		return arm && point == FaultCrashBeforeFsync
	}
	fs := openT(t, dir, Options{FaultHook: hook})
	if err := fs.Put(rec(1, 1, false, 0, pay("a", []byte("durable")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	arm = true
	err := fs.Put(rec(1, 2, false, 0, pay("a", []byte("lost"))))
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("faulted put: got %v", err)
	}
	arm = false
	if st := fs.Stats(); st.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d", st.FaultsInjected)
	}
	fs.Close()
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	got, ok, _ := fs2.Get(1)
	if !ok || got.Version != 1 {
		t.Fatalf("after crash-before-fsync: %+v ok=%v", got, ok)
	}
	wantPayload(t, got, "a", []byte("durable"))
}

func TestTornWALTailFaultRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	arm := false
	hook := func(point string, lock wire.LockID, version uint64) bool {
		return arm && point == FaultTornWALTail
	}
	fs := openT(t, dir, Options{FaultHook: hook})
	if err := fs.Put(rec(1, 1, false, 0, pay("a", []byte("durable")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	arm = true
	if err := fs.Put(rec(1, 2, false, 0, pay("a", []byte("torn")))); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("torn put: got %v", err)
	}
	fs.Close()
	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	got, ok, _ := fs2.Get(1)
	if !ok || got.Version != 1 {
		t.Fatalf("after torn tail: %+v ok=%v", got, ok)
	}
	if st := fs2.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", st.TruncatedTails)
	}
}

func TestMemoryStoreBaseline(t *testing.T) {
	m := NewMemory()
	if m.Durable() {
		t.Fatal("memory store must not report durable")
	}
	if err := m.Put(rec(1, 1, true, 2, pay("a", []byte("one")))); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := m.AppendDelta(1, rec(1, 2, false, 3), []wire.DeltaPayload{patchTo("a", []byte("two"))}); err != nil {
		t.Fatalf("delta: %v", err)
	}
	if err := m.AppendDelta(7, rec(1, 8, false, 3), nil); !errors.Is(err, ErrBadDeltaBase) {
		t.Fatalf("bad base: %v", err)
	}
	got, ok, _ := m.Get(1)
	if !ok || got.Version != 2 || got.Fence != 3 {
		t.Fatalf("got %+v", got)
	}
	wantPayload(t, got, "a", []byte("two"))
	if err := m.Commit(1, 2); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := m.Evict(1); !errors.Is(err, ErrVolatile) {
		t.Fatalf("evict: got %v, want ErrVolatile", err)
	}
	if recs, _ := m.Recover(); len(recs) != 0 {
		t.Fatal("memory store recovered records")
	}
	if st := m.Stats(); st.Records != 1 || st.CachedBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
	m.Close()
	if _, _, err := m.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
}

// TestAppendDeltaSharesCallerBlobs pins the heap guard of the delta path:
// a caller that hands AppendDelta the blobs it patched keeps the only copy
// (the store adopts those slices once its own validation patch agrees, as
// Put always did), a caller blob that disagrees with the validated result
// is not adopted, and a restart replays the logged delta chain — never the
// caller's slices — to identical bytes. Both backends share the rule.
func TestAppendDeltaSharesCallerBlobs(t *testing.T) {
	dir := t.TempDir()
	fs := openT(t, dir, Options{})
	backends := map[string]Store{"file": fs, "memory": NewMemory()}
	versions := [][]byte{[]byte("version-one"), []byte("version-two"), []byte("version-3!!"), []byte("version-iv.")}
	for name, s := range backends {
		if err := s.Put(rec(4, 1, false, 1, pay("x", versions[0]), pay("y", []byte("untouched")))); err != nil {
			t.Fatalf("%s put: %v", name, err)
		}
		for i := 1; i <= 2; i++ {
			mine := append([]byte(nil), versions[i]...)
			d := []wire.DeltaPayload{patchTo("x", versions[i])}
			if err := s.AppendDelta(uint64(i), rec(4, uint64(i+1), false, 1, pay("x", mine)), d); err != nil {
				t.Fatalf("%s delta to v%d: %v", name, i+1, err)
			}
			got, _, _ := s.Get(4)
			wantPayload(t, got, "x", versions[i])
			wantPayload(t, got, "y", []byte("untouched"))
			if &got.Replicas[0].Data[0] != &mine[0] {
				t.Fatalf("%s: record at v%d keeps a private copy of the caller's blob", name, i+1)
			}
		}
		// A caller blob that is not what the delta produces stays out.
		wrong := []byte("not-the-one")
		d := []wire.DeltaPayload{patchTo("x", versions[3])}
		if err := s.AppendDelta(3, rec(4, 4, false, 1, pay("x", wrong)), d); err != nil {
			t.Fatalf("%s delta to v4: %v", name, err)
		}
		got, _, _ := s.Get(4)
		wantPayload(t, got, "x", versions[3])
		if &got.Replicas[0].Data[0] == &wrong[0] {
			t.Fatalf("%s: adopted a caller blob that differs from the validated patch", name)
		}
	}
	fs.Close()

	fs2 := openT(t, dir, Options{})
	defer fs2.Close()
	recs, err := fs2.Recover()
	if err != nil || len(recs) != 1 || recs[0].Version != 4 {
		t.Fatalf("recover: %+v err=%v", recs, err)
	}
	wantPayload(t, recs[0], "x", versions[3])
	wantPayload(t, recs[0], "y", []byte("untouched"))
	if st := fs2.Stats(); st.SkippedRecords != 0 {
		t.Fatalf("replay skipped %d records of an intact delta chain", st.SkippedRecords)
	}
}
