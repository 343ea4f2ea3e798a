package store_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/netsim"
	"mocha/internal/store"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// The crash smoke kills a real process, not a goroutine: a child test
// process runs a store-backed daemon in a lock/write/release loop and the
// parent SIGKILLs it mid-load — buffered OS writes, the fsync batcher,
// and whatever frame was mid-append all die exactly as they would in a
// machine crash. The parent then reopens the store directory and asserts
// the WAL replays to a clean prefix: every recovered record carries
// internally consistent bytes (no torn or mixed versions), even though
// the tail of the log may be cut.

const (
	crashChildEnv = "MOCHA_CRASH_CHILD"
	crashDirEnv   = "MOCHA_CRASH_DIR"
	crashLocks    = 4
	crashPayload  = 1024
)

// crashFill writes the child's deterministic content for one round: the
// round number in the first 8 bytes, then a fill byte derived from (round,
// lock). A recovered record whose fill does not match its own round header
// mixed bytes from two versions.
func crashFill(buf []byte, round uint64, lock int) {
	binary.LittleEndian.PutUint64(buf[:8], round)
	fill := byte(round*31 + uint64(lock))
	for i := 8; i < len(buf); i++ {
		buf[i] = fill
	}
}

func TestCrashRestartSmoke(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		crashChildWorkload(t, os.Getenv(crashDirEnv))
		return
	}
	if testing.Short() {
		t.Skip("crash smoke spawns a child process; skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRestartSmoke$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn child: %v", err)
	}
	defer func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() }()

	// Wait until the child's WAL has accumulated real load, then pull the
	// plug with SIGKILL — no deferred cleanup, no final fsync.
	deadline := time.Now().Add(20 * time.Second)
	for walBytes(dir) < 64*1024 {
		if time.Now().After(deadline) {
			t.Fatalf("child wrote only %d WAL bytes in 20s", walBytes(dir))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child: %v", err)
	}
	_, _ = cmd.Process.Wait()

	// Reopen the dead daemon's store: replay must succeed and every
	// surviving record must be internally consistent.
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store after crash: %v", err)
	}
	defer fs.Close()
	recs, err := fs.Recover()
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	if len(recs) == 0 {
		t.Fatalf("no records survived a %dB WAL", walBytes(dir))
	}
	codec := marshal.NewFast(netsim.Native())
	for _, rec := range recs {
		if rec.Version == 0 {
			t.Errorf("lock %d recovered at version 0", rec.Lock)
		}
		if len(rec.Replicas) != 1 {
			t.Errorf("lock %d recovered %d replicas, want 1", rec.Lock, len(rec.Replicas))
			continue
		}
		content := marshal.Bytes(nil)
		if err := codec.Unmarshal(rec.Replicas[0].Data, content); err != nil {
			t.Errorf("lock %d recovered undecodable bytes: %v", rec.Lock, err)
			continue
		}
		data := content.BytesData()
		if len(data) != crashPayload {
			t.Errorf("lock %d recovered %d payload bytes, want %d", rec.Lock, len(data), crashPayload)
			continue
		}
		round := binary.LittleEndian.Uint64(data[:8])
		want := byte(round*31 + uint64(rec.Lock))
		for i := 8; i < len(data); i++ {
			if data[i] != want {
				t.Errorf("lock %d round %d: byte %d is %d, want %d — torn or mixed-version recovery",
					rec.Lock, round, i, data[i], want)
				break
			}
		}
	}
	st := fs.Stats()
	t.Logf("recovered %d records (%d appends replayed, %d truncated tails, %d skipped)",
		len(recs), st.Appends, st.TruncatedTails, st.SkippedRecords)
}

// walBytes sums the log segments under dir.
func walBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// crashChildWorkload is the killed side: a two-site cluster whose worker
// daemon is backed by the durable store, looping acquire/write/release
// over a small lock population until the parent kills the process.
func crashChildWorkload(t *testing.T, dir string) {
	if dir == "" {
		t.Fatal("child started without " + crashDirEnv)
	}
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.LANFastEthernet(), Seed: 4242})
	nodes, err := core.StartSimSites(sim, 2, func(s *core.SimSite) {
		if s.Site == 2 {
			s.StoreDir = dir
		}
		s.RequestTimeout = 5 * time.Second
		s.TransferTimeout = 10 * time.Second
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	locks := make([]*core.ReplicaLock, crashLocks)
	for i := range locks {
		name := fmt.Sprintf("crash-data-%d", i+1)
		r, err := nodes[1].CreateReplica(name, marshal.Bytes(make([]byte, crashPayload)), 2)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		creator := nodes[1].NewHandle(fmt.Sprintf("creator-%d", i)).ReplicaLock(wire.LockID(401 + i))
		if err := creator.Associate(ctx, r); err != nil {
			t.Fatalf("associate creator %s: %v", name, err)
		}
		wr, err := nodes[2].AttachReplica(name, marshal.Bytes(nil))
		if err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		locks[i] = nodes[2].NewHandle(fmt.Sprintf("worker-%d", i)).ReplicaLock(wire.LockID(401 + i))
		if err := locks[i].Associate(ctx, wr); err != nil {
			t.Fatalf("associate worker %s: %v", name, err)
		}
	}

	// Load loop: the parent's SIGKILL is the only way out.
	for round := uint64(1); ; round++ {
		for i, rl := range locks {
			if err := rl.Lock(ctx); err != nil {
				t.Fatalf("round %d lock %d: %v", round, i, err)
			}
			crashFill(rl.Replicas()[0].Content().BytesData(), round, 401+i)
			if err := rl.Unlock(ctx); err != nil {
				t.Fatalf("round %d unlock %d: %v", round, i, err)
			}
		}
	}
}
