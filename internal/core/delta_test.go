package core

import (
	"testing"
	"time"

	"mocha/internal/marshal"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// TestDeltaTransferEndToEnd ping-pongs an exclusive lock between two sites
// with small writes into a large replica: after the first full transfer
// seeds both sides, every acquisition-driven transfer must go out in delta
// encoding, and the delta bytes must be far below the full-copy bytes. A
// final full rewrite must fall back to exactly one full copy, and the
// observability plane must have counted every push, byte and delta.
func TestDeltaTransferEndToEnd(t *testing.T) {
	opts := defaultOpts()
	opts.DeltaTransfer = true
	opts.Metrics = obs.NewRegistry()
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	data := make([]int32, 16384) // 64 KiB marshaled
	h1 := tc.node(1).NewHandle("w1")
	rl1, r1 := mustCreate(t, h1, 3, "big", data, 2)
	h2 := tc.node(2).NewHandle("w2")
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("r"), 3, "big")
	_ = h2
	settle()

	// Round 0: site 2's first acquisition has no base; it must get a full
	// transfer.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(r2.Content().IntsData()); got != len(data) {
		t.Fatalf("site 2 got %d ints, want %d", got, len(data))
	}
	if err := r2.Content().SetIntAt(7, 100); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.node(1).DeltaTransfersSent() + tc.node(2).DeltaTransfersSent(); got != 0 {
		t.Fatalf("first round already sent %d deltas, want 0", got)
	}

	// Subsequent rounds alternate single-element writes; each transfer
	// bridges exactly one version and must ship as a delta.
	locks := map[wire.SiteID]*ReplicaLock{1: rl1, 2: rl2}
	reps := map[wire.SiteID]*Replica{1: r1, 2: r2}
	var turn wire.SiteID = 1
	for round := 1; round <= 6; round++ {
		rl, r := locks[turn], reps[turn]
		if err := rl.Lock(ctx); err != nil {
			t.Fatalf("round %d site %d: %v", round, turn, err)
		}
		if got := r.Content().IntsData()[7]; got != int32(99+round) {
			t.Fatalf("round %d site %d sees value %d, want %d", round, turn, got, 99+round)
		}
		// Site 1's content was handed out raw above (IntsData), so its
		// captures exercise the byte-diff fallback; site 2 stays on the
		// trusted tracked-range path.
		if turn == 1 {
			r.Content().IntsData()[7] = int32(100 + round)
		} else if err := r.Content().SetIntAt(7, int32(100+round)); err != nil {
			t.Fatal(err)
		}
		if err := rl.Unlock(ctx); err != nil {
			t.Fatalf("round %d site %d unlock: %v", round, turn, err)
		}
		turn = 3 - turn
	}

	deltasSent := func() int64 { return tc.node(1).DeltaTransfersSent() + tc.node(2).DeltaTransfersSent() }
	eventually(t, func() bool { return deltasSent() == 6 })
	deltas := deltasSent()
	if deltas != 6 {
		t.Fatalf("sent %d delta transfers over 6 ping-pong rounds, want 6", deltas)
	}
	if fb := tc.node(1).DeltaFallbacks() + tc.node(2).DeltaFallbacks(); fb != 0 {
		t.Fatalf("%d delta fallbacks on an unbroken chain, want 0", fb)
	}
	// Bytes on the wire: 6 deltas of a few hundred bytes vs 64 KiB fulls.
	bytes := tc.node(1).ReplicaBytesSent() + tc.node(2).ReplicaBytesSent()
	fullSize := int64(len(data)*4 + 5)
	if bytes > 2*fullSize {
		t.Fatalf("total replica bytes %d; deltas should keep this near one full copy (%d)", bytes, fullSize)
	}

	// Full rewrite under UR=2: the delta would be no smaller than the
	// copy, so the release must push the full copy once — not a delta,
	// and not both.
	rl, r := locks[turn], reps[turn]
	rl.SetUpdateReplicas(2)
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	// The acquisition pulled round 6's write; its sender tallies the
	// transfer only once the ack is back, so let that land first.
	eventually(t, func() bool { return deltasSent() == 7 })
	deltas = deltasSent()
	bytes = tc.node(1).ReplicaBytesSent() + tc.node(2).ReplicaBytesSent()
	ints := r.Content().IntsData()
	for i := range ints {
		ints[i] = 0x11111111 + int32(i) // every byte differs from the old content
	}
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	rewrite := tc.node(1).ReplicaBytesSent() + tc.node(2).ReplicaBytesSent() - bytes
	if rewrite < fullSize || rewrite > fullSize+fullSize/10 {
		t.Fatalf("full rewrite moved %d replica bytes, want one full copy (%d, at most 1.1x)", rewrite, fullSize)
	}
	if got := deltasSent(); got != deltas {
		t.Fatalf("full rewrite shipped as a delta (%d delta sends, was %d)", got, deltas)
	}

	// The registry is fed where the per-node tallies are; an instrumented
	// run that disagrees with them has lost an instrument.
	reg := opts.Metrics
	if got := reg.CounterValue(obs.CTransfersDelta); got != deltas {
		t.Errorf("plane counted %d delta transfers, nodes sent %d", got, deltas)
	}
	if got := reg.CounterValue(obs.CTransferBytes); got != bytes+rewrite {
		t.Errorf("plane counted %d transfer bytes, nodes sent %d", got, bytes+rewrite)
	}
	if reg.CounterValue(obs.CPushes) == 0 {
		t.Error("plane counted no release push on a UR=2 lock")
	}

	peer := 3 - turn
	if err := locks[peer].Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := reps[peer].Content().IntsData()[len(data)-1], 0x11111111+int32(len(data)-1); got != want {
		t.Fatalf("rewritten tail at site %d = %#x, want %#x", peer, got, want)
	}
	if err := locks[peer].Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaDisabledBaseline pins the default-off paper baseline: with
// DeltaTransfer unset the same workload must never emit a delta frame.
func TestDeltaDisabledBaseline(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w1")
	rl1, r1 := mustCreate(t, h1, 3, "v", make([]int32, 1024), 2)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("r"), 3, "v")
	settle()

	locks := map[wire.SiteID]*ReplicaLock{1: rl1, 2: rl2}
	reps := map[wire.SiteID]*Replica{1: r1, 2: r2}
	var turn wire.SiteID = 2
	for round := 0; round < 4; round++ {
		rl, r := locks[turn], reps[turn]
		if err := rl.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r.Content().SetIntAt(0, int32(round)); err != nil {
			t.Fatal(err)
		}
		if err := rl.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
		turn = 3 - turn
	}
	if got := tc.node(1).DeltaTransfersSent() + tc.node(2).DeltaTransfersSent(); got != 0 {
		t.Fatalf("baseline sent %d deltas, want 0", got)
	}
	if !eventually(t, func() bool { return tc.node(1).FullTransfersSent()+tc.node(2).FullTransfersSent() > 0 }) {
		t.Fatal("baseline sent no full transfers at all")
	}
}

// TestDeltaFallbackEvictedLog lets a site fall further behind than the
// update log reaches (deltaLogDepth steps): its next acquisition cannot be
// served from the chain and must arrive as a full copy — with the right
// data.
func TestDeltaFallbackEvictedLog(t *testing.T) {
	const behind = deltaLogDepth + 3
	opts := defaultOpts()
	opts.DeltaTransfer = true
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w1")
	rl1, r1 := mustCreate(t, h1, 4, "v", make([]int32, 4096), 2)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("r"), 4, "v")
	settle()

	// Site 2 seeds itself at the current version.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Site 1 produces more consecutive versions than the log holds; it
	// forgets the early steps.
	for i := 0; i < behind; i++ {
		if err := rl1.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r1.Content().SetIntAt(i, int32(1000+i)); err != nil {
			t.Fatal(err)
		}
		if err := rl1.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The seeding copy is tallied when its ack lands; take the baseline
	// after that, not between the two.
	eventually(t, func() bool { return tc.node(1).FullTransfersSent() == 1 })
	before := tc.node(1).FullTransfersSent()
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < behind; i++ {
		if got := r2.Content().IntsData()[i]; got != int32(1000+i) {
			t.Fatalf("site 2 index %d = %d, want %d", i, got, 1000+i)
		}
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	eventually(t, func() bool { return tc.node(1).FullTransfersSent()-before == 1 })
	if got := tc.node(1).FullTransfersSent() - before; got != 1 {
		t.Fatalf("stale site got %d full transfers, want 1 (chain evicted)", got)
	}
}

// TestDeltaRejectionPaths drives applyDelta directly with deltas a
// receiver must refuse — unavailable base version, corrupted patch — and
// verifies refusal leaves the local state untouched and a full update
// still lands afterwards.
func TestDeltaRejectionPaths(t *testing.T) {
	opts := defaultOpts()
	opts.DeltaTransfer = true
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	rl1, r1 := mustCreate(t, h1, 6, "v", []int32{1, 2, 3, 4}, 2)
	rl2, _ := mustAttach(t, tc.node(2).NewHandle("r"), 6, "v")
	settle()

	// Seed site 2 at v1.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	n2 := tc.node(2)
	st := n2.getLockLocal(6)
	st.mu.Lock()
	baseVersion := st.version
	st.mu.Unlock()

	// A delta from a version site 2 never held must be refused.
	badBase := &wire.ReplicaDelta{
		Lock: 6, From: 1, Version: baseVersion + 5, FromVersion: baseVersion + 4,
		Replicas: []wire.DeltaPayload{{Name: "v", NewLen: 21, Checksum: 1, Ops: nil}},
	}
	if err := n2.applyDelta(badBase); err == nil {
		t.Fatal("delta against unknown base version accepted")
	}

	// A patch whose checksum does not match the sender's blob must be
	// refused before any state changes.
	goodBase, err := n2.cfg.Codec.Marshal(marshal.Ints([]int32{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := &wire.ReplicaDelta{
		Lock: 6, From: 1, Version: baseVersion + 1, FromVersion: baseVersion,
		Replicas: []wire.DeltaPayload{{
			Name: "v", NewLen: uint32(len(goodBase)),
			Checksum: marshal.Checksum(goodBase) + 1, // deliberately wrong
			Ops:      []wire.PatchOp{{Off: 5, Data: []byte{0xFF}}},
		}},
	}
	if err := n2.applyDelta(corrupt); err == nil {
		t.Fatal("corrupted delta accepted")
	}
	st.mu.Lock()
	if st.version != baseVersion {
		st.mu.Unlock()
		t.Fatalf("rejected delta moved version to %d", st.version)
	}
	st.mu.Unlock()

	// A stale delta is dropped without error, like a stale full update.
	stale := &wire.ReplicaDelta{Lock: 6, From: 1, Version: baseVersion, FromVersion: baseVersion - 1}
	if err := n2.applyDelta(stale); err != nil {
		t.Fatalf("stale delta errored: %v", err)
	}

	// The protocol recovers: a real release still reaches site 2 in full
	// or delta form.
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r1.Content().SetIntAt(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rl2st := n2.getLockLocal(6)
	rl2st.mu.Lock()
	r, ok := rl2st.byName["v"]
	rl2st.mu.Unlock()
	if !ok || r.Content().IntsData()[0] != 42 {
		t.Fatal("site 2 did not converge after rejected deltas")
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaNackTriggersFullResend wrecks the receiver's delta base by hand
// (simulating divergence the checksum must catch) and verifies the wire
// protocol's nack/fallback loop converges on the sender's state.
func TestDeltaNackTriggersFullResend(t *testing.T) {
	opts := defaultOpts()
	opts.DeltaTransfer = true
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	rl1, r1 := mustCreate(t, h1, 8, "v", make([]int32, 2048), 2)
	rl2, r2 := mustAttach(t, tc.node(2).NewHandle("r"), 8, "v")
	settle()

	// Seed site 2, then pull the lock back to site 1: serving that
	// transfer leaves site 2 with a marshaled cache of the version it
	// last held — the base the next delta will patch.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt site 2's cached base behind the protocol's back: the next
	// delta patches against garbage, fails the checksum, and must be
	// nacked and replaced by a full copy.
	st2 := tc.node(2).getLockLocal(8)
	st2.mu.Lock()
	if st2.cachedPayloads == nil {
		st2.mu.Unlock()
		t.Fatal("site 2 has no cached base to corrupt")
	}
	blob := st2.cachedPayloads[0].Data
	for i := headerBytes; i < len(blob); i++ {
		blob[i] ^= 0x5A
	}
	st2.mu.Unlock()

	if err := r1.Content().SetIntAt(9, 77); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r2.Content().IntsData()[9]; got != 77 {
		t.Fatalf("site 2 value %d after nacked delta, want 77", got)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if fb := tc.node(1).DeltaFallbacks(); fb == 0 {
		t.Fatal("corrupted base produced no delta fallback")
	}
}

// headerBytes mirrors the marshaled-blob header so the corruption test
// skips the kind/count prefix.
const headerBytes = 5

// TestAdaptiveThresholdBoundary pins useStream's size policy: at exactly
// the threshold the mnet path must win (the stream only pays off above
// it).
func TestAdaptiveThresholdBoundary(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeAdaptive
	tc := newTestCluster(t, 2, opts)

	x := tc.node(1).xfer
	const def = adaptiveThreshold
	cases := []struct {
		size int
		want bool
	}{
		{0, false},
		{def - 1, false},
		{def, false}, // boundary: strictly greater-than switches to the stream
		{def + 1, true},
	}
	for _, c := range cases {
		if got := x.useStream(c.size); got != c.want {
			t.Errorf("useStream(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// TestStreamCacheEviction exercises the reuse cache's lifecycle: a cached
// connection appears after the first transfer, is evicted (not just
// closed) when the destination dies, and Node.Close drops every entry.
func TestStreamCacheEviction(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeHybrid
	opts.StreamReuse = true
	opts.TransferTimeout = 2 * time.Second
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	mustCreate(t, h1, 2, "v", make([]int32, 512), 3)
	for i := wire.SiteID(2); i <= 3; i++ {
		mustAttach(t, tc.node(i).NewHandle("r"), 2, "v")
	}
	settle()

	home := tc.node(1)
	version, payloads, err := home.PreparePush(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.PushPayloads(ctx, 2, version, payloads, []wire.SiteID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := home.xfer.cachedConnCount(); got != 2 {
		t.Fatalf("cached %d connections after pushing to 2 sites, want 2", got)
	}

	// Kill site 2: the next push must fail AND evict its cache slot, so a
	// dead destination does not pin a broken entry forever.
	tc.kill(2)
	version, payloads, err = home.PreparePush(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.PushPayloads(ctx, 2, version, payloads, []wire.SiteID{2}); err == nil {
		t.Fatal("push to killed site succeeded")
	}
	if got := home.xfer.cachedConnCount(); got != 1 {
		t.Fatalf("cache holds %d entries after failed push, want 1 (dead site evicted)", got)
	}

	// Close tears down the rest.
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	if got := home.xfer.cachedConnCount(); got != 0 {
		t.Fatalf("cache holds %d entries after Close, want 0", got)
	}
}
