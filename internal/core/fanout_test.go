package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/marshal"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// countingCodec counts Marshal calls to observe the payload cache.
type countingCodec struct {
	marshal.Codec
	calls atomic.Int64
}

func (c *countingCodec) Marshal(ct *marshal.Content) ([]byte, error) {
	c.calls.Add(1)
	return c.Codec.Marshal(ct)
}

func TestPayloadCacheKeyedByVersion(t *testing.T) {
	codec := &countingCodec{Codec: marshal.NewFast(netsim.Native())}
	st := newLockLocal(7, 0)
	st.replicas = []*Replica{
		{name: "a", content: marshal.Ints([]int32{1, 2, 3})},
		{name: "b", content: marshal.Bytes([]byte("payload"))},
	}
	st.version = 3
	st.mu.Lock()
	defer st.mu.Unlock()

	first, err := st.marshalPayloadsLocked(codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || codec.calls.Load() != 2 {
		t.Fatalf("cold marshal: %d payloads, %d codec calls", len(first), codec.calls.Load())
	}
	if _, err := st.marshalPayloadsLocked(codec); err != nil {
		t.Fatal(err)
	}
	if codec.calls.Load() != 2 {
		t.Fatalf("same-version request re-marshaled: %d codec calls", codec.calls.Load())
	}

	st.version++
	if _, err := st.marshalPayloadsLocked(codec); err != nil {
		t.Fatal(err)
	}
	if codec.calls.Load() != 4 {
		t.Fatalf("version bump did not miss the cache: %d codec calls", codec.calls.Load())
	}

	// Content rewritten behind an unchanged version (an exclusive release,
	// or a recovery rewind) must invalidate explicitly.
	st.invalidatePayloadsLocked()
	if _, err := st.marshalPayloadsLocked(codec); err != nil {
		t.Fatal(err)
	}
	if codec.calls.Load() != 6 {
		t.Fatalf("invalidate did not miss the cache: %d codec calls", codec.calls.Load())
	}
}

// TestPushPayloadsMarshalOnce verifies the marshal-once pipeline: one
// PushUpdate wire marshal per dissemination round, however many sites the
// blob fans out to.
func TestPushPayloadsMarshalOnce(t *testing.T) {
	tc := newTestCluster(t, 6, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	mustCreate(t, h1, 5, "v", []int32{0}, 6)
	for i := wire.SiteID(2); i <= 6; i++ {
		mustAttach(t, tc.node(i).NewHandle("r"), 5, "v")
	}
	settle()

	home := tc.node(1)
	for _, targets := range [][]wire.SiteID{{2}, {2, 3, 4, 5, 6}} {
		before := home.PushUpdateMarshals()
		version, payloads, err := home.PreparePush(5)
		if err != nil {
			t.Fatal(err)
		}
		acked, err := home.PushPayloads(ctx, 5, version, payloads, targets)
		if err != nil {
			t.Fatalf("push to %d sites: %v", len(targets), err)
		}
		if len(acked) != len(targets) {
			t.Fatalf("acked %v, want %v", acked, targets)
		}
		if got := home.PushUpdateMarshals() - before; got != 1 {
			t.Fatalf("pushed to %d sites with %d PushUpdate marshals, want exactly 1", len(targets), got)
		}
	}
}

// TestSequentialFanoutOrder pins the paper-faithful mode: with
// DisseminationFanout=1, PushPayloads must still ack every target and stay
// marshal-once.
func TestSequentialFanoutOrder(t *testing.T) {
	opts := defaultOpts()
	opts.DisseminationFanout = 1
	tc := newTestCluster(t, 4, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("w")
	mustCreate(t, h1, 5, "v", []int32{0}, 4)
	for i := wire.SiteID(2); i <= 4; i++ {
		mustAttach(t, tc.node(i).NewHandle("r"), 5, "v")
	}
	settle()

	home := tc.node(1)
	before := home.PushUpdateMarshals()
	version, payloads, err := home.PreparePush(5)
	if err != nil {
		t.Fatal(err)
	}
	targets := []wire.SiteID{2, 3, 4}
	acked, err := home.PushPayloads(ctx, 5, version, payloads, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range targets {
		if i >= len(acked) || acked[i] != site {
			t.Fatalf("sequential fan-out acked %v, want %v in order", acked, targets)
		}
	}
	if got := home.PushUpdateMarshals() - before; got != 1 {
		t.Fatalf("sequential fan-out marshaled %d times, want 1", got)
	}
}

// TestParallelDisseminationWithFaults pushes one update to five sharers in
// parallel while one link is lossy and another is cut: every reachable
// site must land on the released version, and the RELEASELOCK's up-to-date
// bit vector at the synchronization thread must match exactly the sites
// that acknowledged.
func TestParallelDisseminationWithFaults(t *testing.T) {
	opts := defaultOpts()
	opts.mnetCfg.MaxRetries = 8
	opts.TransferTimeout = 2 * time.Second
	tc := newTestCluster(t, 6, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("writer")
	rl1, r1 := mustCreate(t, h1, 9, "v", []int32{0}, 6)
	remotes := make(map[wire.SiteID]*ReplicaLock)
	contents := make(map[wire.SiteID]*Replica)
	for i := wire.SiteID(2); i <= 6; i++ {
		rl, r := mustAttach(t, tc.node(i).NewHandle("reader"), 9, "v")
		remotes[i] = rl
		contents[i] = r
	}
	settle()

	// Degrade the 1<->4 link and cut 1<->6 entirely: the parallel fan-out
	// must ride out retransmissions on one transfer while another target is
	// plain unreachable.
	net := tc.sn.Underlying()
	lossy := netsim.Perfect().Lossy(0.3)
	net.SetLinkProfile(1, 4, lossy)
	net.SetLinkProfile(4, 1, lossy)
	net.Partition(1, 6, true)

	rl1.SetUpdateReplicas(6)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 42
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	released := rl1.Version()
	if released == 0 {
		t.Fatal("home version still 0 after exclusive release")
	}
	for i := wire.SiteID(2); i <= 5; i++ {
		if got := remotes[i].Version(); got != released {
			t.Fatalf("site %d at version %d, want %d", i, got, released)
		}
		if got := contents[i].Content().IntsData()[0]; got != 42 {
			t.Fatalf("site %d value %d, want 42", i, got)
		}
	}
	if got := remotes[6].Version(); got >= released {
		t.Fatalf("partitioned site 6 at version %d, want < %d", got, released)
	}

	// The release carries the acked set plus the releaser; the manager's
	// up-to-date bit vector must be exactly {1,2,3,4,5}. The release is
	// processed asynchronously by the sync thread, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := tc.node(1).Sync().Snapshot().Locks[9].UpToDate
		ok := up.Len() == 5
		for i := wire.SiteID(1); i <= 5; i++ {
			ok = ok && up.Contains(i)
		}
		if ok && !up.Contains(6) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("up-to-date set %v, want {1,2,3,4,5}", up)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHybridConcurrentPushStreamDemux runs two dissemination rounds of
// different locks concurrently over the hybrid protocol. Each round
// performs stream handshakes with the same peers at the same time; a
// handshake reply routed to the wrong waiter would deliver one lock's blob
// over the other's connection and corrupt the remote contents.
func TestHybridConcurrentPushStreamDemux(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeHybrid
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	markers := map[wire.LockID]int32{5: 111, 6: 222}
	names := map[wire.LockID]string{5: "a", 6: "b"}
	h1 := tc.node(1).NewHandle("w")
	for lock, marker := range markers {
		data := make([]int32, 2048)
		for i := range data {
			data[i] = marker
		}
		mustCreate(t, h1, lock, names[lock], data, 3)
	}
	attached := make(map[wire.SiteID]map[wire.LockID]*Replica)
	for i := wire.SiteID(2); i <= 3; i++ {
		attached[i] = make(map[wire.LockID]*Replica)
		h := tc.node(i).NewHandle("r")
		for lock, name := range names {
			_, r := mustAttach(t, h, lock, name)
			attached[i][lock] = r
		}
	}
	settle()

	home := tc.node(1)
	targets := []wire.SiteID{2, 3}
	errs := make(map[wire.LockID]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for lock := range markers {
		wg.Add(1)
		go func(lock wire.LockID) {
			defer wg.Done()
			version, payloads, err := home.PreparePush(lock)
			if err == nil {
				_, err = home.PushPayloads(ctx, lock, version, payloads, targets)
			}
			mu.Lock()
			errs[lock] = err
			mu.Unlock()
		}(lock)
	}
	wg.Wait()
	for lock, err := range errs {
		if err != nil {
			t.Fatalf("concurrent push of lock %d: %v", lock, err)
		}
	}

	for i := wire.SiteID(2); i <= 3; i++ {
		for lock, marker := range markers {
			data := attached[i][lock].Content().IntsData()
			if len(data) != 2048 {
				t.Fatalf("site %d lock %d: %d ints, want 2048", i, lock, len(data))
			}
			for _, v := range data {
				if v != marker {
					t.Fatalf("site %d lock %d received value %d, want %d: stream replies crossed", i, lock, v, marker)
				}
			}
		}
	}
}

// TestAbandonedStreamListenerObserved forces the hybrid dial to fail so
// the receiver's one-shot listener is never connected: the timeout must
// surface as a fault log entry and a counter, not a silent goroutine exit.
func TestAbandonedStreamListenerObserved(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeHybrid
	opts.TransferTimeout = 500 * time.Millisecond
	opts.wrapStack = func(site wire.SiteID, s transport.Stack) transport.Stack {
		return &brokenDialStack{Stack: s}
	}
	tc := newTestCluster(t, 2, opts)
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("a")
	mustCreate(t, h1, 5, "v", []int32{1}, 2)
	rl2, _ := mustAttach(t, tc.node(2).NewHandle("b"), 5, "v")
	settle()

	// Site 2's acquisition makes site 1 dial a stream to site 2; the dial
	// fails and the transfer falls back to MNet, leaving site 2's listener
	// to time out.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for tc.node(2).AbandonedStreamListeners() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned stream listener never counted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tc.node(2).Log().CountCategory("fault") == 0 {
		t.Fatal("abandoned listener not logged as a fault event")
	}
}
