package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mocha/internal/marshal"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

func TestCreateLockModifyTransfer(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 7, "flatwareIndex", []int32{10, 20, 30}, 2)

	h2 := tc.node(2).NewHandle("worker")
	rl2, r2 := mustAttach(t, h2, 7, "flatwareIndex")
	settle()

	// Site 2 acquires: the creator's data must transfer over.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("site2 lock: %v", err)
	}
	got := r2.Content().IntsData()
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("site2 sees %v, want [10 20 30]", got)
	}
	got[0] = 99
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatalf("site2 unlock: %v", err)
	}

	// Site 1 reacquires: the modification must come back.
	if err := rl1.Lock(ctx); err != nil {
		t.Fatalf("site1 lock: %v", err)
	}
	if v := r1.Content().IntsData()[0]; v != 99 {
		t.Fatalf("site1 sees %d, want 99", v)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatalf("site1 unlock: %v", err)
	}
}

func TestVersionOKAvoidsTransfer(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 7, "x", []int32{1}, 1)
	settle()

	// Same site relocking repeatedly: every grant after the first release
	// must be VERSIONOK (no replica traffic).
	for i := 0; i < 3; i++ {
		if err := rl1.Lock(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rl1.Unlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := tc.node(1).Log().CountCategory("xfer"); n != 0 {
		t.Fatalf("same-owner relocks caused %d transfers, want 0", n)
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	const sites = 4
	const increments = 8
	tc := newTestCluster(t, sites, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 9, "counter", []int32{0}, sites)
	settle()

	var wg sync.WaitGroup
	errCh := make(chan error, sites)
	for i := 1; i <= sites; i++ {
		site := wire.SiteID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rl *ReplicaLock
			var r *Replica
			if site == 1 {
				rl, r = rl1, r1
			} else {
				h := tc.node(site).NewHandle(fmt.Sprintf("w%d", site))
				var err error
				r, err = tc.node(site).AttachReplica("counter", marshal.Ints(nil))
				if err != nil {
					errCh <- err
					return
				}
				rl = h.ReplicaLock(9)
				if err := rl.Associate(ctx, r); err != nil {
					errCh <- err
					return
				}
			}
			for j := 0; j < increments; j++ {
				if err := rl.Lock(ctx); err != nil {
					errCh <- fmt.Errorf("site %d lock: %w", site, err)
					return
				}
				data := r.Content().IntsData()
				data[0]++
				if err := rl.Unlock(ctx); err != nil {
					errCh <- fmt.Errorf("site %d unlock: %w", site, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rl1.Unlock(ctx) }()
	if got := r1.Content().IntsData()[0]; got != sites*increments {
		t.Fatalf("counter = %d, want %d (lost updates => broken mutual exclusion)", got, sites*increments)
	}
}

func TestLocalThreadsSerialize(t *testing.T) {
	tc := newTestCluster(t, 1, defaultOpts())
	ctx := tctx(t)

	hA := tc.node(1).NewHandle("a")
	rlA, r := mustCreate(t, hA, 3, "shared", []int32{0}, 1)
	hB := tc.node(1).NewHandle("b")
	rlB := hB.ReplicaLock(3)
	settle()

	const per = 25
	var wg sync.WaitGroup
	for _, rl := range []*ReplicaLock{rlA, rlB} {
		rl := rl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := rl.Lock(ctx); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				r.Content().IntsData()[0]++
				if err := rl.Unlock(ctx); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := rlA.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rlA.Unlock(ctx) }()
	if got := r.Content().IntsData()[0]; got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
}

func TestSharedLocksAllowConcurrentReaders(t *testing.T) {
	tc := newTestCluster(t, 3, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 5, "doc", []int32{42}, 3)
	settle()

	// Seed the other sites.
	h2 := tc.node(2).NewHandle("r2")
	rl2, r2 := mustAttach(t, h2, 5, "doc")
	h3 := tc.node(3).NewHandle("r3")
	rl3, r3 := mustAttach(t, h3, 5, "doc")
	settle()

	if err := rl2.LockShared(ctx); err != nil {
		t.Fatalf("reader2: %v", err)
	}
	// A second reader must be able to acquire while the first holds.
	acquired := make(chan error, 1)
	go func() {
		acquired <- rl3.LockShared(ctx)
	}()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("reader3: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second shared reader blocked behind the first")
	}
	if got := r2.Content().IntsData()[0]; got != 42 {
		t.Fatalf("reader2 sees %d", got)
	}
	if got := r3.Content().IntsData()[0]; got != 42 {
		t.Fatalf("reader3 sees %d", got)
	}

	// A writer must wait for both readers.
	wrote := make(chan error, 1)
	go func() {
		if err := rl1.Lock(ctx); err != nil {
			wrote <- err
			return
		}
		wrote <- rl1.Unlock(ctx)
	}()
	select {
	case <-wrote:
		t.Fatal("writer acquired while readers hold the lock")
	case <-time.After(150 * time.Millisecond):
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wrote:
		t.Fatal("writer acquired while one reader still holds")
	case <-time.After(150 * time.Millisecond):
	}
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired after readers released")
	}
}

func TestSharedReleaseKeepsVersion(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)
	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 5, "doc", []int32{1}, 2)
	settle()

	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	v := rl1.Version()

	h2 := tc.node(2).NewHandle("reader")
	rl2, _ := mustAttach(t, h2, 5, "doc")
	settle()
	if err := rl2.LockShared(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rl2.Version(); got != v {
		t.Fatalf("shared release moved version %d -> %d", v, got)
	}
}

func TestUnlockWithoutHold(t *testing.T) {
	tc := newTestCluster(t, 1, defaultOpts())
	h := tc.node(1).NewHandle("t")
	rl, _ := mustCreate(t, h, 2, "x", []int32{1}, 1)
	if err := rl.Unlock(tctx(t)); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v, want ErrNotHeld", err)
	}
}

func TestURDisseminationPushesUpdates(t *testing.T) {
	tc := newTestCluster(t, 3, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 11, "index", []int32{0}, 3)
	h2 := tc.node(2).NewHandle("w2")
	rl2, r2 := mustAttach(t, h2, 11, "index")
	h3 := tc.node(3).NewHandle("w3")
	_, r3 := mustAttach(t, h3, 11, "index")
	settle()

	// UR=3: every release pushes the new value to both other daemons.
	rl1.SetUpdateReplicas(3)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 77
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Both other sites must hold the pushed value without locking.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v2 := tc.node(2).getLockLocal(11)
		v3 := tc.node(3).getLockLocal(11)
		v2.mu.Lock()
		ver2 := v2.version
		v2.mu.Unlock()
		v3.mu.Lock()
		ver3 := v3.version
		v3.mu.Unlock()
		if ver2 >= 2 && ver3 >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push never arrived: site2 v%d site3 v%d", ver2, ver3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := r2.Content().IntsData()[0]; got != 77 {
		t.Fatalf("site2 pushed value = %d", got)
	}
	if got := r3.Content().IntsData()[0]; got != 77 {
		t.Fatalf("site3 pushed value = %d", got)
	}

	// A pushed site acquiring the lock must get VERSIONOK: no transfer.
	before := tc.node(1).Log().CountCategory("xfer")
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r2.Content().IntsData()[0]; got != 77 {
		t.Fatalf("site2 after lock = %d", got)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	after := tc.node(1).Log().CountCategory("xfer")
	if after != before {
		t.Fatalf("pushed site still triggered %d transfers", after-before)
	}
}

func TestPendingPayloadAppliedOnAssociate(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 13, "late", []int32{5}, 2)
	settle()
	// Site 2 registers its interest for the lock only (no replica yet):
	// dissemination arrives before the replica is associated.
	h2 := tc.node(2).NewHandle("late-joiner")
	rl2 := h2.ReplicaLock(13)
	probe, err := tc.node(2).CreateReplica("probe", marshal.Ints([]int32{0}), 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = probe
	// Register site 2 as a sharer via a bare registration.
	if err := tc.node(2).client.sendToHome(ctx, &wire.RegisterReplica{
		Lock: 13, Site: 2, Names: []string{"late"},
	}, 13); err != nil {
		t.Fatal(err)
	}
	settle()

	rl1.SetUpdateReplicas(2)
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r1.Content().IntsData()[0] = 123
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	settle()

	// Now associate the replica: the buffered payload must be applied.
	r2, err := tc.node(2).AttachReplica("late", marshal.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := rl2.Associate(ctx, r2); err != nil {
		t.Fatal(err)
	}
	if got := r2.Content().IntsData(); len(got) != 1 || got[0] != 123 {
		t.Fatalf("pending payload not applied: %v", got)
	}
}

func TestStaleVersionIgnored(t *testing.T) {
	tc := newTestCluster(t, 1, defaultOpts())
	n := tc.node(1)
	h := n.NewHandle("t")
	_, r := mustCreate(t, h, 21, "v", []int32{1}, 1)

	blobNew, err := n.marshalContent(marshal.Ints([]int32{50}))
	if err != nil {
		t.Fatal(err)
	}
	n.applyReplicaData(&wire.ReplicaData{
		Lock: 21, From: 9, Version: 5,
		Replicas: []wire.ReplicaPayload{{Name: "v", Data: blobNew}},
	})
	if got := r.Content().IntsData()[0]; got != 50 {
		t.Fatalf("v5 not applied: %d", got)
	}
	blobOld, err := n.marshalContent(marshal.Ints([]int32{40}))
	if err != nil {
		t.Fatal(err)
	}
	n.applyReplicaData(&wire.ReplicaData{
		Lock: 21, From: 9, Version: 3,
		Replicas: []wire.ReplicaPayload{{Name: "v", Data: blobOld}},
	})
	if got := r.Content().IntsData()[0]; got != 50 {
		t.Fatalf("stale v3 overwrote v5: %d", got)
	}
}

func TestHybridModeEndToEnd(t *testing.T) {
	for _, mode := range []TransferMode{ModeHybrid, ModeAdaptive} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			opts := defaultOpts()
			opts.Mode = mode
			tc := newTestCluster(t, 3, opts)
			ctx := tctx(t)

			h1 := tc.node(1).NewHandle("creator")
			big := make([]int32, 4096) // large enough for adaptive streaming
			big[0] = 7
			rl1, r1 := mustCreate(t, h1, 8, "bulk", big, 3)
			h2 := tc.node(2).NewHandle("w2")
			rl2, r2 := mustAttach(t, h2, 8, "bulk")
			settle()

			if err := rl2.Lock(ctx); err != nil {
				t.Fatalf("lock over %s: %v", mode, err)
			}
			if got := r2.Content().IntsData(); len(got) != 4096 || got[0] != 7 {
				t.Fatalf("stream transfer corrupted: len=%d", len(got))
			}
			r2.Content().IntsData()[1] = 9
			if err := rl2.Unlock(ctx); err != nil {
				t.Fatal(err)
			}

			if err := rl1.Lock(ctx); err != nil {
				t.Fatal(err)
			}
			if got := r1.Content().IntsData()[1]; got != 9 {
				t.Fatalf("return transfer lost update: %d", got)
			}
			if err := rl1.Unlock(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCachedReplicas(t *testing.T) {
	opts := defaultOpts()
	opts.Metrics = obs.NewRegistry()
	tc := newTestCluster(t, 3, opts)
	ctx := tctx(t)

	// "The graphical images are also shared as replicas but are not
	// associated with a ReplicaLock. Thus, they are cached at each host
	// without any consistency maintenance."
	pub, err := tc.node(1).CreateReplica("image", marshal.Bytes([]byte("v1-bytes")), 3)
	if err != nil {
		t.Fatal(err)
	}
	var subs []*Replica
	for _, site := range []wire.SiteID{2, 3} {
		r, err := tc.node(site).AttachReplica("image", marshal.Bytes(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.node(site).RegisterCached(r); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, r)
	}

	if err := tc.node(1).PublishCached(ctx, pub, nil); err != nil {
		t.Fatal(err)
	}
	readCached := func(r *Replica) string {
		var got string
		r.ReadCached(func(c *marshal.Content) { got = string(c.BytesData()) })
		return got
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, r := range subs {
			if readCached(r) != "v1-bytes" {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached publish never arrived: %q / %q",
				readCached(subs[0]), readCached(subs[1]))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Nobody waits on a cached publish, so no site may answer it: an ack
	// would follow the apply by one zero-delay hop.
	settle()
	if got := opts.Metrics.CounterValue(obs.CPushAcks); got != 0 {
		t.Fatalf("cached publish drew %d push acks, want 0", got)
	}
}

func TestGrowShrinkAcrossSites(t *testing.T) {
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)
	h1 := tc.node(1).NewHandle("creator")
	rl1, r1 := mustCreate(t, h1, 4, "elastic", []int32{1, 2}, 2)
	h2 := tc.node(2).NewHandle("w")
	rl2, r2 := mustAttach(t, h2, 4, "elastic")
	settle()

	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r1.Content().SetInts([]int32{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(r2.Content().IntsData()); got != 5 {
		t.Fatalf("grown replica transferred %d elements", got)
	}
	if err := r2.Content().SetInts([]int32{9}); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rl1.Unlock(ctx) }()
	if got := r1.Content().IntsData(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("shrunk replica transferred %v", got)
	}
}

func TestClosedNodeOperations(t *testing.T) {
	tc := newTestCluster(t, 1, defaultOpts())
	h := tc.node(1).NewHandle("t")
	rl, _ := mustCreate(t, h, 2, "x", []int32{1}, 1)
	if err := tc.node(1).Close(); err != nil {
		t.Fatal(err)
	}
	if err := rl.Lock(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lock on closed node = %v, want ErrClosed", err)
	}
	if err := tc.node(1).RegisterCached(&Replica{name: "c", content: marshal.Bytes(nil)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RegisterCached on closed node = %v", err)
	}
}

func TestMultipleReplicasOneLock(t *testing.T) {
	// The table-setting pattern: several replicas consistent under one
	// lock, all transferred together.
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)
	h1 := tc.node(1).NewHandle("home")

	names := []string{"flatwareIndex", "plateIndex", "glasswareIndex"}
	rl1 := h1.ReplicaLock(1)
	var created []*Replica
	for _, name := range names {
		r, err := tc.node(1).CreateReplica(name, marshal.Ints([]int32{0, 0, 0, 0, 0}), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := rl1.Associate(ctx, r); err != nil {
			t.Fatal(err)
		}
		created = append(created, r)
	}
	text, err := tc.node(1).CreateReplica("text", marshal.Object(marshal.NewStringValue("Hello World")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl1.Associate(ctx, text); err != nil {
		t.Fatal(err)
	}

	h2 := tc.node(2).NewHandle("associate")
	rl2 := h2.ReplicaLock(1)
	var attached []*Replica
	for _, name := range names {
		r, err := tc.node(2).AttachReplica(name, marshal.Ints(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := rl2.Associate(ctx, r); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, r)
	}
	text2, err := tc.node(2).AttachReplica("text", marshal.Object(marshal.NewStringValue("")))
	if err != nil {
		t.Fatal(err)
	}
	if err := rl2.Associate(ctx, text2); err != nil {
		t.Fatal(err)
	}
	settle()

	// Home updates all four under one lock.
	if err := rl1.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	created[0].Content().IntsData()[0] = 1
	created[1].Content().IntsData()[0] = 2
	created[2].Content().IntsData()[0] = 3
	text.Content().ObjectData().(*marshal.StringValue).Set("Good Choice")
	if err := rl1.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rl2.Unlock(ctx) }()
	for i, want := range []int32{1, 2, 3} {
		if got := attached[i].Content().IntsData()[0]; got != want {
			t.Fatalf("replica %s = %d, want %d", names[i], got, want)
		}
	}
	if got := text2.Content().ObjectData().(*marshal.StringValue).Get(); got != "Good Choice" {
		t.Fatalf("string replica = %q", got)
	}
}

func TestTwoLocalThreadsSameReplicaName(t *testing.T) {
	// Each thread constructs its own Replica object for the same name
	// (the paper's `new Replica("acc", mocha)` at two threads of one
	// server); both must observe the site's single copy of the data.
	tc := newTestCluster(t, 2, defaultOpts())
	ctx := tctx(t)

	h1 := tc.node(1).NewHandle("creator")
	rl1, _ := mustCreate(t, h1, 15, "acc", []int32{5}, 2)
	settle()

	hA := tc.node(2).NewHandle("worker-a")
	rlA, rA := mustAttach(t, hA, 15, "acc")
	hB := tc.node(2).NewHandle("worker-b")
	rB, err := tc.node(2).AttachReplica("acc", marshal.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rlB := hB.ReplicaLock(15)
	if err := rlB.Associate(ctx, rB); err != nil {
		t.Fatal(err)
	}
	settle()

	// Worker A pulls the data; worker B's object must see it too.
	if err := rlA.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rA.Content().IntsData()[0] = 6
	if err := rlA.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rlB.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rB.Content().IntsData(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("worker B sees %v, want [6]", got)
	}
	if err := rlB.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	_ = rl1

	// A kind mismatch on the same name must be rejected.
	bad, err := tc.node(2).AttachReplica("acc", marshal.Floats(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := hB.ReplicaLock(15).Associate(ctx, bad); err == nil {
		t.Fatal("kind-mismatched association accepted")
	}
}

func TestAccessors(t *testing.T) {
	opts := defaultOpts()
	opts.Mode = ModeHybrid
	tc := newTestCluster(t, 2, opts)
	n := tc.node(2)

	if n.Site() != 2 {
		t.Errorf("Site = %d", n.Site())
	}
	if n.Endpoint() == nil {
		t.Error("Endpoint nil")
	}
	if n.Mode() != ModeHybrid {
		t.Errorf("Mode = %v", n.Mode())
	}
	if got := n.Mode().String(); got != "hybrid" {
		t.Errorf("Mode.String = %q", got)
	}
	if ModeMNet.String() != "mocha-basic" || ModeAdaptive.String() != "adaptive" || TransferMode(99).String() == "" {
		t.Error("mode names wrong")
	}
	if addr, epoch := n.HomeAddr(); addr == "" || epoch != 0 {
		t.Errorf("home addr/epoch = %q/%d", addr, epoch)
	}
	if n.RequestTimeout() <= 0 {
		t.Error("RequestTimeout zero")
	}
	if got := n.Sites(); len(got) != 2 || got[0] != 1 {
		t.Errorf("Sites = %v", got)
	}
	if got := n.Directory(); len(got) != 2 || got[1] == "" {
		t.Errorf("Directory = %v", got)
	}
	if addr, err := n.RuntimeAddr(1); err != nil || addr == "" {
		t.Errorf("RuntimeAddr = %q, %v", addr, err)
	}
	if _, err := n.RuntimeAddr(99); err == nil {
		t.Error("RuntimeAddr(99) succeeded")
	}
	select {
	case <-n.Done():
		t.Error("Done closed early")
	default:
	}

	h := n.NewHandle("t")
	h.SetLease(time.Second)
	h.SetLease(-1) // ignored
	if h.Node() != n || h.ID().Site() != 2 {
		t.Error("handle accessors wrong")
	}
	r, err := n.CreateReplica("acc-test", marshal.Ints([]int32{1, 2}), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "acc-test" || r.Copies() != 3 {
		t.Errorf("replica accessors: %q %d", r.Name(), r.Copies())
	}
	rl := h.ReplicaLock(4)
	if rl.ID() != 4 {
		t.Errorf("lock ID = %d", rl.ID())
	}
	rl.SetUpdateReplicas(3)
	if rl.UpdateReplicas() != 3 {
		t.Errorf("UpdateReplicas = %d", rl.UpdateReplicas())
	}
	rl.SetUpdateReplicas(0) // clamps to 1
	if rl.UpdateReplicas() != 1 {
		t.Errorf("clamped UpdateReplicas = %d", rl.UpdateReplicas())
	}

	// Bad constructor arguments.
	if _, err := n.CreateReplica("", marshal.Ints(nil), 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := n.CreateReplica("x", nil, 1); err == nil {
		t.Error("nil content accepted")
	}
	if _, err := n.AttachReplica("", marshal.Ints(nil)); err == nil {
		t.Error("empty attach name accepted")
	}
	if _, err := n.AttachReplica("x", nil); err == nil {
		t.Error("nil attach content accepted")
	}
	if err := rl.Associate(tctx(t), nil); err == nil {
		t.Error("nil associate accepted")
	}
	if _, ok := n.CachedReplica("ghost"); ok {
		t.Error("phantom cached replica found")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	tc := newTestCluster(t, 1, defaultOpts())
	ep := tc.node(1).Endpoint()
	if _, err := NewNode(Config{Endpoint: ep}); err == nil {
		t.Error("config without site accepted")
	}
	if _, err := NewNode(Config{Endpoint: ep, Site: 2}); err == nil {
		t.Error("config without directory accepted")
	}
	if _, err := NewNode(Config{Endpoint: ep, Site: 2, Directory: map[wire.SiteID]string{2: "x"}}); err == nil {
		t.Error("directory without home accepted")
	}
	if _, err := NewNode(Config{Endpoint: ep, Site: 2, Directory: map[wire.SiteID]string{1: "x"}, Mode: ModeHybrid}); err == nil {
		t.Error("hybrid without stack accepted")
	}
}
