package mocha_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mocha"
	"mocha/internal/obs"
)

// freePorts reserves n distinct UDP ports by binding and releasing them.
// A tiny race window remains; the caller retries on bind failure.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	for len(ports) < n {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return ports
}

// TestJoinClusterRealSockets runs a two-site cluster over real UDP/TCP on
// loopback through the public deployment API — the path cmd/mochad uses.
func TestJoinClusterRealSockets(t *testing.T) {
	var sites []*mocha.Site
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		ports := freePorts(t, 2)
		directory := map[mocha.SiteID]string{
			1: fmt.Sprintf("127.0.0.1:%d", ports[0]),
			2: fmt.Sprintf("127.0.0.1:%d", ports[1]),
		}
		registry := mocha.NewRegistry()
		registry.MustRegister("Echo", func() mocha.Task {
			return mocha.TaskFunc(func(m *mocha.Mocha) {
				s, _ := m.Parameter.GetString("s")
				m.Result.AddString("s", strings.ToUpper(s))
				m.ReturnResults()
			})
		})

		sites = sites[:0]
		ok := true
		for _, id := range []mocha.SiteID{1, 2} {
			s, joinErr := mocha.JoinClusterEntries(directory, id, registry,
				mocha.WithClusterKey([]byte("loopback-secret")),
				mocha.WithTransferMode(mocha.ModeHybrid),
			)
			if joinErr != nil {
				err = joinErr
				ok = false
				break
			}
			sites = append(sites, s)
		}
		if ok {
			break
		}
		for _, s := range sites {
			_ = s.Close()
		}
	}
	if len(sites) != 2 {
		t.Fatalf("could not bind cluster: %v", err)
	}
	defer func() {
		for _, s := range sites {
			_ = s.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Spawn over real UDP.
	bag := sites[0].Bag("main")
	p := mocha.NewParams()
	p.AddString("s", "over real sockets")
	rh, err := bag.Spawn(ctx, 2, "Echo", p)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.GetString("s"); got != "OVER REAL SOCKETS" {
		t.Fatalf("echo = %q", got)
	}

	// Share a replica over the hybrid protocol (real TCP for the data).
	r, err := bag.CreateReplica("shared", mocha.Ints(make([]int32, 2048)), 2)
	if err != nil {
		t.Fatal(err)
	}
	rl := bag.ReplicaLock(1)
	if err := rl.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}
	worker := sites[1].Bag("worker")
	r2, err := worker.AttachReplica("shared", mocha.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl2 := worker.ReplicaLock(1)
	if err := rl2.Associate(ctx, r2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r.Content().IntsData()[0] = 321
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rl2.Lock(ctx); err != nil {
		t.Fatalf("lock over real tcp: %v", err)
	}
	if got := r2.Content().IntsData()[0]; got != 321 {
		t.Fatalf("transferred = %d", got)
	}
	if err := rl2.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Membership join should have registered site 2 at the home.
	deadline := time.Now().Add(10 * time.Second)
	for len(sites[0].Runtime().Members()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("site 2 never joined the home over real sockets")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if _, err := mocha.JoinClusterEntries(map[mocha.SiteID]string{1: "x"}, 9, nil); err == nil {
		t.Fatal("join with unknown site succeeded")
	}
}

func TestClusterFacadeSurface(t *testing.T) {
	cluster, err := mocha.NewSimCluster(3,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithSeed(42),
		mocha.WithMaxServers(2),
		mocha.WithTransferTimeout(30*time.Second),
		mocha.WithTaskPermissions(mocha.AllPermissions()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if got := len(cluster.Sites()); got != 3 {
		t.Fatalf("Sites() = %d", got)
	}
	cluster.AddCode("Helper", []byte("helper image"))

	// Demand-pull the added code through the public API.
	cluster.MustRegister("Loader", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			code, err := m.LoadClass(context.Background(), "Helper")
			if err != nil {
				m.Fail(err)
				return
			}
			m.Result.AddBytes("code", code)
			m.ReturnResults()
		})
	})
	bag := cluster.Home().Bag("main")
	rh, err := bag.Spawn(ctx, 2, "Loader", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := res.GetBytes("code"); string(code) != "helper image" {
		t.Fatalf("pulled code = %q", code)
	}

	// The partition API must actually cut traffic.
	cluster.Partition(1, 3, true)
	shortCtx, cancel2 := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel2()
	if _, err := bag.Spawn(shortCtx, 3, "Loader", nil); err == nil {
		t.Fatal("spawn crossed a partition")
	}
	cluster.Partition(1, 3, false)

	// The timeline must carry events from the activity above.
	tl := cluster.Timeline()
	if len(tl.Records) == 0 {
		t.Fatal("empty timeline after cluster activity")
	}
	var sb strings.Builder
	if err := tl.Render(&sb, mocha.RenderOptions{MaxRecords: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "site 1") {
		t.Fatalf("timeline render:\n%s", sb.String())
	}

	// Misc wrappers.
	if mocha.LAN().Name == "" || mocha.CableModem().Name == "" || mocha.NativeCost().Name == "" {
		t.Fatal("profile wrappers broken")
	}
	if mocha.Bytes([]byte{1}).SizeBytes() != 1 || mocha.Floats([]float64{1}).SizeBytes() != 8 {
		t.Fatal("content wrappers broken")
	}
	a := mocha.SessionWrite{UnixNanos: 1, Data: []byte("a")}
	b := mocha.SessionWrite{UnixNanos: 2, Data: []byte("b")}
	if string(mocha.LastWriterWins(a, b)) != "b" {
		t.Fatal("LastWriterWins wrapper broken")
	}
}

func TestTypedReplicaSet(t *testing.T) {
	cluster, err := mocha.NewSimCluster(1, mocha.WithEnvironment(mocha.Perfect()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	bag := cluster.Home().Bag("main")
	tr, err := mocha.NewTypedReplica(bag, "cfg", map[string]int{"a": 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rl := bag.ReplicaLock(1)
	if err := rl.Associate(ctx, tr.Replica()); err != nil {
		t.Fatal(err)
	}
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Set(map[string]int{"b": 2})
	if got := tr.Get(); got["b"] != 2 {
		t.Fatalf("Set/Get = %v", got)
	}
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAllExtensionsOn builds one simulated cluster with every extension
// switched on through the public options — delta transfer, the
// dissemination tree, home placement, the durable store, stream reuse and
// a caller's metrics registry — writes at one site, reads the exact bytes
// at another, and finds the releases and a delta transfer in the
// caller's registry.
func TestAllExtensionsOn(t *testing.T) {
	m := mocha.NewMetrics()
	cluster, err := mocha.NewSimCluster(3,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithDeltaTransfer(),
		mocha.WithDisseminationTree(),
		mocha.WithHomePlacement(),
		mocha.WithDurableStore(t.TempDir()),
		mocha.WithStreamReuse(),
		mocha.WithMetrics(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)
	if cluster.Metrics() != m {
		t.Fatal("cluster does not record into the caller's registry")
	}

	const lock = 11
	writer := cluster.Site(1).Bag("writer")
	r1, err := writer.CreateReplica("doc", mocha.Bytes(make([]byte, 256)), 3)
	if err != nil {
		t.Fatal(err)
	}
	rl1 := writer.ReplicaLock(lock)
	if err := rl1.Associate(ctx, r1); err != nil {
		t.Fatal(err)
	}
	reader := cluster.Site(3).Bag("reader")
	r3, err := reader.AttachReplica("doc", mocha.Bytes(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl3 := reader.ReplicaLock(lock)
	if err := rl3.Associate(ctx, r3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // registrations reach the lock's home

	want := make([]byte, 256)
	// The reader's second read fetches a delta against its first.
	for i, write := range []struct {
		off  int
		data string
	}{{8, "every extension on"}, {200, "second write"}} {
		if err := rl1.Lock(ctx); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := r1.Content().WriteBytesAt(write.off, []byte(write.data)); err != nil {
			t.Fatal(err)
		}
		copy(want[write.off:], write.data)
		if err := rl1.Unlock(ctx); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := rl3.Lock(ctx); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got := append([]byte(nil), r3.Content().BytesData()...)
		if err := rl3.Unlock(ctx); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d at site 3: %q\nwant %q", i, got, want)
		}
	}
	if m.CounterValue(obs.CReleases) == 0 {
		t.Error("no release recorded in the caller's registry")
	}
	if m.CounterValue(obs.CTransfersDelta) == 0 {
		t.Error("no delta transfer recorded: the second read should fetch a delta")
	}
}
