package mocha_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mocha"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestQuickstartFlow(t *testing.T) {
	cluster, err := mocha.NewSimCluster(3, mocha.WithEnvironment(mocha.Perfect()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	cluster.MustRegister("Myhello", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			start, err := m.Parameter.GetDouble("start")
			if err != nil {
				m.Fail(err)
				return
			}
			m.MochaPrintf("Returning as a return value %v", start+1)
			m.Result.AddDouble("returnvalue", start+1)
			m.ReturnResults()
		})
	})

	ctx := testCtx(t)
	bag := cluster.Home().Bag("main")
	p := mocha.NewParams()
	p.AddDouble("start", 0)
	rh, err := bag.SpawnAny(ctx, "Myhello", p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.GetDouble("returnvalue"); v != 1 {
		t.Fatalf("returnvalue = %v", v)
	}
}

func TestTableSettingPattern(t *testing.T) {
	// The Figure 3 pattern via the public API: three index replicas and a
	// StringReplica under one ReplicaLock, shared between home and a
	// remote task.
	cluster, err := mocha.NewSimCluster(2, mocha.WithEnvironment(mocha.Perfect()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	done := make(chan string, 1)
	cluster.MustRegister("Associate", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			rlock := m.ReplicaLock(1)
			flatware, err := m.AttachReplica("flatwareIndex", mocha.Ints(nil))
			if err != nil {
				m.Fail(err)
				return
			}
			text, err := m.AttachReplica("text", mocha.Object(mocha.NewStringValue("")))
			if err != nil {
				m.Fail(err)
				return
			}
			taskCtx := context.Background()
			if err := rlock.Associate(taskCtx, flatware); err != nil {
				m.Fail(err)
				return
			}
			if err := rlock.Associate(taskCtx, text); err != nil {
				m.Fail(err)
				return
			}
			// Wait until the home made its update visible.
			for {
				if err := rlock.Lock(taskCtx); err != nil {
					m.Fail(err)
					return
				}
				idx := flatware.Content().IntsData()
				comment := text.Content().ObjectData().(*mocha.StringValue).Get()
				if err := rlock.Unlock(taskCtx); err != nil {
					m.Fail(err)
					return
				}
				if len(idx) > 0 && idx[0] == 1 {
					done <- comment
					m.ReturnResults()
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	})

	bag := cluster.Home().Bag("home-gui")
	rlock := bag.ReplicaLock(1)
	flatware, err := bag.CreateReplica("flatwareIndex", mocha.Ints(make([]int32, 5)), 2)
	if err != nil {
		t.Fatal(err)
	}
	str := mocha.NewStringValue("Hello World")
	text, err := bag.CreateReplica("text", mocha.Object(str), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rlock.Associate(ctx, flatware); err != nil {
		t.Fatal(err)
	}
	if err := rlock.Associate(ctx, text); err != nil {
		t.Fatal(err)
	}

	rh, err := bag.Spawn(ctx, 2, "Associate", nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := rlock.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	flatware.Content().IntsData()[0] = 1
	str.Set("Good Choice")
	if err := rlock.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	select {
	case comment := <-done:
		if comment != "Good Choice" {
			t.Fatalf("remote saw comment %q", comment)
		}
	case <-ctx.Done():
		t.Fatal("remote task never observed the update")
	}
	if _, err := rh.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTypedReplica(t *testing.T) {
	type TableSetting struct {
		Flatware, Plate, Glass int
		Comment                string
	}
	cluster, err := mocha.NewSimCluster(2, mocha.WithEnvironment(mocha.Perfect()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	got := make(chan TableSetting, 1)
	cluster.MustRegister("Viewer", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			tr, err := mocha.AttachTypedReplica[TableSetting](m, "setting")
			if err != nil {
				m.Fail(err)
				return
			}
			rl := m.ReplicaLock(2)
			if err := rl.Associate(context.Background(), tr.Replica()); err != nil {
				m.Fail(err)
				return
			}
			for {
				if err := rl.Lock(context.Background()); err != nil {
					m.Fail(err)
					return
				}
				v := tr.Get()
				if err := rl.Unlock(context.Background()); err != nil {
					m.Fail(err)
					return
				}
				if v.Comment != "" {
					got <- v
					m.ReturnResults()
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	})

	bag := cluster.Home().Bag("main")
	tr, err := mocha.NewTypedReplica(bag, "setting", TableSetting{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rl := bag.ReplicaLock(2)
	if err := rl.Associate(ctx, tr.Replica()); err != nil {
		t.Fatal(err)
	}
	rh, err := bag.Spawn(ctx, 2, "Viewer", nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Update(func(s *TableSetting) {
		s.Flatware, s.Plate, s.Glass = 2, 3, 4
		s.Comment = "lovely"
	})
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	select {
	case v := <-got:
		if v.Flatware != 2 || v.Plate != 3 || v.Glass != 4 || v.Comment != "lovely" {
			t.Fatalf("remote saw %+v", v)
		}
	case <-ctx.Done():
		t.Fatal("remote never saw typed update")
	}
	if _, err := rh.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClusterFaultInjectionAPI(t *testing.T) {
	cluster, err := mocha.NewSimCluster(3,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithLease(200*time.Millisecond),
		mocha.WithLeaseSweep(50*time.Millisecond),
		mocha.WithRequestTimeout(500*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	bagHome := cluster.Home().Bag("home")
	r, err := bagHome.CreateReplica("value", mocha.Ints([]int32{7}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rlHome := bagHome.ReplicaLock(4)
	if err := rlHome.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}

	bag2 := cluster.Site(2).Bag("w2")
	r2, err := bag2.AttachReplica("value", mocha.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl2 := bag2.ReplicaLock(4)
	if err := rl2.Associate(ctx, r2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Site 2 takes the lock and is killed; the home must recover.
	if err := rl2.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.Kill(2)

	if err := rlHome.Lock(ctx); err != nil {
		t.Fatalf("lock never recovered after kill: %v", err)
	}
	if got := r.Content().IntsData()[0]; got != 7 {
		t.Fatalf("value = %d", got)
	}
	if err := rlHome.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if cluster.NetStats().Sent == 0 {
		t.Fatal("no packets counted")
	}
}

func TestSurrogateViaPublicAPI(t *testing.T) {
	cluster, err := mocha.NewSimCluster(3,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithRequestTimeout(400*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	bagHome := cluster.Home().Bag("home")
	r, err := bagHome.CreateReplica("v", mocha.Ints([]int32{1}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rl := bagHome.ReplicaLock(4)
	if err := rl.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}

	bag3 := cluster.Site(3).Bag("w3")
	r3, err := bag3.AttachReplica("v", mocha.Ints(nil))
	if err != nil {
		t.Fatal(err)
	}
	rl3 := bag3.ReplicaLock(4)
	if err := rl3.Associate(ctx, r3); err != nil {
		t.Fatal(err)
	}
	// Push state everywhere so it survives the home's death.
	rl.SetUpdateReplicas(3)
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	r.Content().IntsData()[0] = 9
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// The release's ack precedes its handling at the home: log the state
	// once it has committed, or the surrogate would restore an older
	// version than the one already committed.
	var state mocha.SyncState
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if state, err = cluster.Home().Snapshot(); err != nil {
			t.Fatal(err)
		}
		if state.Locks[4].Version == 2 || time.Now().After(deadline) {
			break
		}
	}
	if _, err := cluster.Site(2).Snapshot(); err == nil {
		t.Fatal("non-home snapshot should fail")
	}
	cluster.Kill(1)
	if err := cluster.Site(2).Node().StartSurrogate(ctx, state); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	if err := rl3.Lock(ctx); err != nil {
		t.Fatalf("lock via surrogate: %v", err)
	}
	if got := r3.Content().IntsData()[0]; got != 9 {
		t.Fatalf("value after failover = %d", got)
	}
	if err := rl3.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHMACClusterOption(t *testing.T) {
	cluster, err := mocha.NewSimCluster(2,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithClusterKey([]byte("shared-secret")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	cluster.MustRegister("Echo", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			s, _ := m.Parameter.GetString("s")
			m.Result.AddString("s", s)
			m.ReturnResults()
		})
	})
	bag := cluster.Home().Bag("main")
	p := mocha.NewParams()
	p.AddString("s", "authentic")
	rh, err := bag.Spawn(ctx, 2, "Echo", p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res.GetString("s"); s != "authentic" {
		t.Fatalf("echo = %q", s)
	}
}

func TestRemotePrintOutput(t *testing.T) {
	var out syncBuffer
	cluster, err := mocha.NewSimCluster(2,
		mocha.WithEnvironment(mocha.Perfect()),
		mocha.WithOutput(&out),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	cluster.MustRegister("Printer", func() mocha.Task {
		return mocha.TaskFunc(func(m *mocha.Mocha) {
			m.MochaPrintln("hello from afar")
			m.ReturnResults()
		})
	})
	bag := cluster.Home().Bag("main")
	rh, err := bag.Spawn(ctx, 2, "Printer", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rh.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "hello from afar") {
		if time.Now().After(deadline) {
			t.Fatalf("console: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTimeScaledWANCluster(t *testing.T) {
	// A calibrated WAN environment scaled down 50x still works end to end
	// and still exhibits nontrivial latency.
	cluster, err := mocha.NewSimCluster(2,
		mocha.WithEnvironment(mocha.WAN()),
		mocha.WithCostModel(mocha.JDK1Cost()),
		mocha.WithJavaCodec(),
		mocha.WithTimeScale(0.02),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	ctx := testCtx(t)

	bag := cluster.Home().Bag("main")
	r, err := bag.CreateReplica("x", mocha.Ints([]int32{0}), 2)
	if err != nil {
		t.Fatal(err)
	}
	rl := bag.ReplicaLock(3)
	if err := rl.Associate(ctx, r); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	start := time.Now()
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := rl.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	// 19ms scaled by 0.02 ~ 0.4ms; anything between 50us and 100ms shows
	// the model is engaged without being full scale.
	if elapsed < 50*time.Microsecond {
		t.Fatalf("scaled WAN lock too fast: %v", elapsed)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("scaled WAN lock too slow: %v", elapsed)
	}
}

// syncBuffer is a goroutine-safe strings.Builder.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
