package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// syncWriter collects home-console output.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// testDeployment is an in-process cluster with runtimes on every site.
type testDeployment struct {
	runtimes map[wire.SiteID]*Runtime
	out      *syncWriter
}

// newDeployment builds n sites sharing one registry and repo.
func newDeployment(t *testing.T, n int, reg *Registry, repo *CodeRepository, maxServers int) *testDeployment {
	t.Helper()
	seed := netsim.SeedFromEnv(23)
	t.Logf("network seed %d (set %s to replay)", seed, netsim.SeedEnv)
	sn := transport.NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: seed})
	t.Cleanup(func() { _ = sn.Close() })

	nodes, err := core.StartSimSites(sn, n, func(s *core.SimSite) {
		s.MNet = mnet.Config{RTO: 25 * time.Millisecond, MaxRetries: 4}
		s.RequestTimeout = 2 * time.Second
		s.Log = eventlog.New(4096)
	})
	if err != nil {
		t.Fatal(err)
	}

	d := &testDeployment{runtimes: make(map[wire.SiteID]*Runtime), out: &syncWriter{}}
	for site, node := range nodes {
		t.Cleanup(func() { _ = node.Close() })
		rt, err := New(node, Config{
			Registry:        reg,
			Repo:            repo,
			MaxServers:      maxServers,
			Output:          d.out,
			TaskPermissions: AllPermissions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.runtimes[site] = rt
	}
	return d
}

func TestSpawnHello(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Myhello", func() Task {
		return TaskFunc(func(m *Mocha) {
			start, err := m.Parameter.GetDouble("start")
			if err != nil {
				m.MochaPrintStackTrace(err)
				m.Fail(err)
				return
			}
			sum := start + 1
			m.MochaPrintln(fmt.Sprintf("Returning as a return value %v", sum))
			m.Result.AddDouble("returnvalue", sum)
			m.ReturnResults()
		})
	})
	repo := NewCodeRepository()
	repo.Add("Myhello", []byte("class Myhello bytecode"))
	d := newDeployment(t, 3, reg, repo, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	p := NewParams()
	p.AddDouble("start", 41)
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Myhello", p)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	got, err := res.GetDouble("returnvalue")
	if err != nil || got != 42 {
		t.Fatalf("returnvalue = %v (%v), want 42", got, err)
	}
	// Remote println must have reached the home console.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(d.out.String(), "Returning as a return value 42") {
		if time.Now().After(deadline) {
			t.Fatalf("remote print missing; console: %q", d.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSpawnUnknownClass(t *testing.T) {
	d := newDeployment(t, 2, NewRegistry(), NewCodeRepository(), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := d.runtimes[1].Spawn(ctx, 2, "Nonesuch", nil)
	if !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v, want ErrUnknownClass", err)
	}
}

func TestSpawnAnySkipsFullSites(t *testing.T) {
	release := make(chan struct{})
	reg := NewRegistry()
	reg.MustRegister("Blocker", func() Task {
		return TaskFunc(func(m *Mocha) {
			<-release
			m.ReturnResults()
		})
	})
	reg.MustRegister("Quick", func() Task {
		return TaskFunc(func(m *Mocha) {
			m.Result.AddInt("site", int64(m.Site()))
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 3, reg, NewCodeRepository(), 1)
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Fill site 2's only server.
	if _, err := d.runtimes[1].Spawn(ctx, 2, "Blocker", nil); err != nil {
		t.Fatal(err)
	}
	// Give the blocker a moment to occupy its slot.
	time.Sleep(50 * time.Millisecond)

	rh, err := d.runtimes[1].SpawnAny(ctx, "Quick", nil)
	if err != nil {
		t.Fatalf("SpawnAny: %v", err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	site, _ := res.GetInt("site")
	if site != 3 {
		t.Fatalf("task ran at site %d, want 3 (site 2 was full)", site)
	}
}

func TestSpawnDirectToFullSite(t *testing.T) {
	release := make(chan struct{})
	reg := NewRegistry()
	reg.MustRegister("Blocker", func() Task {
		return TaskFunc(func(m *Mocha) {
			<-release
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 2, reg, NewCodeRepository(), 1)
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := d.runtimes[1].Spawn(ctx, 2, "Blocker", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	_, err := d.runtimes[1].Spawn(ctx, 2, "Blocker", nil)
	if !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestPanicBecomesErrorAndStackDump(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Crasher", func() Task {
		return TaskFunc(func(m *Mocha) {
			panic("deliberate test panic")
		})
	})
	d := newDeployment(t, 2, reg, NewCodeRepository(), 4)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Crasher", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rh.Wait(ctx); err == nil || !strings.Contains(err.Error(), "deliberate test panic") {
		t.Fatalf("wait err = %v, want panic text", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(d.out.String(), "stack dump") {
		if time.Now().After(deadline) {
			t.Fatal("stack dump never reached home console")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRecursiveSpawn(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Leaf", func() Task {
		return TaskFunc(func(m *Mocha) {
			m.Result.AddInt("v", 7)
			m.ReturnResults()
		})
	})
	reg.MustRegister("Parent", func() Task {
		return TaskFunc(func(m *Mocha) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rh, err := m.Spawn(ctx, 3, "Leaf", nil)
			if err != nil {
				m.Fail(err)
				return
			}
			res, err := rh.Wait(ctx)
			if err != nil {
				m.Fail(err)
				return
			}
			v, _ := res.GetInt("v")
			m.Result.AddInt("forwarded", v+1)
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 3, reg, NewCodeRepository(), 4)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Parent", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.GetInt("forwarded"); v != 8 {
		t.Fatalf("forwarded = %d, want 8", v)
	}
}

func TestDemandPullAndCache(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Loader", func() Task {
		return TaskFunc(func(m *Mocha) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// First pull goes to the home repository.
			code, err := m.LoadClass(ctx, "Helper")
			if err != nil {
				m.Fail(err)
				return
			}
			// Second pull must come from the local cache.
			code2, err := m.LoadClass(ctx, "Helper")
			if err != nil {
				m.Fail(err)
				return
			}
			m.Result.AddBytes("code", code)
			m.Result.AddBool("same", string(code) == string(code2))
			m.ReturnResults()
		})
	})
	repo := NewCodeRepository()
	repo.Add("Helper", []byte("helper bytecode v1"))
	d := newDeployment(t, 2, reg, repo, 4)
	// Only the home runtime should own the repository in a real
	// deployment; the shared repo here still exercises the wire path
	// because LoadClass at site 2 checks its cache, then its local repo —
	// so make site 2's repo empty.
	d.runtimes[2].cfg.Repo = NewCodeRepository()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Loader", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := res.GetBytes("code")
	if string(code) != "helper bytecode v1" {
		t.Fatalf("pulled code = %q", code)
	}
	if same, _ := res.GetBool("same"); !same {
		t.Fatal("cache returned different bytes")
	}
	if d.runtimes[2].Node().Log().CountCategory("runtime") == 0 {
		t.Fatal("no runtime events logged")
	}
}

func TestLoadClassMissing(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Loader", func() Task {
		return TaskFunc(func(m *Mocha) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := m.LoadClass(ctx, "Ghost")
			if err == nil {
				m.Fail(errors.New("ghost class loaded"))
				return
			}
			m.Result.AddBool("failed", true)
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 2, reg, NewCodeRepository(), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Loader", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := res.GetBool("failed"); !failed {
		t.Fatal("expected missing-class failure")
	}
}

func TestPermissionsEnforced(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Restricted", func() Task {
		return TaskFunc(func(m *Mocha) {
			ctx := context.Background()
			if _, err := m.Spawn(ctx, 1, "Restricted", nil); !errors.Is(err, ErrPermission) {
				m.Fail(fmt.Errorf("spawn allowed: %v", err))
				return
			}
			if _, err := m.CreateReplica("x", marshal.Ints(nil), 1); !errors.Is(err, ErrPermission) {
				m.Fail(fmt.Errorf("replica allowed: %v", err))
				return
			}
			if _, err := m.LoadClass(ctx, "y"); !errors.Is(err, ErrPermission) {
				m.Fail(fmt.Errorf("code load allowed: %v", err))
				return
			}
			m.Result.AddBool("sandboxed", true)
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 2, reg, NewCodeRepository(), 4)
	d.runtimes[2].cfg.TaskPermissions = Permissions{} // deny everything

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Restricted", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := res.GetBool("sandboxed"); !ok {
		t.Fatal("permissions not enforced")
	}
}

func TestTasksShareReplicasAcrossSites(t *testing.T) {
	// End-to-end: spawned tasks cooperate through the shared-object layer.
	reg := NewRegistry()
	reg.MustRegister("Adder", func() Task {
		return TaskFunc(func(m *Mocha) {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			r, err := m.AttachReplica("acc", marshal.Ints(nil))
			if err != nil {
				m.Fail(err)
				return
			}
			rl := m.ReplicaLock(40)
			if err := rl.Associate(ctx, r); err != nil {
				m.Fail(err)
				return
			}
			n, _ := m.Parameter.GetInt("n")
			for i := int64(0); i < n; i++ {
				if err := rl.Lock(ctx); err != nil {
					m.Fail(err)
					return
				}
				r.Content().IntsData()[0]++
				if err := rl.Unlock(ctx); err != nil {
					m.Fail(err)
					return
				}
			}
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 3, reg, NewCodeRepository(), 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	home := d.runtimes[1].LocalBag("main")
	acc, err := home.CreateReplica("acc", marshal.Ints([]int32{0}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rl := home.ReplicaLock(40)
	if err := rl.Associate(ctx, acc); err != nil {
		t.Fatal(err)
	}

	p := NewParams()
	p.AddInt("n", 5)
	var handles []*ResultHandle
	for _, site := range []wire.SiteID{2, 3} {
		rh, err := d.runtimes[1].Spawn(ctx, site, "Adder", p)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, rh)
	}
	for _, rh := range handles {
		if _, err := rh.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := rl.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rl.Unlock(ctx) }()
	if got := acc.Content().IntsData()[0]; got != 10 {
		t.Fatalf("accumulator = %d, want 10", got)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	p := NewParams()
	p.AddInt("i", -5)
	p.AddDouble("d", 3.5)
	p.AddString("s", "hello")
	p.AddBytes("b", []byte{1, 2, 3})
	p.AddBool("t", true)
	p.AddBool("f", false)

	q, err := DecodeParams(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := q.GetInt("i"); err != nil || v != -5 {
		t.Fatalf("i = %d, %v", v, err)
	}
	if v, err := q.GetDouble("d"); err != nil || v != 3.5 {
		t.Fatalf("d = %v, %v", v, err)
	}
	if v, err := q.GetString("s"); err != nil || v != "hello" {
		t.Fatalf("s = %q, %v", v, err)
	}
	if v, err := q.GetBytes("b"); err != nil || len(v) != 3 || v[2] != 3 {
		t.Fatalf("b = %v, %v", v, err)
	}
	if v, err := q.GetBool("t"); err != nil || !v {
		t.Fatalf("t = %v, %v", v, err)
	}
	if v, err := q.GetBool("f"); err != nil || v {
		t.Fatalf("f = %v, %v", v, err)
	}
	if got := q.Keys(); len(got) != 6 || got[0] != "b" {
		t.Fatalf("keys = %v", got)
	}
	if q.Len() != 6 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestParamsErrors(t *testing.T) {
	p := NewParams()
	p.AddInt("i", 1)
	var noParam *ErrNoParam
	if _, err := p.GetInt("missing"); !errors.As(err, &noParam) {
		t.Fatalf("missing key err = %v", err)
	}
	var badType *ErrParamType
	if _, err := p.GetDouble("i"); !errors.As(err, &badType) {
		t.Fatalf("wrong type err = %v", err)
	}
	if _, err := DecodeParams([]byte{0, 1, 0, 1, 'x', 99}); err == nil {
		t.Fatal("bad kind decoded")
	}
	if p2, err := DecodeParams(nil); err != nil || p2.Len() != 0 {
		t.Fatalf("empty decode: %v %d", err, p2.Len())
	}
}

func TestRegistryDuplicate(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("A", func() Task { return TaskFunc(func(*Mocha) {}) }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("A", func() Task { return TaskFunc(func(*Mocha) {}) }); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if err := reg.Register("", nil); err == nil {
		t.Fatal("empty registration allowed")
	}
	if _, ok := reg.New("B"); ok {
		t.Fatal("phantom class instantiated")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("names = %v", got)
	}
}

func TestSiteManagerLimits(t *testing.T) {
	m := NewSiteManager(2)
	if !m.Acquire() || !m.Acquire() {
		t.Fatal("slots unavailable")
	}
	if m.Acquire() {
		t.Fatal("over-allocated")
	}
	if m.Running() != 2 {
		t.Fatalf("running = %d", m.Running())
	}
	m.Release()
	if !m.Acquire() {
		t.Fatal("slot not released")
	}
	if m.TotalStarted() != 3 {
		t.Fatalf("total = %d", m.TotalStarted())
	}
}

func TestEventForwarding(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("Noisy", func() Task {
		return TaskFunc(func(m *Mocha) {
			m.Node().Log().Logf("app", "noisy task ran at site %d", m.Site())
			m.ReturnResults()
		})
	})
	d := newDeployment(t, 2, reg, NewCodeRepository(), 4)
	// Rebuild site 2's forwarding by enabling the option after the fact:
	// the deployment helper does not set ForwardEvents, so install it the
	// way New would.
	d.runtimes[2].cfg.ForwardEvents = true
	d.runtimes[2].startEventForwarder()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rh, err := d.runtimes[1].Spawn(ctx, 2, "Noisy", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rh.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for d.runtimes[1].Node().Log().CountCategory("remote-app") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forwarded event never reached the home collector")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJoinMembership(t *testing.T) {
	d := newDeployment(t, 3, NewRegistry(), NewCodeRepository(), 4)
	deadline := time.Now().Add(10 * time.Second)
	for {
		members := d.runtimes[1].Members()
		if len(members) == 2 && members[2] != "" && members[3] != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("members = %v, want sites 2 and 3", members)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Non-home runtimes track no members.
	if got := d.runtimes[2].Members(); len(got) != 0 {
		t.Fatalf("worker tracks members: %v", got)
	}
}
