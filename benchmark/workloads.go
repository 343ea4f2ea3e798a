package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/netsim"
	"mocha/internal/wire"
)

// The load model is the same everywhere: a closed loop, because Mocha's
// callers block in Lock and Unlock, with exactly two client goroutines.
// The simulator runs on the wall clock and busy-polls the last 1.5 ms of
// every injected delay, so more clients than cores would measure the Go
// scheduler rather than Mocha. One operation is Lock (or LockShared),
// check the replica against the shadow, mutate, Unlock.
const (
	clientA = wire.SiteID(2)
	clientB = wire.SiteID(3)

	// steadyWarm runs the measured loop for this long before measuring,
	// after the set-up pass has touched every lock once. It is not part of
	// setup_s: a fixed wait would hide set-up work behind a constant.
	steadyWarm = time.Second
)

// workload is one named set of inputs. Names are fixed: later changes cite
// them.
type workload struct {
	name string
	// delay states the injected network delay, printed with the results.
	delay string
	// tail is the percentile reported as acquire_tail_ms/release_tail_ms,
	// fixed per workload: the highest of p99, p95, p90 and p80 whose
	// spread over ten seeds stayed well under a third of the bound (the
	// measurements are in README.md). composed_wan's acquire latencies
	// have a sparse upper mode (redirects and migrations, a tenth of about
	// 230 samples) that no percentile above p85 sits clear of.
	tail float64
	// spec sizes the deployment; only holder_crash depends on the run
	// length (one fresh victim site per fault cycle).
	spec func(run time.Duration) clusterSpec
	// prepare registers every replica and lock and returns the actors.
	prepare func(ctx context.Context, c *cluster, seed int64, tr *tracer) (*deployment, error)
}

// deployment is a prepared cluster's actors: the closed-loop clients whose
// operations are the end-to-end numbers, and on holder_crash the fault
// driver that runs beside them.
type deployment struct {
	clients []*client
	faults  *faultDriver
}

// rackLocal is local_ctl's link: a 50 us round trip. On a zero-delay link
// every number is processor time only, and on the shared two-core virtual
// machine this runs on processor speed drifts by a quarter over minutes,
// which no bound a regression gate can use would hold. With this delay
// the processor's share of an operation is about a third, so the control
// path's cost still shows and the drift mostly does not.
var rackLocal = netsim.Profile{Name: "rack-local", PropDelay: 25 * time.Microsecond}

var workloads = []*workload{
	{
		name:  "local_ctl",
		delay: "25us one way, no jitter, no bandwidth limit",
		tail:  90,
		spec: func(time.Duration) clusterSpec {
			return clusterSpec{sites: 3, profile: rackLocal}
		},
		prepare: prepareLocalCtl,
	},
	{
		name:  "migratory_lan",
		delay: "150us +-50us one way, 100 Mbit/s (netsim.LANFastEthernet)",
		tail:  95,
		spec: func(time.Duration) clusterSpec {
			return clusterSpec{sites: 3, profile: netsim.LANFastEthernet()}
		},
		prepare: prepareMigratory,
	},
	{
		name:  "composed_wan",
		delay: "in-region 150us, between regions 12-15ms one way, 8 Mbit/s backbone (netsim.RegionalWAN(3).Scaled(0.5))",
		tail:  80,
		spec: func(time.Duration) clusterSpec {
			geo := netsim.RegionalWAN(3).Scaled(0.5)
			return clusterSpec{sites: composedSites, profile: netsim.Perfect(), geo: &geo, composed: true}
		},
		prepare: prepareComposed,
	},
	{
		name:  "holder_crash",
		delay: "150us +-50us one way, 100 Mbit/s (netsim.LANFastEthernet); one site killed per fault cycle",
		tail:  99,
		spec: func(run time.Duration) clusterSpec {
			return clusterSpec{
				sites:       3 + faultCycles(run),
				profile:     netsim.LANFastEthernet(),
				leaseSweep:  50 * time.Millisecond,
				reqTimeout:  500 * time.Millisecond,
				xferTimeout: 500 * time.Millisecond,
				rto:         50 * time.Millisecond,
				maxRetries:  4,
			}
		},
		prepare: prepareHolderCrash,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shadow is the correctness oracle's copy of the last bytes published
// under one lock. Entry consistency itself guards it: it is written only
// under an exclusive hold and read only under a hold.
type shadow struct{ data []byte }

// lockRef is one site's view of one lock and the replica it guards.
type lockRef struct {
	rl   *core.ReplicaLock
	repl *core.Replica
	sh   *shadow
}

// register creates (or attaches to) the replica guarded by lock id at the
// handle's site and registers the site with the lock's manager.
func register(ctx context.Context, h *core.Handle, id wire.LockID, sh *shadow, create bool, ur int) (lockRef, error) {
	name := fmt.Sprintf("replica-%d", id)
	var (
		r   *core.Replica
		err error
	)
	if create {
		r, err = h.Node().CreateReplica(name, marshal.Bytes(make([]byte, len(sh.data))), 1)
	} else {
		r, err = h.Node().AttachReplica(name, marshal.Bytes(nil))
	}
	if err != nil {
		return lockRef{}, err
	}
	rl := h.ReplicaLock(id)
	if err := rl.Associate(ctx, r); err != nil {
		return lockRef{}, err
	}
	rl.SetUpdateReplicas(ur)
	return lockRef{rl: rl, repl: r, sh: sh}, nil
}

// registerAll registers ids at one site, in order.
func registerAll(ctx context.Context, h *core.Handle, ids []wire.LockID, shadows map[wire.LockID]*shadow, creator wire.SiteID, ur int) ([]lockRef, error) {
	refs := make([]lockRef, 0, len(ids))
	for _, id := range ids {
		ref, err := register(ctx, h, id, shadows[id], h.Node().Site() == creator, ur)
		if err != nil {
			return nil, fmt.Errorf("site %d lock %d: %w", h.Node().Site(), id, err)
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// parallelSites runs f once per site concurrently: registration is one
// round trip per lock, and sites do not wait for each other.
func parallelSites(sites []wire.SiteID, f func(site wire.SiteID) error) error {
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for i, site := range sites {
		wg.Add(1)
		go func(i int, site wire.SiteID) {
			defer wg.Done()
			errs[i] = f(site)
		}(i, site)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func lockRange(first, n int) []wire.LockID {
	ids := make([]wire.LockID, n)
	for i := range ids {
		ids[i] = wire.LockID(first + i)
	}
	return ids
}

// sequence is 0, 1, ..., n-1.
func sequence(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func newShadows(ids []wire.LockID, size int) map[wire.LockID]*shadow {
	m := make(map[wire.LockID]*shadow, len(ids))
	for _, id := range ids {
		m[id] = &shadow{data: make([]byte, size)}
	}
	return m
}

// client is one closed-loop application thread.
type client struct {
	site  wire.SiteID
	locks []lockRef
	// order is the cyclic visiting order; nil picks locks at random.
	order []int
	pos   int
	rng   *rand.Rand
	// write is the scratch buffer for one mutation; its length is the
	// write size. readShare is the fraction of LockShared operations.
	write     []byte
	readShare float64
	tr        *tracer
}

func newClient(site wire.SiteID, locks []lockRef, seed int64, writeLen int, tr *tracer) *client {
	return &client{
		site:  site,
		locks: locks,
		rng:   rand.New(rand.NewSource(seed*7919 + int64(site))),
		write: make([]byte, writeLen),
		tr:    tr,
	}
}

func (cl *client) cycle(order []int, start int) {
	cl.order = order
	cl.pos = start
}

func (cl *client) pick() lockRef {
	if cl.order == nil {
		return cl.locks[cl.rng.Intn(len(cl.locks))]
	}
	lr := cl.locks[cl.order[cl.pos%len(cl.order)]]
	cl.pos++
	return lr
}

// touchAll is the set-up warm-up: one operation on every lock, so every
// replica has arrived and every route is learned before measuring.
func (cl *client) touchAll(ctx context.Context, out *samples) {
	for _, lr := range cl.locks {
		cl.opOn(ctx, lr, false, out)
	}
}

// run drives operations until the deadline.
func (cl *client) run(ctx context.Context, until time.Time, out *samples) {
	start := time.Now()
	for time.Now().Before(until) && ctx.Err() == nil {
		lr := cl.pick()
		shared := cl.readShare > 0 && cl.rng.Float64() < cl.readShare
		cl.opOn(ctx, lr, shared, out)
	}
	out.wall = time.Since(start)
}

// opOn is one operation. acquire is the time inside Lock or LockShared,
// release the time inside Unlock of an exclusive hold, both by the harness
// clock around the call.
func (cl *client) opOn(ctx context.Context, lr lockRef, shared bool, out *samples) {
	out.attempted++
	t0 := time.Now()
	var err error
	if shared {
		err = lr.rl.LockShared(ctx)
	} else {
		err = lr.rl.Lock(ctx)
	}
	t1 := time.Now()
	if err != nil {
		out.fail(fmt.Errorf("site %d lock %d: %w", cl.site, lr.rl.ID(), err))
		return
	}
	acqV := lr.rl.Version()
	fresh := mutate(lr, shared, cl.write, cl.rng)
	t2 := time.Now()
	err = lr.rl.Unlock(ctx)
	t3 := time.Now()
	switch {
	case err != nil:
		out.fail(fmt.Errorf("site %d unlock %d: %w", cl.site, lr.rl.ID(), err))
	case !fresh:
		out.fail(fmt.Errorf("site %d lock %d v%d: replica differs from the last bytes published", cl.site, lr.rl.ID(), acqV))
	default:
		out.acquire = append(out.acquire, t1.Sub(t0))
		if !shared {
			// A shared release publishes nothing; counted with the
			// exclusive ones it would only put a near-zero fifth under
			// composed_wan's release percentiles.
			out.release = append(out.release, t3.Sub(t2))
		}
		out.inside += t1.Sub(t0) + t3.Sub(t2)
	}
	if cl.tr != nil {
		cl.tr.opSpans(cl.site, lr.rl.ID(), acqV, lr.rl.Version(), t0, t1, t2, t3)
	}
}

// mutate runs under a hold: it checks the replica against the shadow and,
// under an exclusive hold, overwrites len(write) bytes at a seeded offset
// and republishes the shadow. It reports whether the replica was fresh.
func mutate(lr lockRef, shared bool, write []byte, rng *rand.Rand) bool {
	content := lr.repl.Content()
	data := content.BytesData()
	fresh := bytes.Equal(data, lr.sh.data)
	if shared || len(data) != len(lr.sh.data) {
		return fresh
	}
	for i := 0; i+8 <= len(write); i += 8 {
		binary.LittleEndian.PutUint64(write[i:], rng.Uint64())
	}
	off := 0
	if span := len(data) - len(write); span > 0 {
		off = rng.Intn(span + 1)
	}
	// The tracked mutator, so delta transfer sees exact write boundaries.
	if err := content.WriteBytesAt(off, write); err != nil {
		return false
	}
	copy(lr.sh.data, content.BytesData())
	return fresh
}

// ---- local_ctl ---------------------------------------------------------

// prepareLocalCtl gives each client its own 512 locks on its own site:
// no transfers and no pushes, so wire, mnet, the transport send path and
// the sync shard do all the work there is and marshal, transfer, store,
// overlay and placement do none.
func prepareLocalCtl(ctx context.Context, c *cluster, seed int64, tr *tracer) (*deployment, error) {
	const perClient, size, writeLen = 512, 64, 16
	d := &deployment{}
	for i, site := range []wire.SiteID{clientA, clientB} {
		ids := lockRange(1+i*perClient, perClient)
		refs, err := registerAll(ctx, c.nodes[site].NewHandle("client"), ids, newShadows(ids, size), site, 1)
		if err != nil {
			return nil, err
		}
		cl := newClient(site, refs, seed, writeLen, tr)
		cl.cycle(sequence(perClient), 0)
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// ---- migratory_lan -----------------------------------------------------

// prepareMigratory has both clients walk the same 16 locks in the same
// seeded order, half a cycle apart, rewriting the whole 4 KiB replica:
// every lock alternates between the two sites, so almost every acquire
// needs the other site's version and the transfer path carries the load.
func prepareMigratory(ctx context.Context, c *cluster, seed int64, tr *tracer) (*deployment, error) {
	const locks, size = 16, 4096
	ids := lockRange(1, locks)
	shadows := newShadows(ids, size)
	order := rand.New(rand.NewSource(seed)).Perm(locks)
	d := &deployment{}
	for i, site := range []wire.SiteID{clientA, clientB} {
		refs, err := registerAll(ctx, c.nodes[site].NewHandle("client"), ids, shadows, clientA, 1)
		if err != nil {
			return nil, err
		}
		cl := newClient(site, refs, seed, size, tr)
		cl.cycle(order, i*locks/2)
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// ---- composed_wan ------------------------------------------------------

const composedSites = 12

// prepareComposed shares 16 locks among all 12 sites with UR = 12, so
// every exclusive release pushes to every sharer: small deltas, relay
// pushes, ring-resolved mobile homes, the write-behind log, and reads
// beside writes, all at once. The clients sit in different regions.
func prepareComposed(ctx context.Context, c *cluster, seed int64, tr *tracer) (*deployment, error) {
	const locks, size, writeLen = 16, 4096, 64
	ids := lockRange(1, locks)
	shadows := newShadows(ids, size)
	sites := make([]wire.SiteID, 0, composedSites)
	for site := range c.nodes {
		sites = append(sites, site)
	}
	var mu sync.Mutex
	refsBySite := make(map[wire.SiteID][]lockRef, 2)
	err := parallelSites(sites, func(site wire.SiteID) error {
		refs, err := registerAll(ctx, c.nodes[site].NewHandle("client"), ids, shadows, clientA, composedSites)
		mu.Lock()
		refsBySite[site] = refs
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	// The relay overlay learns round-trip times from the obs span ring,
	// which the untraced pass turns off. The harness plays the probe phase
	// instead, in both passes: each client's tracker is told the
	// geography's nominal round trip to every peer.
	geo := netsim.RegionalWAN(3).Scaled(0.5)
	d := &deployment{}
	for _, site := range []wire.SiteID{clientA, clientB} {
		tracker := c.nodes[site].OverlayTracker()
		for _, peer := range sites {
			if peer != site {
				tracker.Observe(peer, 2*geo.LinkProfile(netsim.NodeID(site), netsim.NodeID(peer)).PropDelay)
			}
		}
		cl := newClient(site, refsBySite[site], seed, writeLen, tr)
		cl.readShare = 0.2
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// ---- holder_crash ------------------------------------------------------

const (
	// faultPeriod paces client B: one fault cycle starts every period.
	faultPeriod = 600 * time.Millisecond
	// victimLease is the hold estimate a victim declares; the manager
	// breaks the lock that long after the grant.
	victimLease = 400 * time.Millisecond
	// recoveryDeadline fails a recovery that takes this long: twice the
	// slowest detection timer plus slack.
	recoveryDeadline = 2 * time.Second
)

// faultCycles is how many victim sites a run (warm-up included) of the
// given length needs.
func faultCycles(run time.Duration) int {
	return int(run/faultPeriod) + 2
}

// prepareHolderCrash sets up client A's background traffic (1 KiB, UR = 2,
// 32 locks no victim touches) and one lock per fault cycle shared by
// client B, the home and that cycle's victim.
func prepareHolderCrash(ctx context.Context, c *cluster, seed int64, tr *tracer) (*deployment, error) {
	const bgLocks, size = 32, 1024
	home := c.nodes[wire.HomeSite].NewHandle("home")

	bgIDs := lockRange(1, bgLocks)
	bgShadows := newShadows(bgIDs, size)
	bgRefs, err := registerAll(ctx, c.nodes[clientA].NewHandle("client"), bgIDs, bgShadows, clientA, 2)
	if err != nil {
		return nil, err
	}
	if _, err := registerAll(ctx, home, bgIDs, bgShadows, clientA, 2); err != nil {
		return nil, err
	}
	a := newClient(clientA, bgRefs, seed, size, tr)
	a.cycle(sequence(bgLocks), 0)

	fd := &faultDriver{c: c, rng: rand.New(rand.NewSource(seed)), write: make([]byte, size)}
	bHandle := c.nodes[clientB].NewHandle("client")
	n := len(c.nodes) - 3
	fd.cycles = make([]faultCycle, n)
	victims := make([]wire.SiteID, n)
	for i := range victims {
		victims[i] = wire.SiteID(4 + i)
		id := wire.LockID(1000 + i)
		sh := &shadow{data: make([]byte, size)}
		// B creates; the home attaches so a release with UR = 2 has a push
		// target that is not B.
		bRef, err := register(ctx, bHandle, id, sh, true, 2)
		if err != nil {
			return nil, err
		}
		if _, err := register(ctx, home, id, sh, false, 2); err != nil {
			return nil, err
		}
		fd.cycles[i] = faultCycle{victim: victims[i], b: bRef, sourceCrash: i%2 == 1}
	}
	err = parallelSites(victims, func(site wire.SiteID) error {
		i := int(site) - 4
		h := c.nodes[site].NewHandle("victim")
		h.SetLease(victimLease)
		ref, err := register(ctx, h, wire.LockID(1000+i), fd.cycles[i].b.sh, false, 2)
		fd.cycles[i].v = ref
		return err
	})
	if err != nil {
		return nil, err
	}
	return &deployment{clients: []*client{a}, faults: fd}, nil
}

// faultCycle is one victim's prepared lock views.
type faultCycle struct {
	victim wire.SiteID
	b, v   lockRef
	// sourceCrash selects cycle (b): the victim releases before it dies.
	// Otherwise cycle (a): it dies holding the lock.
	sourceCrash bool
}

// faultDriver is client B on holder_crash: it spends one fresh victim site
// per cycle, alternating the paper's two Section 4 faults.
type faultDriver struct {
	c      *cluster
	cycles []faultCycle
	next   int
	rng    *rand.Rand
	write  []byte
}

// run starts one cycle per faultPeriod for as long as a whole cycle fits
// before the deadline.
func (fd *faultDriver) run(ctx context.Context, until time.Time, out *samples) {
	start := time.Now()
	for time.Until(until) >= faultPeriod && fd.next < len(fd.cycles) && ctx.Err() == nil {
		began := time.Now()
		fd.cycle(ctx, &fd.cycles[fd.next], out)
		fd.next++
		time.Sleep(faultPeriod - time.Since(began))
	}
	out.wall = time.Since(start)
}

// cycle runs one fault. B publishes a value; the victim takes the lock
// and either (a) scribbles and dies holding it, so B's next Lock waits for
// the lease to break and must read B's own last published bytes, or (b)
// writes, releases with UR = 2 (the push goes to the home, not B) and
// dies, so B's next Lock waits for the transfer directive to the dead
// source to fail and must read the victim's released bytes from the push
// target. B's Lock is timed from the kill to the grant.
func (fd *faultDriver) cycle(ctx context.Context, cy *faultCycle, out *samples) {
	// step is one exclusive hold: check against the shadow, write, and
	// either release (publishing the write) or keep holding (the shadow
	// stays at the last released bytes). It returns when Lock returned.
	step := func(name string, lr lockRef, release bool) (time.Time, bool) {
		out.attempted++
		if err := lr.rl.Lock(ctx); err != nil {
			out.fail(fmt.Errorf("fault cycle lock %d, %s: %w", lr.rl.ID(), name, err))
			return time.Time{}, false
		}
		locked := time.Now()
		published := append([]byte(nil), lr.sh.data...)
		fresh := mutate(lr, false, fd.write, fd.rng)
		if !release {
			copy(lr.sh.data, published)
		} else if err := lr.rl.Unlock(ctx); err != nil {
			out.fail(fmt.Errorf("fault cycle lock %d, %s unlock: %w", lr.rl.ID(), name, err))
			return locked, false
		}
		if !fresh {
			out.fail(fmt.Errorf("fault cycle lock %d, %s: replica differs from the last bytes published", lr.rl.ID(), name))
		}
		return locked, fresh
	}
	if _, ok := step("publish", cy.b, true); !ok {
		return
	}
	if _, ok := step("victim", cy.v, cy.sourceCrash); !ok {
		return
	}
	fd.c.kill(cy.victim)
	killed := time.Now()
	granted, ok := step("recover", cy.b, true)
	if !ok {
		return
	}
	took := granted.Sub(killed)
	if took > recoveryDeadline {
		out.fail(fmt.Errorf("fault cycle lock %d: recovery took %v, over %v", cy.b.rl.ID(), took, recoveryDeadline))
		return
	}
	if cy.sourceCrash {
		out.refetch = append(out.refetch, took)
	} else {
		out.recovery = append(out.recovery, took)
	}
}
