package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"mocha/internal/check"
	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/stats"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// The durable-store ablation measures what the write-ahead log buys at a
// site restart. In the paper's library a site manager keeps every replica
// in its address space, so a crash loses them all and recovery refetches
// each lock's data from surviving sites (Section 4). The durable leg
// restarts the same site on its log-structured store: the WAL replays, the
// site re-joins the protocol at its persisted versions, and the probe
// acquisitions come back VERSIONOK with zero replica transfers. The
// in-memory leg is the paper's baseline: the restarted site recovers
// nothing and refetches every lock. A third leg runs the durable store
// under a memory cap below the working set: cold records are evicted to
// the log and transparently refaulted on access. Every leg streams its
// history through the online entry-consistency monitor and replays it
// through the offline checker, and fencing tokens must strictly increase
// per lock across the restart — recovery that resurrects stale state or
// rewinds a fence cannot pass.

// storeParams is the shape of one store-ablation run.
type storeParams struct {
	sites   int // cluster size; site 1 is home, site 2 the restarted victim
	locks   int // lock population, all exercised from the victim
	payload int // replica payload bytes per lock
}

// storeParams fills defaults: 3 sites, 6 locks, 4KB payloads.
func (c Config) storeParams() storeParams {
	sp := storeParams{sites: c.StoreSites, locks: c.StoreLocks, payload: 4096}
	if sp.sites < 3 {
		sp.sites = 3
	}
	if sp.locks < 1 {
		sp.locks = 6
	}
	return sp
}

// storeVictim is the site that is killed and restarted: a worker, not the
// home, so the lock namespace stays managed throughout.
const storeVictim = wire.SiteID(2)

// Messaging pacing for the restart legs. GapTimeout matters here: the
// surviving sites' senders keep their sequence numbering toward the
// restarted site, whose fresh receiver state would otherwise wait forever
// for sequence zero; the gap release un-sticks delivery within one timeout.
const (
	storeReqTimeout = 2 * time.Second
	storeGapTimeout = 250 * time.Millisecond
)

// creatorSettle separates the creators' registrations from the workers'
// first acquires. Associate returns on the transport ack, before the
// synchronization thread has processed the registration, and a worker that
// registers and acquires first is granted version 0 of a lock that has no
// content yet.
const creatorSettle = 200 * time.Millisecond

// stampFirstByte writes b into the first byte of the held lock's payload.
func stampFirstByte(rl *core.ReplicaLock, b byte) error {
	data := rl.Replicas()[0].Content().BytesData()
	if len(data) == 0 {
		return fmt.Errorf("lock %d granted at v%d with empty content: the acquire outran the creator's registration",
			rl.ID(), rl.Version())
	}
	data[0] = b
	return nil
}

// storeLegResult is one restart leg's measurement.
type storeLegResult struct {
	locks      int
	preRecords int   // store records at the victim before the kill
	recovered  int   // records replayed from the WAL at restart
	refetch    int   // post-restart fresh grants flagged NeedNewVersion
	transfers  int64 // replica transfers spent re-arming the victim
	appends    uint64
	fsyncs     uint64
	fenceMax   uint64
	histEvents int
}

// memCapResult is the eviction leg's measurement.
type memCapResult struct {
	locks     int
	memLimit  int
	records   int
	cached    int
	evictions uint64
	refaults  uint64
}

// AblateStore kills and restarts a worker site under both store backends
// and reports what each recovers, then runs the durable store under a
// memory cap below the working set.
func AblateStore(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	sp := cfg.storeParams()

	durable, err := storeLeg(cfg, sp, true)
	if err != nil {
		return Result{}, fmt.Errorf("store durable leg: %w", err)
	}
	mem, err := storeLeg(cfg, sp, false)
	if err != nil {
		return Result{}, fmt.Errorf("store in-memory leg: %w", err)
	}
	capped, err := storeMemCapLeg(cfg, sp)
	if err != nil {
		return Result{}, fmt.Errorf("store memory-cap leg: %w", err)
	}

	table := stats.NewTable("leg", "locks", "recovered at restart", "refetch grants", "transfers after restart")
	table.AddRow("in-memory store (paper)",
		fmt.Sprintf("%d", mem.locks), fmt.Sprintf("%d", mem.recovered),
		fmt.Sprintf("%d", mem.refetch), fmt.Sprintf("%d", mem.transfers))
	table.AddRow("durable store (WAL replay)",
		fmt.Sprintf("%d", durable.locks), fmt.Sprintf("%d", durable.recovered),
		fmt.Sprintf("%d", durable.refetch), fmt.Sprintf("%d", durable.transfers))

	metrics := map[string]float64{
		"sites":                     float64(sp.sites),
		"locks":                     float64(sp.locks),
		"payload_bytes":             float64(sp.payload),
		"durable_recovered":         float64(durable.recovered),
		"durable_refetch_grants":    float64(durable.refetch),
		"durable_transfers_restart": float64(durable.transfers),
		"durable_wal_appends":       float64(durable.appends),
		"durable_wal_fsyncs":        float64(durable.fsyncs),
		"memory_recovered":          float64(mem.recovered),
		"memory_refetch_grants":     float64(mem.refetch),
		"memory_transfers_restart":  float64(mem.transfers),
		"memcap_limit_bytes":        float64(capped.memLimit),
		"memcap_records":            float64(capped.records),
		"memcap_cached_bytes":       float64(capped.cached),
		"memcap_evictions":          float64(capped.evictions),
		"memcap_refaults":           float64(capped.refaults),
		"fence_max_token":           float64(durable.fenceMax),
	}

	notes := []string{
		fmt.Sprintf("%d sites, %d locks of %dB; each restart leg kills the worker site after it owns every lock's latest version",
			sp.sites, sp.locks, sp.payload),
		fmt.Sprintf("in-memory: restarted site recovered %d records, refetched %d locks over %d transfers",
			mem.recovered, mem.refetch, mem.transfers),
		fmt.Sprintf("durable: restarted site recovered %d/%d records from the WAL and re-joined with %d transfers",
			durable.recovered, durable.preRecords, durable.transfers),
		fmt.Sprintf("memory cap %dB under a %dB working set: %d evictions, %d refaults, workload completed",
			capped.memLimit, sp.locks*sp.payload, capped.evictions, capped.refaults),
		"entry-consistency monitor and history checker passed on both restart legs; fencing tokens strictly increased per lock",
	}

	return Result{
		ID:      "ablate-store",
		Title:   "Ablation: durable replica store — crash recovery vs in-memory",
		Paper:   "the paper's site manager keeps replicas in memory and refetches everything after a crash (Section 4); this ablation measures what a write-ahead log recovers at restart",
		Table:   table.String(),
		Notes:   notes,
		Metrics: metrics,
	}, nil
}

// storeLeg builds a cluster, exercises every lock from the victim site so
// it owns the latest versions, kills and restarts the victim, and measures
// what the restarted site recovers locally versus refetches. durable backs
// the victim with the file store; false is the paper's in-memory baseline.
func storeLeg(cfg Config, sp storeParams, durable bool) (storeLegResult, error) {
	var res storeLegResult
	res.locks = sp.locks

	var dir string
	if durable {
		d, err := os.MkdirTemp("", "mocha-ablate-store-*")
		if err != nil {
			return res, err
		}
		dir = d
		defer func() { _ = os.RemoveAll(d) }()
	}

	const seed = 8181
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.LANFastEthernet().Scaled(cfg.Scale), Seed: seed})
	defer func() { _ = sim.Close() }()

	reg := obs.NewRegistry()
	reg.SetClock(sim.Clock())
	rec := check.NewRecorder(64*sp.locks*sp.sites+8192, sim.Clock())
	mon := check.NewMonitor(check.DefaultWindow)
	sink := check.MultiSink(rec, mon)

	directory := make(map[wire.SiteID]string, sp.sites)
	stacks := make(map[wire.SiteID]*transport.SimStack, sp.sites)
	for i := 1; i <= sp.sites; i++ {
		site := wire.SiteID(i)
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			return res, err
		}
		stacks[site] = stack
		directory[site] = stack.Datagram().LocalAddr()
	}

	newEndpoint := func(stack *transport.SimStack) *mnet.Endpoint {
		return mnet.NewEndpoint(stack.Datagram(), mnet.Config{
			Cost:    netsim.Native(),
			Metrics: reg,
			// Short retransmission timing: the kill leaves sends to the victim
			// dangling, and the restart legs must not wait out the default
			// ladder. GapTimeout un-sticks the old-sender/fresh-receiver
			// sequence gap after the restart.
			RTO:        250 * time.Millisecond,
			MaxRetries: 4,
			GapTimeout: storeGapTimeout,
		})
	}
	newSiteNode := func(site wire.SiteID, stack *transport.SimStack) (*core.Node, error) {
		storeDir := ""
		if durable && site == storeVictim {
			storeDir = dir
		}
		return core.NewNode(core.Config{
			Site:            site,
			Endpoint:        newEndpoint(stack),
			Stack:           stack,
			Directory:       directory,
			IsHome:          site == wire.HomeSite,
			Codec:           marshal.NewFast(netsim.Native()),
			Cost:            netsim.Native(),
			Mode:            core.ModeMNet,
			StoreDir:        storeDir,
			RequestTimeout:  storeReqTimeout,
			TransferTimeout: 10 * time.Second,
			DefaultLease:    30 * time.Second,
			Log:             eventlog.Nop(),
			Metrics:         reg,
			History:         sink,
		})
	}

	nodes := make(map[wire.SiteID]*core.Node, sp.sites)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for i := 1; i <= sp.sites; i++ {
		site := wire.SiteID(i)
		node, err := newSiteNode(site, stacks[site])
		if err != nil {
			return res, err
		}
		nodes[site] = node
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Per lock: the creator at home registers the initial content, then a
	// worker at the victim attaches, acquires, writes, and releases — so the
	// victim ends the warm-up owning every lock's latest version (and, on
	// the durable leg, every version sits in its WAL).
	lockIDs := make([]wire.LockID, sp.locks)
	names := make([]string, sp.locks)
	for i := range lockIDs {
		lockIDs[i] = wire.LockID(201 + i)
		names[i] = fmt.Sprintf("store-data-%d", i)
		r, err := nodes[wire.HomeSite].CreateReplica(names[i], marshal.Bytes(make([]byte, sp.payload)), sp.sites)
		if err != nil {
			return res, err
		}
		creator := nodes[wire.HomeSite].NewHandle(fmt.Sprintf("creator-%d", i)).ReplicaLock(lockIDs[i])
		if err := creator.Associate(ctx, r); err != nil {
			return res, err
		}
	}
	time.Sleep(creatorSettle)
	for i := range lockIDs {
		wr, err := nodes[storeVictim].AttachReplica(names[i], marshal.Bytes(nil))
		if err != nil {
			return res, err
		}
		worker := nodes[storeVictim].NewHandle(fmt.Sprintf("worker-%d", i)).ReplicaLock(lockIDs[i])
		if err := worker.Associate(ctx, wr); err != nil {
			return res, err
		}
		// UR covers the cluster so every release pushes the new version to
		// the other registered sites — the copies recovery polls fall back
		// on when a restarted site lost its state.
		worker.SetUpdateReplicas(sp.sites)
		if err := worker.Lock(ctx); err != nil {
			return res, fmt.Errorf("worker acquire lock %d: %w", lockIDs[i], err)
		}
		if err := stampFirstByte(worker, byte(i+1)); err != nil {
			return res, err
		}
		if err := worker.Unlock(ctx); err != nil {
			return res, fmt.Errorf("worker release lock %d: %w", lockIDs[i], err)
		}
	}
	// Let release acknowledgements land so persisted records commit.
	time.Sleep(500 * time.Millisecond)

	// Snapshot the victim's store before the kill: the durable leg must
	// recover exactly this set.
	preStats := nodes[storeVictim].Store().Stats()
	res.preRecords = preStats.Records
	res.appends = preStats.Appends
	res.fsyncs = preStats.Fsyncs
	preVersions := make(map[wire.LockID]uint64, sp.locks)
	preBlobs := make(map[wire.LockID][]byte, sp.locks)
	if durable {
		if res.preRecords != sp.locks {
			return res, fmt.Errorf("victim store holds %d records before the kill, want %d", res.preRecords, sp.locks)
		}
		for _, lock := range lockIDs {
			r, ok, err := nodes[storeVictim].Store().Get(lock)
			if err != nil || !ok {
				return res, fmt.Errorf("victim store missing lock %d before the kill (ok=%v err=%v)", lock, ok, err)
			}
			preVersions[lock] = r.Version
			preBlobs[lock] = append([]byte(nil), r.Replicas[0].Data...)
		}
	}

	cut := rec.Len()
	transfersBefore := reg.CounterValue(obs.CTransfersFull) + reg.CounterValue(obs.CTransfersDelta)

	// Fail-stop the victim, then reboot the same machine at the same
	// address: a fresh stack, endpoint, and node over the surviving store
	// directory.
	_ = nodes[storeVictim].Close()
	delete(nodes, storeVictim)
	sim.Kill(netsim.NodeID(storeVictim))
	time.Sleep(300 * time.Millisecond)

	stack, err := sim.Restart(netsim.NodeID(storeVictim))
	if err != nil {
		return res, err
	}
	stacks[storeVictim] = stack
	reborn, err := newSiteNode(storeVictim, stack)
	if err != nil {
		return res, err
	}
	nodes[storeVictim] = reborn

	res.recovered = reborn.Store().Stats().Recovered
	if durable {
		if res.recovered != res.preRecords {
			return res, fmt.Errorf("durable restart recovered %d records, want %d", res.recovered, res.preRecords)
		}
		for _, lock := range lockIDs {
			r, ok, err := reborn.Store().Get(lock)
			if err != nil || !ok {
				return res, fmt.Errorf("recovered store missing lock %d (ok=%v err=%v)", lock, ok, err)
			}
			if r.Version != preVersions[lock] {
				return res, fmt.Errorf("lock %d recovered at v%d, persisted v%d", lock, r.Version, preVersions[lock])
			}
			if !bytes.Equal(r.Replicas[0].Data, preBlobs[lock]) {
				return res, fmt.Errorf("lock %d recovered different bytes than were persisted", lock)
			}
		}
	} else if res.recovered != 0 {
		return res, fmt.Errorf("in-memory restart recovered %d records, want 0", res.recovered)
	}

	// The rebooted application re-attaches its replicas — the recovered
	// payloads drain into them — and probes every lock with a shared
	// acquire, which transfers data only if the site's copy is stale.
	probes := make([]*core.ReplicaLock, sp.locks)
	for i := range lockIDs {
		wr, err := reborn.AttachReplica(names[i], marshal.Bytes(nil))
		if err != nil {
			return res, err
		}
		probes[i] = reborn.NewHandle(fmt.Sprintf("probe-%d", i)).ReplicaLock(lockIDs[i])
		if err := probes[i].Associate(ctx, wr); err != nil {
			return res, err
		}
	}
	time.Sleep(500 * time.Millisecond)

	for i := range lockIDs {
		if ok, _ := tryAcquireShared(probes[i], 30*time.Second, 3*time.Second); !ok {
			return res, fmt.Errorf("restarted site could not re-acquire lock %d", lockIDs[i])
		}
		if got := probes[i].Replicas()[0].Content().BytesData()[0]; got != byte(i+1) {
			return res, fmt.Errorf("lock %d read byte %d after restart, want %d", lockIDs[i], got, i+1)
		}
	}

	// Quiesce and analyze the history. A sender tallies a transfer only
	// once its ack is back, which can trail the probe the data satisfied:
	// give the tallies a moment to land, and read them with the nodes closed.
	transfers := func() int64 {
		return reg.CounterValue(obs.CTransfersFull) + reg.CounterValue(obs.CTransfersDelta) - transfersBefore
	}
	deadline := time.Now().Add(2 * time.Second)
	for !durable && transfers() < int64(sp.locks) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		_ = n.Close()
	}
	nodes = map[wire.SiteID]*core.Node{}
	res.transfers = transfers()
	if d := rec.Dropped(); d > 0 {
		return res, fmt.Errorf("history recorder overflowed by %d events; raise its capacity", d)
	}
	if cx := mon.Err(); cx != nil {
		return res, fmt.Errorf("online monitor tripped: %v", cx.Violation)
	}
	events := rec.Events()
	res.histEvents = len(events)
	if v := check.Check(events); v != nil {
		return res, fmt.Errorf("entry-consistency violation: %v", v)
	}
	max, err := fenceMonotone(events)
	if err != nil {
		return res, err
	}
	res.fenceMax = max

	// Count the post-restart refetches: fresh grants to the victim flagged
	// NeedNewVersion. The durable leg re-joined at its persisted versions,
	// so it must show none — and no replica transfers either.
	if cut > len(events) {
		cut = len(events)
	}
	for _, ev := range events[cut:] {
		if ev.Kind == wire.HistGrant && ev.Site == storeVictim && !ev.Revised && ev.Flag == wire.NeedNewVersion {
			res.refetch++
		}
	}
	if durable {
		if res.refetch != 0 {
			return res, fmt.Errorf("durable leg refetched %d locks after restart; recovery should have re-joined at the persisted versions", res.refetch)
		}
		if res.transfers != 0 {
			return res, fmt.Errorf("durable leg moved %d replica transfers after restart, want 0", res.transfers)
		}
	} else {
		if res.refetch < sp.locks {
			return res, fmt.Errorf("in-memory leg refetched only %d/%d locks; the restarted site should have lost everything", res.refetch, sp.locks)
		}
		if res.transfers < int64(sp.locks) {
			return res, fmt.Errorf("in-memory leg moved %d transfers re-arming %d locks", res.transfers, sp.locks)
		}
	}
	return res, nil
}

// storeMemCapLeg runs the durable store with a memory cap below the
// working set: the workload must complete by evicting cold records to the
// log and refaulting them on access.
func storeMemCapLeg(cfg Config, sp storeParams) (memCapResult, error) {
	var res memCapResult
	res.locks = sp.locks
	// Room for two payloads and change; the working set is locks × payload.
	res.memLimit = 2*sp.payload + sp.payload/2

	dir, err := os.MkdirTemp("", "mocha-ablate-memcap-*")
	if err != nil {
		return res, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	const seed = 8282
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.LANFastEthernet().Scaled(cfg.Scale), Seed: seed})
	defer func() { _ = sim.Close() }()

	reg := obs.NewRegistry()
	reg.SetClock(sim.Clock())
	rec := check.NewRecorder(64*sp.locks*4+8192, sim.Clock())

	directory := make(map[wire.SiteID]string, 2)
	stacks := make(map[wire.SiteID]*transport.SimStack, 2)
	for i := 1; i <= 2; i++ {
		site := wire.SiteID(i)
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			return res, err
		}
		stacks[site] = stack
		directory[site] = stack.Datagram().LocalAddr()
	}
	nodes := make(map[wire.SiteID]*core.Node, 2)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for i := 1; i <= 2; i++ {
		site := wire.SiteID(i)
		storeDir, memLimit := "", 0
		if site == storeVictim {
			storeDir, memLimit = dir, res.memLimit
		}
		node, err := core.NewNode(core.Config{
			Site:            site,
			Endpoint:        mnet.NewEndpoint(stacks[site].Datagram(), mnet.Config{Cost: netsim.Native(), Metrics: reg}),
			Stack:           stacks[site],
			Directory:       directory,
			IsHome:          site == wire.HomeSite,
			Codec:           marshal.NewFast(netsim.Native()),
			Cost:            netsim.Native(),
			Mode:            core.ModeMNet,
			StoreDir:        storeDir,
			StoreMemLimit:   memLimit,
			RequestTimeout:  storeReqTimeout,
			TransferTimeout: 10 * time.Second,
			Log:             eventlog.Nop(),
			Metrics:         reg,
			History:         rec,
		})
		if err != nil {
			return res, err
		}
		nodes[site] = node
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	lockIDs := make([]wire.LockID, sp.locks)
	names := make([]string, sp.locks)
	for i := range lockIDs {
		lockIDs[i] = wire.LockID(301 + i)
		names[i] = fmt.Sprintf("memcap-data-%d", i)
		r, err := nodes[wire.HomeSite].CreateReplica(names[i], marshal.Bytes(make([]byte, sp.payload)), 2)
		if err != nil {
			return res, err
		}
		creator := nodes[wire.HomeSite].NewHandle(fmt.Sprintf("creator-%d", i)).ReplicaLock(lockIDs[i])
		if err := creator.Associate(ctx, r); err != nil {
			return res, err
		}
	}
	time.Sleep(creatorSettle)
	for i := range lockIDs {
		wr, err := nodes[storeVictim].AttachReplica(names[i], marshal.Bytes(nil))
		if err != nil {
			return res, err
		}
		worker := nodes[storeVictim].NewHandle(fmt.Sprintf("worker-%d", i)).ReplicaLock(lockIDs[i])
		if err := worker.Associate(ctx, wr); err != nil {
			return res, err
		}
		if err := worker.Lock(ctx); err != nil {
			return res, fmt.Errorf("acquire lock %d under memory cap: %w", lockIDs[i], err)
		}
		if err := stampFirstByte(worker, byte(i+1)); err != nil {
			return res, err
		}
		if err := worker.Unlock(ctx); err != nil {
			return res, fmt.Errorf("release lock %d under memory cap: %w", lockIDs[i], err)
		}
		// Let the release acknowledgement commit the record: only committed
		// records are evictable, so back-to-back dirty writes would pin the
		// whole working set in memory.
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)

	st := nodes[storeVictim].Store().Stats()
	res.records = st.Records
	res.cached = st.CachedBytes
	res.evictions = st.Evictions
	if res.records != sp.locks {
		return res, fmt.Errorf("capped store holds %d records, want %d", res.records, sp.locks)
	}
	if res.evictions == 0 {
		return res, fmt.Errorf("no evictions under a %dB cap with a %dB working set", res.memLimit, sp.locks*sp.payload)
	}
	if res.cached > res.memLimit+sp.payload {
		return res, fmt.Errorf("capped store caches %dB, cap %dB", res.cached, res.memLimit)
	}

	// Touch every lock: evicted records must refault transparently from the
	// log with their bytes intact.
	for i, lock := range lockIDs {
		r, ok, err := nodes[storeVictim].Store().Get(lock)
		if err != nil || !ok {
			return res, fmt.Errorf("capped store lost lock %d (ok=%v err=%v)", lock, ok, err)
		}
		if r.Version == 0 || len(r.Replicas) == 0 {
			return res, fmt.Errorf("capped store refaulted lock %d empty", lock)
		}
		_ = i
	}
	res.refaults = nodes[storeVictim].Store().Stats().Refaults
	if res.refaults == 0 {
		return res, fmt.Errorf("evictions happened but no Get refaulted; eviction lost the records instead")
	}

	for _, n := range nodes {
		_ = n.Close()
	}
	nodes = map[wire.SiteID]*core.Node{}
	if v := check.Check(rec.Events()); v != nil {
		return res, fmt.Errorf("entry-consistency violation: %v", v)
	}
	return res, nil
}

// fenceMonotone asserts the fencing-token invariant over a full history:
// every fresh grant's token strictly exceeds every token the lock issued
// before it — across releases, handoffs, promotions, and restarts. It
// returns the highest token seen.
func fenceMonotone(events []wire.HistoryEvent) (uint64, error) {
	last := make(map[wire.LockID]uint64)
	var max uint64
	for _, ev := range events {
		if ev.Kind != wire.HistGrant || ev.AuxVersion == 0 {
			continue
		}
		if !ev.Revised {
			if ev.AuxVersion <= last[ev.Lock] {
				return 0, fmt.Errorf("fencing token regressed on lock %d: fresh grant carried %d after %d (%s)",
					ev.Lock, ev.AuxVersion, last[ev.Lock], ev.String())
			}
			last[ev.Lock] = ev.AuxVersion
		}
		if ev.AuxVersion > max {
			max = ev.AuxVersion
		}
	}
	return max, nil
}

// tryAcquireShared is tryAcquire's read-side twin: a bounded
// LockShared/Unlock cycle retried until the patience window closes. Shared
// probes never publish a new version, so they measure pure re-join cost.
func tryAcquireShared(prl *core.ReplicaLock, patience, attempt time.Duration) (bool, int) {
	deadline := time.Now().Add(patience)
	tries := 0
	for {
		tries++
		ctx, cancel := context.WithTimeout(context.Background(), attempt)
		err := prl.LockShared(ctx)
		cancel()
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), attempt)
			_ = prl.Unlock(ctx)
			cancel()
			return true, tries
		}
		if time.Now().After(deadline) {
			return false, tries
		}
	}
}
