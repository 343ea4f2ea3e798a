package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/placement"
	"mocha/internal/store"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// The micro measurements time each layer's public functions directly,
// with the message shapes the workloads use, at fixed iteration counts:
// fixed work repeats better than fixed time on a two-core box. Each is the
// median of three rounds.

var sink any // keeps measured results alive

// perOp runs f n times, three rounds, and returns the median round's
// nanoseconds per call.
func perOp(n int, f func()) float64 {
	f()
	rounds := make([]float64, 3)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	sort.Float64s(rounds)
	return rounds[1]
}

// microLayers measures every layer. scale multiplies the iteration
// counts (the smoke test shrinks them); history is a recorded event
// stream to replay through the online monitor.
func microLayers(scale float64, history []wire.HistoryEvent) (map[string]float64, error) {
	n := func(base int) int {
		if v := int(float64(base) * scale); v > 1 {
			return v
		}
		return 1
	}
	m := make(map[string]float64)
	microWire(m, n)
	microMarshal(m, n)
	microNetsim(m, n)
	microOverlayPlacement(m, n)
	microObs(m, n)
	microCheck(m, history)
	if err := microMnet(m, n); err != nil {
		return nil, fmt.Errorf("mnet micro: %w", err)
	}
	if err := microStore(m, n); err != nil {
		return nil, fmt.Errorf("store micro: %w", err)
	}
	return m, nil
}

func microWire(m map[string]float64, n func(int) int) {
	sites := wire.NewSiteSet(1, 2, 3)
	ctl := []wire.Payload{
		&wire.AcquireLock{Lock: 7, Requester: 2, Thread: wire.MakeThreadID(2, 1), LeaseMillis: 30000, HaveVersion: 41},
		&wire.Grant{Lock: 7, Thread: wire.MakeThreadID(2, 1), Version: 42, Flag: wire.VersionOK, Epoch: 1,
			Sharers: sites, UpToDate: sites, VersionFloor: 42, Fence: 99},
		&wire.ReleaseLock{Lock: 7, Releaser: 2, Thread: wire.MakeThreadID(2, 1), NewVersion: 43, UpToDate: sites, Fence: 99},
	}
	encoded := make([][]byte, len(ctl))
	for i, p := range ctl {
		encoded[i] = wire.Marshal(p)
	}
	buf := make([]byte, 0, 256)
	encodeCtl := func() {
		for _, p := range ctl {
			buf = wire.MarshalAppend(p, buf[:0])
		}
	}
	decodeCtl := func() {
		for _, b := range encoded {
			sink, _ = wire.Unmarshal(b)
		}
	}
	per := float64(len(ctl))
	m["wire.encode_ns_ctl"] = perOp(n(20000), encodeCtl) / per
	m["wire.decode_ns_ctl"] = perOp(n(20000), decodeCtl) / per
	m["wire.encode_allocs_ctl"] = testing.AllocsPerRun(n(200), encodeCtl) / per
	m["wire.decode_allocs_ctl"] = testing.AllocsPerRun(n(200), decodeCtl) / per

	data := &wire.ReplicaData{Lock: 7, From: 2, Version: 42, RequestID: 5,
		Replicas: []wire.ReplicaPayload{{Name: "replica-7", Data: make([]byte, 4096+5)}}}
	big := make([]byte, 0, 8192)
	blob := wire.Marshal(data)
	m["wire.encode_ns_4k"] = perOp(n(20000), func() { big = wire.MarshalAppend(data, big[:0]) })
	m["wire.decode_ns_4k"] = perOp(n(20000), func() { sink, _ = wire.Unmarshal(blob) })
}

func microMarshal(m map[string]float64, n func(int) int) {
	codec := marshal.NewFast(netsim.Native())
	content := marshal.Bytes(make([]byte, 4096))
	blob, _ := codec.Marshal(content)
	m["marshal.marshal_ns_4k"] = perOp(n(20000), func() { sink, _ = codec.Marshal(content) })
	m["marshal.unmarshal_ns_4k"] = perOp(n(20000), func() { _ = codec.Unmarshal(blob, content) })

	next := append([]byte(nil), blob...)
	for i := 1000; i < 1064; i++ {
		next[i] ^= 0xff
	}
	m["marshal.diff_ns_4k_64b"] = perOp(n(20000), func() { sink = marshal.DiffRanges(blob, next) })
	ops := []marshal.PatchOp{{Off: 1000, Data: next[1000:1064]}}
	m["marshal.patch_ns_4k_64b"] = perOp(n(20000), func() { sink, _ = marshal.ApplyPatch(blob, len(next), ops) })
}

// microMnet times Port.Send, which returns once the message is
// acknowledged, between two endpoints over a zero-delay simulated link.
func microMnet(m map[string]float64, n func(int) int) error {
	sim := transport.NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: 1})
	defer func() { _ = sim.Close() }()
	var eps [2]*mnet.Endpoint
	for i := range eps {
		stack, err := sim.NewStack(netsim.NodeID(i + 1))
		if err != nil {
			return err
		}
		eps[i] = mnet.NewEndpoint(stack.Datagram(), mnet.Config{Cost: netsim.Native()})
		defer func(ep *mnet.Endpoint) { _ = ep.Close() }(eps[i])
	}
	from, err := eps[0].OpenPort(9)
	if err != nil {
		return err
	}
	to, err := eps[1].OpenPort(9)
	if err != nil {
		return err
	}
	to.SetHandler(func(mnet.Message) {})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var sendErr error
	send := func(size int) func() {
		msg := make([]byte, size)
		return func() {
			if err := from.Send(ctx, to.Addr(), msg); err != nil && sendErr == nil {
				sendErr = err
			}
		}
	}
	m["mnet.send_ack_us_64b"] = perOp(n(5000), send(64)) / 1e3
	m["mnet.send_ack_us_4k"] = perOp(n(2000), send(4096)) / 1e3
	m["mnet.send_ack_us_64k"] = perOp(n(200), send(64<<10)) / 1e3
	m["mnet.allocs_per_msg_64b"] = testing.AllocsPerRun(n(500), send(64))
	return sendErr
}

func microNetsim(m map[string]float64, n func(int) int) {
	net := netsim.New(netsim.Config{Profile: netsim.Perfect(), Seed: 1})
	defer net.Close()
	a, _ := net.AddNode(1)
	b, _ := net.AddNode(2)
	b.SetReceiver(func(netsim.NodeID, []byte) {})
	pkt := make([]byte, 64)
	m["netsim.send_ns_per_pkt"] = perOp(n(50000), func() { a.Send(2, pkt) })
}

func microOverlayPlacement(m map[string]float64, n func(int) int) {
	tracker := overlay.NewTracker(overlay.Config{})
	targets := make([]wire.SiteID, 11)
	for i := range targets {
		targets[i] = wire.SiteID(i + 2)
		tracker.Observe(targets[i], time.Duration(i%3)*15*time.Millisecond+300*time.Microsecond)
	}
	m["overlay.plan_ns_11"] = perOp(n(20000), func() { sink = tracker.Plan(targets) })

	members := make([]wire.SiteID, composedSites)
	for i := range members {
		members[i] = wire.SiteID(i + 1)
	}
	ring := placement.New(members, placement.DefaultVirtualNodes)
	id := wire.LockID(0)
	m["placement.home_ns"] = perOp(n(50000), func() { id++; sink = ring.Home(id) })
}

func microObs(m map[string]float64, n func(int) int) {
	reg := obs.NewRegistry()
	m["obs.inc_ns"] = perOp(n(200000), func() { reg.Inc(obs.CGrants) })
	m["obs.observe_ns"] = perOp(n(200000), func() { reg.Observe(obs.HApply, 37*time.Microsecond) })
	m["obs.span_ns"] = perOp(n(50000), func() {
		sp := reg.StartSpan("acquire", 2, 7)
		sp.Phase(obs.HQueueWait)
		sp.Phase(obs.HRequestRTT)
		sp.Phase(obs.HTransferWait)
		sp.End(obs.HAcquireTotal)
	})
}

// microCheck prices turning the online monitor on: one recorded history
// replayed through a fresh monitor.
func microCheck(m map[string]float64, history []wire.HistoryEvent) {
	m["check.monitor_ns_per_event"] = 0
	if len(history) == 0 {
		return
	}
	if len(history) > 100000 {
		history = history[:100000]
	}
	mon := check.NewMonitor(check.DefaultWindow)
	start := time.Now()
	for _, ev := range history {
		mon.Record(ev)
	}
	m["check.monitor_ns_per_event"] = float64(time.Since(start)) / float64(len(history))
}

// microStore times the durable store's write path on a FileStore in the
// scratch directory, with the default 5 ms group commit.
func microStore(m map[string]float64, n func(int) int) error {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "micro-store-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = fs.Close() }()

	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	blob := make([]byte, 4096+5)
	version := uint64(1)
	put := func() {
		version++
		note(fs.Put(store.Record{Lock: 1, Version: version, Dirty: true,
			Replicas: []wire.ReplicaPayload{{Name: "replica-1", Data: blob}}}))
	}
	m["store.put_us_4k"] = perOp(n(2000), put) / 1e3

	patch := make([]byte, 64)
	appendDelta := func() {
		patch[0]++
		copy(blob[1000:], patch)
		delta := []wire.DeltaPayload{{Name: "replica-1", NewLen: uint32(len(blob)), Checksum: marshal.Checksum(blob),
			Ops: []wire.PatchOp{{Off: 1000, Data: patch}}}}
		note(fs.AppendDelta(version, store.Record{Lock: 1, Version: version + 1, Dirty: true}, delta))
		version++
	}
	m["store.append_delta_us_64b"] = perOp(n(2000), appendDelta) / 1e3
	m["store.commit_us"] = perOp(n(2000), func() { note(fs.Commit(1, version)) }) / 1e3
	// A fresh full record: a refault replays the record's whole frame
	// chain, and the delta rounds above left thousands of frames on it.
	put()
	note(fs.Commit(1, version))
	m["store.refault_us_4k"] = perOp(n(500), func() {
		note(fs.Evict(1))
		_, _, err := fs.Get(1)
		note(err)
	}) / 1e3
	m["store.sync_us"] = perOp(n(50), func() {
		put()
		note(fs.Sync())
	}) / 1e3
	return opErr
}
