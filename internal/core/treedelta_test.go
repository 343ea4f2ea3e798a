package core

import (
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// These tests cover the composition of delta transfer (S29) with the relay
// tree (S33): a release that built a push delta sends it to the bucket
// relays inside the RelayPush, the relays patch their own copy and re-fan
// the same delta, and every way a delta can fail to apply costs one extra
// full-copy frame on that hop and never a lost version. Every cluster
// replays its history through the entry-consistency checker at cleanup.

const treeDeltaLock wire.LockID = 9

// treeDeltaRig is a treeCluster with delta on and a 4 KiB replica: the
// home (site 1) writes, sites 2-5 and 6-9 are the two locality buckets
// (relays 2 and 6).
type treeDeltaRig struct {
	t        *testing.T
	tc       *testCluster
	reg      *obs.Registry
	rl       *ReplicaLock
	r        *Replica
	contents map[wire.SiteID]*Replica
	round    int32
}

// newTreeDeltaRig builds the cluster and runs the seeding release: no
// sharer holds a base yet, so it goes out as full copies and leaves every
// site up to date — the state the delta-form rounds start from.
func newTreeDeltaRig(t *testing.T, opts clusterOpts) *treeDeltaRig {
	t.Helper()
	opts.DeltaTransfer = true
	opts.Metrics = obs.NewRegistry()
	tc := treeCluster(t, opts)
	rig := &treeDeltaRig{t: t, tc: tc, reg: opts.Metrics, contents: map[wire.SiteID]*Replica{}}
	rig.rl, rig.r = mustCreate(t, tc.node(1).NewHandle("w"), treeDeltaLock, "v", make([]int32, 1024), treeSites)
	for i := wire.SiteID(2); i <= treeSites; i++ {
		_, r := mustAttach(t, tc.node(i).NewHandle("r"), treeDeltaLock, "v")
		rig.contents[i] = r
	}
	settle()
	rig.rl.SetUpdateReplicas(treeSites)
	rig.release()
	if got := rig.sum((*Node).DeltaTransfersSent); got != 0 {
		t.Fatalf("seeding release sent %d deltas to sites with no base", got)
	}
	return rig
}

// release takes the lock at the home, writes one element, and releases.
func (rig *treeDeltaRig) release() {
	rig.t.Helper()
	ctx := tctx(rig.t)
	if err := rig.rl.Lock(ctx); err != nil {
		rig.t.Fatal(err)
	}
	rig.round++
	if err := rig.r.Content().SetIntAt(int(rig.round)*7, 1000+rig.round); err != nil {
		rig.t.Fatal(err)
	}
	if err := rig.rl.Unlock(ctx); err != nil {
		rig.t.Fatal(err)
	}
}

// sum adds one per-node transfer counter over every site.
func (rig *treeDeltaRig) sum(counter func(*Node) int64) int64 {
	var n int64
	for i := wire.SiteID(1); i <= treeSites; i++ {
		n += counter(rig.tc.node(i))
	}
	return n
}

// wantConverged checks every sharer holds the released version with the
// writer's exact bytes.
func (rig *treeDeltaRig) wantConverged() {
	rig.t.Helper()
	want := rig.r.Content().IntsData()
	for i := wire.SiteID(2); i <= treeSites; i++ {
		st := rig.tc.node(i).getLockLocal(treeDeltaLock)
		st.mu.Lock()
		version := st.version
		st.mu.Unlock()
		if version != rig.rl.Version() {
			rig.t.Errorf("site %d at version %d, want %d", i, version, rig.rl.Version())
		}
		got := rig.contents[i].Content().IntsData()
		if len(got) != len(want) {
			rig.t.Errorf("site %d holds %d ints, want %d", i, len(got), len(want))
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				rig.t.Errorf("site %d element %d = %d, want %d", i, j, got[j], want[j])
				break
			}
		}
	}
}

// loseBase makes a site unable to apply the next delta while the home
// still lists it as up to date: its copy reads as dirtied by a broken hold
// and its marshaled cache is gone.
func (rig *treeDeltaRig) loseBase(site wire.SiteID) {
	st := rig.tc.node(site).getLockLocal(treeDeltaLock)
	st.mu.Lock()
	st.invalidatePayloadsLocked()
	st.uncommitted = true
	st.mu.Unlock()
}

// TestTreeDeltaAllUpToDate is the common case: every sharer holds the
// previous version, so the relays and every member receive delta frames
// and not one full copy crosses any link.
func TestTreeDeltaAllUpToDate(t *testing.T) {
	rig := newTreeDeltaRig(t, defaultOpts())
	full, bytes := rig.sum((*Node).FullTransfersSent), rig.sum((*Node).ReplicaBytesSent)
	uplink := rig.tc.node(1).DisseminationUplinkSends()
	for i := 0; i < 3; i++ {
		rig.release()
	}
	rig.wantConverged()
	if got := rig.sum((*Node).FullTransfersSent) - full; got != 0 {
		t.Errorf("%d full copies sent with every sharer up to date, want 0", got)
	}
	// Per release: two delta-form RelayPushes from the origin, three delta
	// re-fans from each relay — the relay-carried frames are counted too.
	if got := rig.tc.node(1).DeltaTransfersSent(); got != 6 {
		t.Errorf("origin sent %d delta frames over 3 releases, want 6", got)
	}
	for _, relay := range []wire.SiteID{2, 6} {
		if got := rig.tc.node(relay).DeltaTransfersSent(); got != 9 {
			t.Errorf("relay %d re-fanned %d delta frames over 3 releases, want 9", relay, got)
		}
	}
	if got := rig.sum((*Node).DeltaFallbacks); got != 0 {
		t.Errorf("%d delta fallbacks on an unbroken chain, want 0", got)
	}
	if got := rig.tc.node(1).DisseminationUplinkSends() - uplink; got != 6 {
		t.Errorf("origin uplink sends = %d over 3 releases, want 6 (one per bucket)", got)
	}
	if got := rig.reg.CounterValue(obs.CRelayFallbacks); got != 0 {
		t.Errorf("relay fallbacks = %d, want 0", got)
	}
	// 24 frames patching one int32 each: far below a single 4 KiB copy.
	if got := rig.sum((*Node).ReplicaBytesSent) - bytes; got > 4096 {
		t.Errorf("3 releases put %d replica bytes on the wire, want under one full copy", got)
	}
}

// TestTreeDeltaMemberBehind leaves one bucket member a version behind (the
// pushes of one release to it are dropped at the relay and at the origin's
// repair), so the next grant does not list it as up to date: the relay
// offers the delta to the other members and serves the straggler the full
// copy from its own post-apply cache — the RelayPush carried none.
func TestTreeDeltaMemberBehind(t *testing.T) {
	var dropVersion atomic.Uint64
	dropTo4 := func(fc FaultContext) FaultDecision {
		return FaultDecision{Drop: fc.Point == FPDropMidTransfer && fc.Peer == 4 && fc.Version == dropVersion.Load()}
	}
	opts := defaultOpts()
	opts.faultHooks = map[wire.SiteID]FaultHook{1: dropTo4, 2: dropTo4}
	rig := newTreeDeltaRig(t, opts)

	dropVersion.Store(rig.rl.Version() + 1)
	rig.release() // site 4 misses this version entirely
	full := rig.sum((*Node).FullTransfersSent)
	relayFull, relayDelta := rig.tc.node(2).FullTransfersSent(), rig.tc.node(2).DeltaTransfersSent()
	rig.release()
	rig.wantConverged()
	if got := rig.tc.node(2).FullTransfersSent() - relayFull; got != 1 {
		t.Errorf("relay 2 sent %d full copies, want 1 (to the member a version behind)", got)
	}
	if got := rig.tc.node(2).DeltaTransfersSent() - relayDelta; got != 2 {
		t.Errorf("relay 2 sent %d delta frames, want 2 (to the members that kept up)", got)
	}
	if got := rig.sum((*Node).FullTransfersSent) - full; got != 1 {
		t.Errorf("%d full copies sent cluster-wide, want only the straggler's", got)
	}
	if got := rig.sum((*Node).DeltaFallbacks); got != 0 {
		t.Errorf("%d delta fallbacks, want 0 (the straggler was never offered the delta)", got)
	}
}

// TestTreeDeltaMemberNack: a member the grant lists as up to date cannot
// apply the re-fanned delta; its DeltaNack makes the relay fall back to the
// full copy from its cache, for that member alone.
func TestTreeDeltaMemberNack(t *testing.T) {
	rig := newTreeDeltaRig(t, defaultOpts())
	full, relayFull := rig.sum((*Node).FullTransfersSent), rig.tc.node(2).FullTransfersSent()
	rig.loseBase(4)
	rig.release()
	rig.wantConverged()
	if got := rig.tc.node(2).DeltaFallbacks(); got != 1 {
		t.Errorf("relay 2 delta fallbacks = %d, want 1", got)
	}
	if got := rig.tc.node(2).FullTransfersSent() - relayFull; got != 1 {
		t.Errorf("relay 2 sent %d full copies, want 1", got)
	}
	if got := rig.sum((*Node).FullTransfersSent) - full; got != 1 {
		t.Errorf("%d full copies sent cluster-wide, want only the nacking member's", got)
	}
}

// wantRelayFullFallback checks the need-full ladder at a relay: relay 2
// refused the delta form once, the origin re-sent the full form once, the
// other bucket stayed on deltas, and no bucket degraded to direct pushes.
func (rig *treeDeltaRig) wantRelayFullFallback(fullBefore int64) {
	rig.t.Helper()
	rig.wantConverged()
	if got := rig.tc.node(1).DeltaFallbacks(); got != 1 {
		rig.t.Errorf("origin delta fallbacks = %d, want 1", got)
	}
	if got := rig.tc.node(1).FullTransfersSent() - fullBefore; got != 1 {
		rig.t.Errorf("origin sent %d full RelayPushes, want 1", got)
	}
	if got := rig.tc.node(1).DeltaTransfersSent(); got != 1 {
		rig.t.Errorf("origin sent %d delta RelayPushes, want 1 (the healthy bucket)", got)
	}
	if got := rig.tc.node(6).DeltaTransfersSent(); got != 3 {
		rig.t.Errorf("relay 6 re-fanned %d deltas, want 3", got)
	}
	if got := rig.reg.CounterValue(obs.CRelayFallbacks); got != 0 {
		rig.t.Errorf("relay fallbacks = %d, want 0 (need-full is not a relay failure)", got)
	}
	if got := rig.reg.CounterValue(obs.CRelayPushes); got != 4 {
		rig.t.Errorf("relay pushes = %d over 2 releases, want 4 (a re-send is not a new push)", got)
	}
}

// TestTreeDeltaRelayWithoutBase: a relay the grant lists as up to date has
// no base to patch; it answers need-full having applied and re-fanned
// nothing, and the origin re-sends the full form once.
func TestTreeDeltaRelayWithoutBase(t *testing.T) {
	rig := newTreeDeltaRig(t, defaultOpts())
	full := rig.tc.node(1).FullTransfersSent()
	rig.loseBase(2)
	rig.release()
	rig.wantRelayFullFallback(full)
}

// corruptingDatagram flips the last byte — patch data — of the first
// delta-form RelayPush it is asked to send.
type corruptingDatagram struct {
	transport.Datagram
	done atomic.Bool
}

func (c *corruptingDatagram) Send(to string, pkt []byte) error {
	// The wire frame sits behind mnet's packet header; find it by decoding.
	for off := 0; off < len(pkt) && off < 64 && !c.done.Load(); off++ {
		if wire.Kind(pkt[off]) != wire.KindRelayPush {
			continue
		}
		p, err := wire.Unmarshal(pkt[off:])
		if rp, ok := p.(*wire.RelayPush); err == nil && ok && rp.Lock == treeDeltaLock && len(rp.Delta) > 0 && rp.Targets.Contains(3) {
			c.done.Store(true)
			// Targets (one word) trails the frame; the byte before it is
			// the last patch op's last data byte.
			bad := append([]byte(nil), pkt...)
			bad[len(bad)-11] ^= 0xFF
			return c.Datagram.Send(to, bad)
		}
	}
	return c.Datagram.Send(to, pkt)
}

// TestTreeDeltaCorruptedInFlight damages the delta-form RelayPush on its
// way to relay 2: the patched blob fails its checksum there, which takes
// the same need-full path as a missing base.
func TestTreeDeltaCorruptedInFlight(t *testing.T) {
	opts := defaultOpts()
	corrupter := &corruptingDatagram{}
	opts.wrapDatagram = func(site wire.SiteID, d transport.Datagram) transport.Datagram {
		if site != 1 {
			return d
		}
		corrupter.Datagram = d
		return corrupter
	}
	rig := newTreeDeltaRig(t, opts)
	full := rig.tc.node(1).FullTransfersSent()
	rig.release()
	if !corrupter.done.Load() {
		t.Fatal("no delta-form RelayPush to relay 2 left the origin")
	}
	rig.wantRelayFullFallback(full)
}

// TestTreeDeltaDropRelayFan: a relay that swallows the RelayPush degrades
// its bucket to direct pushes, and those still climb the delta ladder —
// losing the relay does not bring the full copies back.
func TestTreeDeltaDropRelayFan(t *testing.T) {
	var armed atomic.Bool
	opts := defaultOpts()
	opts.RequestTimeout = 500 * time.Millisecond // one fast relay-ack timeout
	opts.faultHooks = map[wire.SiteID]FaultHook{
		2: func(fc FaultContext) FaultDecision {
			return FaultDecision{Drop: fc.Point == FPDropRelayFan && armed.Load()}
		},
	}
	rig := newTreeDeltaRig(t, opts)
	full := rig.sum((*Node).FullTransfersSent)
	armed.Store(true)
	rig.release()
	rig.wantConverged()
	if got := rig.reg.CounterValue(obs.CRelayFallbacks); got != 1 {
		t.Errorf("relay fallbacks = %d, want 1", got)
	}
	// One delta RelayPush to the healthy relay, four direct delta pushes
	// to the dead relay's bucket.
	if got := rig.tc.node(1).DeltaTransfersSent(); got != 5 {
		t.Errorf("origin sent %d delta frames, want 5", got)
	}
	if got := rig.sum((*Node).FullTransfersSent) - full; got != 0 {
		t.Errorf("%d full copies sent while routing around the relay, want 0", got)
	}
	if got := rig.sum((*Node).DeltaFallbacks); got != 0 {
		t.Errorf("%d delta fallbacks, want 0", got)
	}
}
