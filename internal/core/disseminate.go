package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/overlay"
	"mocha/internal/wire"
)

// leg is one step of a dissemination plan: a push straight to a sharer, or
// — when members is non-empty — a RelayPush to a bucket relay that applies
// the version and re-fans it to its members over its local links.
type leg struct {
	// site is the sharer, or the bucket's relay.
	site wire.SiteID
	// tryDelta offers the release's delta before the full copy; on a relay
	// leg it selects the delta form of the RelayPush.
	tryDelta bool
	// members is the rest of a relay's bucket.
	members []wire.SiteID
	// upToDate is, for a relay leg, the part of the bucket the grant listed
	// as holding the previous version: whom the relay (or a repair) may
	// offer the delta.
	upToDate wire.SiteSet
}

// plan is who receives one version and how: legs are claimed in order with
// at most bound in flight, until want of them have succeeded — legs past
// that are Section 4's replacements, "choosing another daemon thread at
// another site to receive a copy" when an earlier one fails.
type plan struct {
	legs  []leg
	want  int
	bound int
}

// planDissemination decides the legs for one version from nothing but its
// arguments. candidates are the possible receivers in set order, upToDate
// the sites believed to hold the previous version — a delta is offered only
// to those, and only when the sender built one (haveDelta) — and want how
// many must confirm. group, when non-nil, is the locality overlay's
// Tracker.Plan: the relay tree replaces the flat fan-out only when every
// candidate is a target, so a partial-UR dissemination keeps the flat walk
// and its replacement semantics, and only from treeMin candidates up, below
// which a relay hop costs more than it saves. fanout is
// Config.DisseminationFanout.
func planDissemination(candidates []wire.SiteID, upToDate wire.SiteSet, want int, haveDelta bool, group func([]wire.SiteID) overlay.Plan, treeMin, fanout int) plan {
	direct := func(site wire.SiteID) leg {
		return leg{site: site, tryDelta: haveDelta && upToDate.Contains(site)}
	}
	var legs []leg
	if group != nil && want >= len(candidates) && len(candidates) >= treeMin {
		grouped := group(candidates)
		for _, g := range grouped.Groups {
			l := direct(g.Relay)
			l.members = g.Members
			for _, site := range append([]wire.SiteID{g.Relay}, g.Members...) {
				if upToDate.Contains(site) {
					l.upToDate.Add(site)
				}
			}
			legs = append(legs, l)
		}
		for _, site := range grouped.Direct {
			legs = append(legs, direct(site))
		}
		want = len(legs)
	} else {
		for _, site := range candidates {
			legs = append(legs, direct(site))
		}
	}
	return plan{legs: legs, want: want, bound: fanoutBound(fanout, want)}
}

// errNotTried marks a leg the walk never claimed: want was met first, or a
// stop-on-failure walk had already ended.
var errNotTried = errors.New("not tried")

// run is the one bounded executor behind every fan-out — a release's flat
// walk and relay tree, a relay's re-fan and bucket repair, PushPayloads:
// workers claim legs in order, at most bound at once, until want have
// succeeded or none are left, so a failed leg is simply passed over and the
// next one claimed. With stopOnFailure the first failure ends the walk. It
// returns do's error per leg, errNotTried for legs never claimed.
func (p plan) run(stopOnFailure bool, do func(l leg) error) []error {
	errs := make([]error, len(p.legs))
	for i := range errs {
		errs[i] = errNotTried
	}
	var (
		mu       sync.Mutex
		next, ok int
		stopped  bool
		wg       sync.WaitGroup
	)
	for w := min(p.bound, len(p.legs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stopped || ok >= p.want || next >= len(p.legs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				err := do(p.legs[i])

				mu.Lock()
				errs[i] = err
				if err == nil {
					ok++
				} else if stopOnFailure {
					stopped = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errs
}

// execute carries out a plan's legs with pb and returns the sites that
// confirmed application plus each leg's error. A relay leg never fails as a
// whole: pushViaRelay routes around a sick relay itself and reports whoever
// it reached.
func (t *transferService) execute(ctx context.Context, pb *pushBlob, p plan, stopOnFailure bool) (wire.SiteSet, []error) {
	var (
		mu        sync.Mutex
		confirmed wire.SiteSet
	)
	errs := p.run(stopOnFailure, func(l leg) error {
		reached := []wire.SiteID{l.site}
		if len(l.members) > 0 {
			reached = t.pushViaRelay(ctx, pb, l)
		} else if err := t.pushTo(ctx, l.site, pb, l.tryDelta); err != nil {
			if t.node.log.On() {
				t.node.log.Logf("fault", "dissemination failed: %v", err)
			}
			return err
		}
		mu.Lock()
		for _, site := range reached {
			confirmed.Add(site)
		}
		mu.Unlock()
		return nil
	})
	return confirmed, errs
}

// disseminate implements the push-based update scheme of Section 4: send
// the new version to `want` additional registered daemons, working through
// the candidate set so that "the failure ... can be handled by choosing
// another daemon thread at another site to receive a copy of the new
// version of replicas". With Config.DisseminationTree a full-UR release
// goes through the locality overlay instead — one RelayPush per bucket,
// direct pushes for sites the overlay cannot cluster; the tree changes who
// carries the frames, never the guarantee. It returns the sites that
// confirmed application, in candidate order.
func (t *transferService) disseminate(ctx context.Context, lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, delta *wire.ReplicaDelta, sharers wire.SiteSet, upToDate wire.SiteSet, want int) []wire.SiteID {
	if want <= 0 {
		return nil
	}
	t.feedTracker()
	var candidates []wire.SiteID
	for _, site := range sharers.Sites() {
		if site != t.node.cfg.Site {
			candidates = append(candidates, site)
		}
	}
	// The delta is marshaled once, like the full blob, and offered to the
	// targets the grant reported as holding the previous version.
	pb := t.preparePushBlob(lock, version, payloads, delta)
	var group func([]wire.SiteID) overlay.Plan
	if t.node.cfg.DisseminationTree {
		group = t.tracker.Plan
	}
	p := planDissemination(candidates, upToDate, want, delta != nil, group, t.node.cfg.TreeMinSharers, t.node.cfg.DisseminationFanout)
	confirmed, _ := t.execute(ctx, pb, p, false)

	var acked []wire.SiteID
	for _, site := range candidates {
		if confirmed.Contains(site) {
			acked = append(acked, site)
		}
	}
	if wanted := min(want, len(candidates)); len(acked) < wanted {
		if t.node.log.On() {
			t.node.log.Logf("fault", "dissemination of lock %d v%d reached %d of %d sites", lock, version, len(acked), wanted)
		}
	}
	return acked
}

// PushPayloads disseminates prepared payloads to the target sites over the
// configured transfer protocol, returning the sites that confirmed
// application. The wire blob is marshaled once for all targets; transfers
// run concurrently under Config.DisseminationFanout. With a fan-out of 1
// this is the paper's sequential fan-out and the transfer operation
// Figures 9-14 measure: each transfer (including the remote apply and its
// acknowledgment) completes before the next begins, and the first failure
// stops the walk. Otherwise per-site failures are collected rather than
// aborting the remaining targets.
func (n *Node) PushPayloads(ctx context.Context, lock wire.LockID, version uint64, payloads []wire.ReplicaPayload, targets []wire.SiteID) ([]wire.SiteID, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	var delta *wire.ReplicaDelta
	if n.cfg.DeltaTransfer && version > 1 {
		// Optimistically offer every target the single-step delta; a
		// target that is further behind rejects it and gets the full copy.
		st := n.getLockLocal(lock)
		st.mu.Lock()
		delta = st.buildDeltaLocked(n.cfg.Site, version-1, version, payloads, 0, true)
		st.mu.Unlock()
	}
	pb := n.xfer.preparePushBlob(lock, version, payloads, delta)
	p := planDissemination(targets, wire.NewSiteSet(targets...), len(targets), delta != nil, nil, 0, n.cfg.DisseminationFanout)
	confirmed, errs := n.xfer.execute(ctx, pb, p, p.bound == 1)

	acked := make([]wire.SiteID, 0, len(targets))
	var failed []error
	for i, site := range targets {
		if confirmed.Contains(site) {
			acked = append(acked, site)
		} else if !errors.Is(errs[i], errNotTried) {
			failed = append(failed, fmt.Errorf("core: %w", errs[i]))
		}
	}
	return acked, errors.Join(failed...)
}

// feedTracker drains the acquire spans recorded since the last
// dissemination and turns each one's request RTT into an overlay sample
// against the lock's manager — the peer the round trip actually measured.
// The probe phase a harness may run seeds the tracker; this keeps it fed
// for the rest of the run, so RTT drift (route changes, migrated homes)
// reaches the relay plan without re-probing.
//
// Under HomePlacement the request phase is not a distance: it contains the
// home's round trip to its standby, so a near home would read as a far
// one. Those samples are not fed.
func (t *transferService) feedTracker() {
	if t.node.cfg.HomePlacement {
		return
	}
	reg := t.node.obs()
	t.spanMu.Lock()
	recs, cur := reg.SpansSince(t.spanCursor)
	t.spanCursor = cur
	t.spanMu.Unlock()
	if len(recs) == 0 {
		return
	}
	self := t.node.cfg.Site
	phase := obs.HRequestRTT.PhaseName()
	for i := range recs {
		sp := &recs[i]
		// The registry may be shared across sites (benchmarks do this);
		// only this site's own acquires measured a round trip from here.
		if sp.Op != "acquire" || wire.SiteID(sp.Site) != self {
			continue
		}
		peer, _ := t.node.homeOf(wire.LockID(sp.Lock))
		if peer == 0 || peer == self {
			continue
		}
		for _, ph := range sp.Phases {
			if ph.Name == phase && ph.Dur > 0 {
				t.tracker.Observe(peer, ph.Dur)
			}
		}
	}
}

// pushViaRelay sends one bucket's RelayPush, waits for the aggregated ack
// and returns the bucket's sites that confirmed application. A delta-form
// leg offers the relay the release's push delta first, through the same
// delta-then-full ladder as a direct push; a relay that cannot apply it
// answers need-full and gets the full form once. The relay's ack latency
// and losses feed its quality score, and the hops its ack reports feed the
// plan's pair distances. A relay that fails is routed around with direct
// pushes to the whole bucket, and members the relay could not reach are
// direct-pushed individually — either way a sick relay degrades its bucket
// to flat fan-out instead of losing the version (a re-push of an
// already-applied version is dropped as stale by the receiver, so the
// overlap is harmless).
func (t *transferService) pushViaRelay(ctx context.Context, pb *pushBlob, l leg) (reached []wire.SiteID) {
	reg := t.node.obs()
	bucket := append([]wire.SiteID{l.site}, l.members...)
	// repair direct-pushes sites concurrently under the fan-out bound: one
	// backbone round trip for the lot, not one each.
	repair := func(sites []wire.SiteID) {
		reg.Inc(obs.CRelayFallbacks)
		p := planDissemination(sites, l.upToDate, len(sites), pb.delta != nil, nil, 0, t.node.cfg.DisseminationFanout)
		repaired, _ := t.execute(ctx, pb, p, false)
		reached = append(reached, repaired.Sites()...)
	}
	addr, err := t.node.xferAddr(l.site)
	if err != nil {
		repair(bucket)
		return reached
	}
	msg := &wire.RelayPush{
		Lock:    pb.lock,
		Origin:  t.node.cfg.Site,
		Version: pb.version,
		Targets: wire.NewSiteSet(l.members...),
	}
	var deltaFrame []byte
	if l.tryDelta {
		d := *msg
		d.FromVersion, d.Delta, d.UpToDate = pb.deltaMsg.FromVersion, pb.deltaMsg.Replicas, l.upToDate
		deltaFrame = wire.Marshal(&d)
	}
	fullFrame := func() []byte {
		msg.Replicas = pb.payloads
		return wire.Marshal(msg)
	}
	key := pushKey{pb.lock, pb.version, l.site}
	ackCh := t.relayAcks.expect(key)
	defer t.relayAcks.drop(key)

	t.uplinkSends.Add(1)
	reg.Inc(obs.CRelayPushes)
	var ack *wire.RelayAck
	err = t.offerDeltaThenFull(deltaFrame, fullFrame, func(blob []byte) (bool, error) {
		// The wait is bounded by the control-message timeout, not the
		// transfer timeout: a dead relay should cost one fast timeout before
		// its bucket degrades, not stall the release for a bulk-transfer
		// grace period.
		sendCtx, cancel := context.WithTimeout(ctx, t.node.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()
		if err := t.port.Send(sendCtx, addr, blob); err != nil {
			return false, err
		}
		select {
		case ack = <-ackCh:
			lat := time.Since(start)
			t.tracker.ObserveAck(l.site, lat)
			reg.Inc(obs.CRelayAcks)
			reg.Observe(obs.HRelayHop, lat)
			return !ack.NeedFull, nil
		case <-sendCtx.Done():
			return false, fmt.Errorf("await relay ack from site %d: %w", l.site, sendCtx.Err())
		}
	})
	if err != nil {
		if t.node.log.On() {
			t.node.log.Logf("fault", "relay push of lock %d v%d via site %d failed: %v", pb.lock, pb.version, l.site, err)
		}
		t.tracker.ObserveLoss(l.site)
		repair(bucket)
		return reached
	}
	// The relay timed its push to each member it reached: that is the one
	// distance the plan needs and this site cannot measure.
	for i, site := range ack.Acked.Sites() {
		t.tracker.ObserveHop(l.site, site, time.Duration(ack.HopMicros[i])*time.Microsecond)
	}
	// Route around members the relay could not reach.
	var missed []wire.SiteID
	for _, site := range bucket {
		if ack.Acked.Contains(site) {
			reached = append(reached, site)
		} else {
			missed = append(missed, site)
		}
	}
	if len(missed) > 0 {
		repair(missed)
	}
	return reached
}

// relayFan services a RelayPush on the bucket relay: apply the version
// locally, re-fan it to the bucket's remaining members, and answer the
// origin with the aggregated set of sites that confirmed application and
// the round trip each one's push took. A full-form push re-fans ordinary
// PushUpdates; a delta-form push is patched in through applyDelta and
// re-fanned down the same delta-then-full ladder as a direct push, with the
// full copy served from this site's post-apply payload cache. A delta this site cannot apply is answered need-full with
// nothing applied or re-fanned. Runs on its own goroutine — the re-fan
// takes member round trips and must not stall the transfer port's
// dispatcher.
func (t *transferService) relayFan(msg *wire.RelayPush, replyTo string) {
	n := t.node
	if n.fireFault(FaultContext{
		Point: FPDropRelayFan, Peer: msg.Origin, Lock: msg.Lock, Version: msg.Version,
	}).Drop {
		// The relay "dies" mid-push: nothing applied, nothing re-fanned,
		// no ack — the origin times out and direct-pushes the bucket.
		return
	}
	reg := n.obs()
	ack := &wire.RelayAck{Lock: msg.Lock, Relay: n.cfg.Site, Version: msg.Version}
	var delta *wire.ReplicaDelta
	if len(msg.Delta) > 0 {
		delta = &wire.ReplicaDelta{
			Lock: msg.Lock, From: msg.Origin, Version: msg.Version,
			FromVersion: msg.FromVersion, Push: true, Replicas: msg.Delta,
		}
		if err := n.applyDelta(delta); err != nil {
			if n.log.On() {
				n.log.Logf("xfer", "relay delta of lock %d v%d from site %d rejected: %v", msg.Lock, msg.Version, msg.Origin, err)
			}
			ack.NeedFull = true
			t.sendRelayAck(ack, replyTo)
			return
		}
	} else {
		n.applyPayloads(msg.Lock, msg.Version, msg.Replicas, "relay", msg.Origin)
	}

	var (
		ackMu sync.Mutex
		hops  = make(map[wire.SiteID]time.Duration)
	)
	payloads := msg.Replicas
	st := n.getLockLocal(msg.Lock)
	st.mu.Lock()
	// Count this site only if the apply actually installed the version (or
	// it was already held): an unmarshal failure must not be reported
	// upstream as an up-to-date copy.
	if st.version >= msg.Version {
		ack.Acked.Add(n.cfg.Site)
	}
	if delta != nil && st.cachedPayloads != nil && st.cachedVersion == msg.Version {
		payloads = st.cachedPayloads
	}
	st.mu.Unlock()

	members := make([]wire.SiteID, 0, msg.Targets.Len())
	for _, s := range msg.Targets.Sites() {
		if s != n.cfg.Site && s != msg.Origin {
			members = append(members, s)
		}
	}
	if n.histEnabled() {
		n.recordHist(wire.HistoryEvent{
			Kind: wire.HistRelay, Site: n.cfg.Site, Lock: msg.Lock,
			Version: msg.Version, Sites: wire.NewSiteSet(members...),
			Note: "re-fan",
		})
	}

	if len(members) > 0 {
		pb := t.preparePushBlob(msg.Lock, msg.Version, payloads, delta)
		p := planDissemination(members, msg.UpToDate, len(members), delta != nil, nil, 0, n.cfg.DisseminationFanout)
		p.run(false, func(l leg) error {
			start := time.Now()
			if err := t.pushTo(context.Background(), l.site, pb, l.tryDelta); err != nil {
				if n.log.On() {
					n.log.Logf("fault", "relay re-fan failed: %v", err)
				}
				return err
			}
			hop := time.Since(start)
			reg.Inc(obs.CRelayFanout)
			ackMu.Lock()
			ack.Acked.Add(l.site)
			hops[l.site] = hop
			ackMu.Unlock()
			return nil
		})
	}
	// Each acked member's push round trip rides the ack: it is this site's
	// distance to the member, which the origin's plan clusters on.
	for _, site := range ack.Acked.Sites() {
		ack.HopMicros = append(ack.HopMicros, uint32(min(hops[site].Microseconds(), math.MaxUint32)))
	}
	t.sendRelayAck(ack, replyTo)
}

// sendRelayAck answers a RelayPush's origin.
func (t *transferService) sendRelayAck(ack *wire.RelayAck, replyTo string) {
	ctx, cancel := context.WithTimeout(context.Background(), t.node.cfg.RequestTimeout)
	defer cancel()
	if err := t.port.Send(ctx, replyTo, wire.Marshal(ack)); err != nil {
		if t.node.log.On() {
			t.node.log.Logf("fault", "relay ack of lock %d v%d to %s failed: %v", ack.Lock, ack.Version, replyTo, err)
		}
	}
}
