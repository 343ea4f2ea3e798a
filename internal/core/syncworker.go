package core

import (
	"context"
	"sync"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// This file holds the synchronization thread's completion workers: every
// network send the protocol needs — grant delivery, transfer directives,
// daemon polls, the revised grants of Section 4 recovery — runs here,
// outside all lock-table mutexes, and re-enters the per-lock state
// machine with the outcome. Workers carry the *holderInfo of the grant
// session they serve and re-validate it (pointer identity) before acting
// on lock state, so a session whose hold was released, broken, or
// re-granted while its I/O was in flight dies without side effects.

// timeoutCtx is shorthand for a background context with a deadline.
func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// deliverGrant sends a GRANT and, when the grant says NEEDNEWVERSION,
// directs the transfer of the newest replicas to the grantee. The directive
// leaves the home with the grant, not after its acknowledgment: it moves
// committed bytes between daemons and changes no lock-table state, so it
// needs neither the standby's nor the grantee's ack, and the replica data
// reaches the grantee three hops after its ACQUIRELOCK instead of five.
// Its outcome is joined only once the GRANT is delivered, so recovery and
// every revised grant still follow the original grant on the wire. A failed
// delivery means the requester died: the worker re-enters the state
// machine, removes the optimistically installed hold, and grants the next
// requester; the directive's outcome is then discarded.
func (s *syncThread) deliverGrant(l *syncLock, req *lockRequest, h *holderInfo, g *wire.Grant, plan *transferPlan) {
	var directive chan error
	if plan != nil && plan.usable {
		// Buffered: an undeliverable grant abandons the result, and the
		// sender must still exit when its RequestTimeout-bounded send does.
		directive = make(chan error, 1)
		go func() {
			directive <- s.sendDirective(l.id, plan.src, req.site, req.have, plan.version)
		}()
	}
	// Stream the hold to the standby before the grant leaves: once the
	// client holds the lock, the standby must already be able to restore
	// the lease if this home dies. Timed as standby_stream, so
	// grant_deliver below is the GRANT's send alone.
	s.home.streamHoldSync(l)
	deliverStart := time.Now()
	crashed := s.node.fireFault(FaultContext{
		Point: FPCrashBeforeGrant, Peer: req.site, Lock: l.id, Thread: req.thread, Version: g.Version,
	}).Drop
	if crashed || !s.sendToClient(req.site, g) {
		if s.node.log.On() {
			s.node.log.Logf("fault", "grant of lock %d undeliverable to site %d; skipping requester", l.id, req.site)
		}
		l.mu.Lock()
		var actions []func()
		if s.dropHoldLocked(l, h) {
			s.node.recordHist(wire.HistoryEvent{
				Kind: wire.HistGrantDropped, Site: req.site, Thread: req.thread, Lock: l.id,
			})
			actions = s.tryGrantLocked(l)
			// The standby already streamed this hold; retract it, or a
			// promotion would restore a hold nobody received and sit on
			// its lease.
			if push := s.home.standbyActionLocked(l); push != nil {
				actions = append(actions, push)
			}
		}
		l.mu.Unlock()
		s.run(actions)
		return
	}
	s.node.obs().Inc(obs.CGrants)
	s.node.obs().Observe(obs.HGrantDeliver, time.Since(deliverStart))
	// The standby already knows this hold (streamed above), so a hook may
	// kill the home here — the window the failover must cover.
	s.node.fireFault(FaultContext{
		Point: FPKillLockHome, Peer: req.site, Lock: l.id, Thread: req.thread, Version: g.Version,
	})
	if s.node.log.On() {
		s.node.log.Log("sync", "granted lock",
			obs.I("lock", int64(l.id)), obs.I("version", int64(g.Version)),
			obs.I("thread", int64(req.thread)), obs.I("site", int64(req.site)),
			obs.S("flag", g.Flag.String()))
	}

	if plan != nil {
		s.finishTransfer(l, req, h, plan, directive)
	}
}

// finishTransfer joins the directive deliverGrant launched, after the GRANT
// was delivered. On failure it runs the Section 4 recovery: poll the
// remaining daemons for "the most recent version of the replicas available"
// and, if only an older version survives, downgrade the grant.
func (s *syncThread) finishTransfer(l *syncLock, req *lockRequest, h *holderInfo, plan *transferPlan, directive <-chan error) {
	if directive == nil {
		// The last owner's copy was contaminated by a broken hold (its
		// daemon would refuse the directive anyway) or is the grantee's
		// own: go straight to the recovery poll, where dirty sites answer
		// HasData=false.
		if s.node.log.On() {
			s.node.log.Logf("fault", "transfer source %d for lock %d holds no clean copy; polling daemons", plan.src, l.id)
		}
		s.recoverTransfer(l, req, h, map[wire.SiteID]bool{})
		return
	}
	if err := <-directive; err == nil {
		return
	}
	if s.node.log.On() {
		s.node.log.Logf("fault", "transfer directive for lock %d to daemon %d timed out; polling daemons", l.id, plan.src)
	}
	s.recoverTransfer(l, req, h, map[wire.SiteID]bool{plan.src: true})
}

// sendDirective sends one TRANSFERREPLICA to a daemon. destVersion is the
// version the destination reported holding, letting the source offer a
// delta covering just the gap.
func (s *syncThread) sendDirective(lock wire.LockID, src, dest wire.SiteID, destVersion, version uint64) error {
	addr, err := s.node.daemonAddr(src)
	if err != nil {
		return err
	}
	dir := &wire.TransferReplica{
		Lock:        lock,
		Dest:        dest,
		Version:     version,
		DestVersion: destVersion,
		RequestID:   s.nextNonce.Add(1),
	}
	ctx, cancel := timeoutCtx(s.node.cfg.RequestTimeout)
	defer cancel()
	return s.aux.Send(ctx, addr, wire.Marshal(dir))
}

// recoverTransfer handles a dead transfer source. dead accumulates every
// source that has failed this session so the recovery terminates even if
// fallback daemons keep dying. The poll runs outside all mutexes; the
// version rewrite applies only if the grant session is still current.
func (s *syncThread) recoverTransfer(l *syncLock, req *lockRequest, h *holderInfo, dead map[wire.SiteID]bool) {
	best, found := s.pollDaemons(l, dead)

	l.mu.Lock()
	if !s.holdCurrentLocked(l, h) {
		// The grantee released (or was broken) while we polled; whoever
		// is granted next will rerun recovery against current state.
		l.mu.Unlock()
		if s.node.log.On() {
			s.node.log.Logf("fault", "abandoning transfer recovery for lock %d: hold by thread %d ended", l.id, req.thread)
		}
		return
	}
	if !found {
		// No surviving copy anywhere: tell the grantee to proceed with
		// whatever it has.
		l.lastOwner = req.site
		l.upToDate = wire.NewSiteSet(req.site)
		g := s.buildGrantLocked(l, req, l.version, wire.VersionOK, true, h.fence)
		s.node.recordHist(wire.HistoryEvent{
			Kind: wire.HistRecover, Site: req.site, Lock: l.id, Version: l.version, Note: "weakened-local",
		})
		s.recordGrant(l, g, req.site)
		l.mu.Unlock()
		if s.node.log.On() {
			s.node.log.Logf("fault", "no surviving copy of lock %d replicas; weakening to local state at site %d", l.id, req.site)
		}
		s.sendToClient(req.site, g)
		return
	}

	if best.Version < l.version {
		if s.node.log.On() {
			s.node.log.Logf("fault", "newest copy of lock %d lost; falling back to v%d at site %d (weakened consistency)",
				l.id, best.Version, best.Site)
		}
	}
	l.version = best.Version
	l.lastOwner = best.Site
	l.upToDate = wire.NewSiteSet(best.Site)
	s.node.recordHist(wire.HistoryEvent{
		Kind: wire.HistRecover, Site: best.Site, Lock: l.id, Version: best.Version, Note: "poll-best",
	})

	if best.Site == req.site {
		// The grantee itself holds the best surviving copy.
		g := s.buildGrantLocked(l, req, best.Version, wire.VersionOK, true, h.fence)
		s.recordGrant(l, g, req.site)
		l.mu.Unlock()
		s.sendToClient(req.site, g)
		return
	}
	g := s.buildGrantLocked(l, req, best.Version, wire.NeedNewVersion, true, h.fence)
	s.recordGrant(l, g, req.site)
	l.mu.Unlock()
	s.sendToClient(req.site, g)
	if err := s.sendDirective(l.id, best.Site, req.site, req.have, best.Version); err != nil {
		// The fallback daemon died too; recurse on the remaining set.
		if s.node.log.On() {
			s.node.log.Logf("fault", "fallback transfer source %d for lock %d also failed", best.Site, l.id)
		}
		dead[best.Site] = true
		s.recoverTransfer(l, req, h, dead)
	}
}

// pollDaemons queries every registered daemon except the known-dead ones
// for its local version. The probes fan out concurrently under one shared
// RequestTimeout deadline (the pre-S30 serial loop paid a fresh timeout
// per sharer, making recovery O(n × timeout)), and the reply channel is
// sized to the number of daemons asked so no reply is ever dropped. The
// reduction is deterministic: highest version wins, ties broken by lowest
// site ID.
func (s *syncThread) pollDaemons(l *syncLock, dead map[wire.SiteID]bool) (*wire.PollVersionReply, bool) {
	pollStart := time.Now()
	defer func() {
		s.node.obs().Observe(obs.HDaemonPoll, time.Since(pollStart))
	}()
	l.mu.Lock()
	sites := l.sharers.Sites()
	dirty := l.dirty.Clone()
	l.mu.Unlock()

	type target struct {
		site wire.SiteID
		addr string
	}
	targets := make([]target, 0, len(sites))
	for _, site := range sites {
		if dead[site] || dirty.Contains(site) {
			// A site whose broken hold contaminated its copy would answer
			// with uncommitted bytes under its stale version label.
			continue
		}
		addr, err := s.node.daemonAddr(site)
		if err != nil {
			continue
		}
		targets = append(targets, target{site: site, addr: addr})
	}
	if len(targets) == 0 {
		return nil, false
	}

	nonce := s.nextNonce.Add(1)
	ch := make(chan *wire.PollVersionReply, len(targets))
	s.pollMu.Lock()
	s.pollWaiters[nonce] = ch
	s.pollMu.Unlock()
	defer func() {
		s.pollMu.Lock()
		delete(s.pollWaiters, nonce)
		s.pollMu.Unlock()
	}()

	ctx, cancel := timeoutCtx(s.node.cfg.RequestTimeout)
	defer cancel()
	poll := wire.Marshal(&wire.PollVersion{Lock: l.id, Nonce: nonce})
	var delivered int32
	var deliveredMu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range targets {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.node.obs().Inc(obs.CDaemonPolls)
			if err := s.aux.Send(ctx, t.addr, poll); err != nil {
				if s.node.log.On() {
					s.node.log.Logf("fault", "poll of daemon %d failed: %v", t.site, err)
				}
				return
			}
			deliveredMu.Lock()
			delivered++
			deliveredMu.Unlock()
		}()
	}
	sendsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(sendsDone)
	}()

	// Collect until every asked daemon replied, every delivered poll has
	// been answered, or the shared deadline passes.
	var replies []*wire.PollVersionReply
	sendsComplete := false
collect:
	for len(replies) < len(targets) {
		if sendsComplete {
			deliveredMu.Lock()
			done := len(replies) >= int(delivered)
			deliveredMu.Unlock()
			if done {
				break
			}
		}
		select {
		case r := <-ch:
			replies = append(replies, r)
		case <-sendsDone:
			sendsComplete = true
			sendsDone = nil // select on nil blocks: fires once
		case <-ctx.Done():
			break collect
		}
	}

	var best *wire.PollVersionReply
	for _, r := range replies {
		if !r.HasData {
			continue
		}
		if best == nil || r.Version > best.Version ||
			(r.Version == best.Version && r.Site < best.Site) {
			best = r
		}
	}
	return best, best != nil
}

// sendToClient delivers a message to a site's client port, reporting
// success. A failed send is the failure-detection signal for requesters.
func (s *syncThread) sendToClient(site wire.SiteID, p wire.Payload) bool {
	addr, err := s.node.clientAddr(site)
	if err != nil {
		return false
	}
	ctx, cancel := timeoutCtx(s.node.cfg.RequestTimeout)
	defer cancel()
	// Grants and nacks are small fixed-layout frames on the hottest
	// control path; encode them straight into the packet buffer.
	return s.port.SendAppender(ctx, addr, wire.Appender{P: p}) == nil
}
