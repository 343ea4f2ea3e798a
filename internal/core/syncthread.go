package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// banRecord is the compact in-memory form of one permanent ban: which
// lock's lease expired and which site's heartbeat went unanswered. Bans
// are forever — "an application thread that fails in this manner is
// prevented from making future requests" — so the table must not evict;
// keeping two integers per thread instead of a reason string makes
// permanence affordable (the FIFO-evicting table this replaces silently
// un-banned the oldest threads once it overflowed).
type banRecord struct {
	lock wire.LockID
	site wire.SiteID
}

// banReason reconstructs the human-readable reason for a ban on demand.
// Lease breaks are the only ban cause, so the record determines the text.
func banReason(r banRecord) string {
	return fmt.Sprintf("lease expired on lock %d and heartbeat to site %d failed", r.lock, r.site)
}

// syncThread is the synchronization thread of Figure 7: the home-site
// manager "responsible for granting locks, queuing requests, and deducing
// whether a new version of replicas must be sent to an application
// thread", extended with the Section 4 refinements: up-to-date set
// tracking from push dissemination, transfer-failure recovery by polling
// daemons, lock leases with heartbeat-confirmed breaking, and banning of
// failed threads.
//
// The lock table is sharded by LockID, and each syncLock is a small state
// machine serialized by its own mutex. Protocol decisions (queueing, grant
// choice, version bookkeeping) run under that mutex; every network send —
// grant delivery, transfer directives, daemon polls, heartbeats — runs on
// completion-style workers that re-enter the state machine with the
// outcome. No mutex is ever held across network I/O, so the port
// dispatcher never blocks on a peer and a dead grantee on one lock cannot
// delay traffic on any other lock (S30).
type syncThread struct {
	node  *Node
	port  *mnet.Port // main handler: ACQUIRELOCK / RELEASELOCK / REGISTERREPLICA
	aux   *mnet.Port // outbound probes: transfer directives, polls, heartbeats
	epoch uint32

	shards []*syncShard

	// home carries the home model's routing, migration and standby state;
	// on the paper's fixed home it is a ring of one.
	home *homeState

	bannedMu sync.Mutex
	banned   map[wire.ThreadID]banRecord

	pollMu      sync.Mutex
	pollWaiters map[uint64]chan *wire.PollVersionReply
	nextNonce   atomic.Uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	sweepWG  sync.WaitGroup
}

// syncLock is the per-lock record ("Lock object") at the home site. Its
// mutex serializes all state transitions; holders of mu must not perform
// network I/O or take any other lock-table mutex.
type syncLock struct {
	id wire.LockID

	mu      sync.Mutex
	version uint64
	// highWater is the highest version ever committed for this lock, or
	// possibly published by an exclusive holder whose lease was broken. It
	// never decreases: Section 4 recovery may rewrite version downward to
	// the best surviving copy, but grants carry highWater as a floor so
	// the recovered lineage never reuses a version number.
	highWater uint64
	lastOwner wire.SiteID
	upToDate  wire.SiteSet
	// dirty is the set of sites whose copy a broken exclusive hold may
	// have scribbled on (the holder died mid-hold without a committed
	// release). Recovery polls skip them: such a site would label
	// uncommitted bytes with its stale version number. A site leaves the
	// set when a committed release lists it as up to date again.
	dirty   wire.SiteSet
	sharers wire.SiteSet
	names   map[string]bool
	// fence is the fencing-token counter: the highest token ever minted
	// for this lock. Tokens compose the manager epoch (high 32 bits) with
	// a per-epoch sequence, so a promotion or handoff — whose shadow of
	// this counter may be stale — mints under its strictly larger epoch
	// and can never re-issue or regress a token the old home handed out.
	fence uint64

	holder  *holderInfo
	readers map[wire.ThreadID]*holderInfo
	queue   []*lockRequest

	// Home-model state. frozen marks a record mid-handoff: requests still
	// queue behind it but nothing is granted until the migration commits or
	// aborts. moved is the tombstone left by a committed handoff — the
	// record stays in the table (redirecting under its own mutex, which
	// makes the commit/acquire race airtight) until the sweep collects it.
	frozen    bool
	moved     *homeRoute
	homeEpoch uint32
	// acq tallies acquires per requesting site since the last decay; the
	// sweep migrates the home toward a site with a dominant tally.
	acq      map[wire.SiteID]uint64
	acqTotal uint64
	// standbySeq orders this record's standby snapshots: streams run
	// outside l.mu, so a late stale snapshot must not overwrite a newer
	// one at the standby.
	standbySeq uint64
}

// holderInfo records one granted hold. Workers keep the pointer as a
// session token: before acting on a completion outcome they re-validate
// that this exact hold is still installed, so a release, break, or
// re-grant that happened while the I/O was in flight voids the session.
type holderInfo struct {
	site      wire.SiteID
	thread    wire.ThreadID
	grantedAt time.Time
	lease     time.Duration
	shared    bool
	// probing marks an in-flight lease-expiry heartbeat so overlapping
	// sweeps do not double-probe the same hold. Guarded by the lock's mu.
	probing bool
	// restored marks a hold re-installed from a handoff record or standby
	// shadow rather than granted here. The client may have released it
	// into the dead home; if the same thread re-acquires, the stale hold
	// is broken instead of deadlocking the queue behind a ghost.
	restored bool
	// fence is the fencing token minted for this hold; a revised grant
	// re-issuing the hold carries the same token.
	fence uint64
}

type lockRequest struct {
	site   wire.SiteID
	thread wire.ThreadID
	shared bool
	// have is the replica version the requester reported holding, passed
	// through to the transfer source so it can ship a delta.
	have  uint64
	lease time.Duration
	// recorded reports whether the request's HistAcquire has been
	// written. Requests queued against a frozen record defer it: the
	// release or break whose standby stream froze the record must be
	// recorded first, or the history would show this acquire (possibly by
	// the very thread mid-release) sequenced before the release it
	// follows. recordRequest backfills it at unfreeze or grant time.
	recorded bool
}

// recordRequest backfills the deferred HistAcquire of a request queued
// while its record was frozen. Callers either hold l.mu or own the
// request exclusively (a drained queue entry).
func (s *syncThread) recordRequest(lock wire.LockID, q *lockRequest) {
	if q.recorded {
		return
	}
	q.recorded = true
	s.node.recordHist(wire.HistoryEvent{
		Kind:    wire.HistAcquire,
		Site:    q.site,
		Thread:  q.thread,
		Lock:    lock,
		Version: q.have,
		Shared:  q.shared,
	})
}

// recordDeferredLocked backfills every deferred acquire in queue order;
// the caller holds l.mu and has just recorded the transition that froze
// the record.
func (s *syncThread) recordDeferredLocked(l *syncLock) {
	for _, q := range l.queue {
		s.recordRequest(l.id, q)
	}
}

// newSyncThread starts the manager at an epoch: 1 for a site the ring
// names, one past the restored state's for a surrogate.
func newSyncThread(n *Node, epoch uint32) (*syncThread, error) {
	port, err := n.ep.OpenPort(PortSync)
	if err != nil {
		return nil, err
	}
	aux, err := n.ep.OpenPort(PortSyncAux)
	if err != nil {
		return nil, err
	}
	s := &syncThread{
		node:        n,
		port:        port,
		aux:         aux,
		epoch:       epoch,
		shards:      newShards(syncShards),
		banned:      make(map[wire.ThreadID]banRecord),
		pollWaiters: make(map[uint64]chan *wire.PollVersionReply),
		stopCh:      make(chan struct{}),
	}
	s.home = newHomeState(s)
	port.SetHandler(s.handle)
	aux.SetHandler(s.handleAux)
	s.sweepWG.Add(1)
	go s.leaseSweep()
	return s, nil
}

// stop terminates the sweep and standby-monitor goroutines. Outstanding
// completion workers are not waited for: their sends fail fast once the
// endpoint closes, and re-entering the state machine afterwards only
// touches memory.
func (s *syncThread) stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.home.retire()
	s.sweepWG.Wait()
}

// Epoch returns the manager's incarnation number.
func (s *syncThread) Epoch() uint32 { return s.epoch }

// run starts one completion worker per action produced by a state
// transition. Actions must only be run after every lock mutex is
// released.
func (s *syncThread) run(actions []func()) {
	for _, f := range actions {
		go f()
	}
}

// handle is the main dispatcher loop body of Figure 7. It must never
// block on a peer: every arm ends by handing I/O to completion workers.
func (s *syncThread) handle(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		if s.node.log.On() {
			s.node.log.Logf("sync", "bad message: %v", err)
		}
		return
	}
	switch msg := p.(type) {
	case *wire.AcquireLock:
		s.onAcquire(msg)
	case *wire.ReleaseLock:
		s.onRelease(msg)
	case *wire.RegisterReplica:
		s.onRegister(msg)
	case *wire.HandoffRecord:
		s.onHandoff(msg)
	case *wire.HandoffAck:
		s.home.onHandoffAck(msg)
	case *wire.StandbyUpdate:
		s.home.onStandbyUpdate(msg)
	default:
		if s.node.log.On() {
			s.node.log.Logf("sync", "unhandled %s on sync port", p.Kind())
		}
	}
}

// handleAux routes probe replies.
func (s *syncThread) handleAux(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		return
	}
	switch msg := p.(type) {
	case *wire.PollVersionReply:
		s.pollMu.Lock()
		ch := s.pollWaiters[msg.Nonce]
		s.pollMu.Unlock()
		if ch != nil {
			// The waiter sizes the channel to the number of daemons it
			// asked, so one reply per daemon always fits; the default arm
			// only discards duplicates and stragglers past the deadline.
			select {
			case ch <- msg:
			default:
			}
		}
	case *wire.HeartbeatAck:
		// Liveness is established by the probe send being acknowledged at
		// the MNet level; the explicit ack needs no routing.
	default:
	}
}

// onAcquire implements the ACQUIRELOCK arm of Figure 7, extended with
// mobile-home routing: a manager that is not (or no longer) the lock's
// home answers NackNotHome with the best forwarding address instead of
// serving, so a client chasing a migrated lock converges in one hop.
func (s *syncThread) onAcquire(msg *wire.AcquireLock) {
	hs := s.home
	l := s.lookupLock(msg.Lock)
	if l == nil {
		if route := hs.elsewhere(msg.Lock); route != nil {
			hs.redirectTo(msg, route)
			return
		}
		s.recordAcquire(msg)
		if reason, isBanned := s.bannedReason(msg.Thread); isBanned {
			s.refuseBanned(msg, reason)
			return
		}
		// No daemon has ever registered this lock: refuse rather than
		// fabricate a record an arbitrary acquirer could grow forever.
		if s.node.log.On() {
			s.node.log.Logf("sync", "refusing acquire of unregistered lock %d by thread %d", msg.Lock, msg.Thread)
		}
		s.recordNack(msg, "lock never registered")
		go s.nackAction(msg, wire.NackUnknownLock, "lock never registered")()
		return
	}
	lease := s.node.cfg.DefaultLease
	if msg.LeaseMillis > 0 {
		lease = time.Duration(msg.LeaseMillis) * time.Millisecond
	}
	l.mu.Lock()
	// A tombstone redirects under its own mutex: a commitMove sets it before
	// draining the queue, so either the drain nacks a request or this does.
	if route := l.moved; route != nil {
		l.mu.Unlock()
		hs.redirectTo(msg, route)
		return
	}
	// The manager will serve the request, so a stale restored hold by the
	// same requester is broken first: the checker must never see a holder
	// queue behind its own ghost.
	hs.breakStaleRestoredLocked(l, msg.Thread)
	// Duplicate suppression, checked before the acquire is recorded so a
	// re-sent request never queues twice. A client whose request was
	// already served re-sends it when the answer (or the transport ack)
	// was lost — most often chasing a lock across a home failover. A
	// request from the current holder is answered with a revised grant
	// re-issuing the existing hold; a request already queued rides the
	// grant the first copy will get (same delivery key at the client).
	if h := s.holdOfLocked(l, msg.Thread); h != nil {
		req := &lockRequest{site: msg.Requester, thread: msg.Thread, shared: h.shared, have: msg.HaveVersion, lease: h.lease}
		if msg.HaveVersion < l.version && l.upToDate.Contains(msg.Requester) {
			// Same demotion as tryGrantLocked: the requester knows its
			// own replicas better than our bookkeeping does.
			l.upToDate.Remove(msg.Requester)
		}
		flag := wire.VersionOK
		if l.version > 0 && !l.upToDate.Contains(msg.Requester) {
			flag = wire.NeedNewVersion
		}
		g := s.buildGrantLocked(l, req, l.version, flag, true, h.fence)
		s.recordGrant(l, g, msg.Requester)
		plan := s.planTransferLocked(l, g, msg.Requester)
		l.mu.Unlock()
		if s.node.log.On() {
			s.node.log.Logf("sync", "re-issuing held lock %d to thread %d as a revised grant", msg.Lock, msg.Thread)
		}
		go s.deliverGrant(l, req, h, g, plan)
		return
	}
	for _, q := range l.queue {
		if q.thread == msg.Thread {
			l.mu.Unlock()
			return
		}
	}
	// Recorded before the ban check, so an acquire that slips past a
	// concurrent ban is correctly sequenced before it — but deferred
	// while the record is frozen mid-stream: the pending release or break
	// record must land first to keep the history in protocol order.
	if !l.frozen {
		s.recordAcquire(msg)
	}
	if reason, isBanned := s.bannedReason(msg.Thread); isBanned {
		frozen := l.frozen
		l.mu.Unlock()
		if frozen {
			s.recordAcquire(msg)
		}
		s.refuseBanned(msg, reason)
		return
	}
	hs.noteAcquireLocked(l, msg)
	l.queue = append(l.queue, &lockRequest{
		site:     msg.Requester,
		thread:   msg.Thread,
		shared:   msg.Shared,
		have:     msg.HaveVersion,
		lease:    lease,
		recorded: !l.frozen,
	})
	s.node.obs().GaugeAdd(obs.GSyncQueueDepth, 1)
	s.node.obs().ShardDepthAdd(int(uint32(msg.Lock)%uint32(len(s.shards))), 1)
	actions := s.tryGrantLocked(l)
	l.mu.Unlock()
	s.run(actions)
}

// recordAcquire adds an ACQUIRELOCK to the history. For queued requests the
// caller holds the lock's mu, so the event is sequenced against the grants
// and releases of the same lock.
func (s *syncThread) recordAcquire(msg *wire.AcquireLock) {
	s.node.recordHist(wire.HistoryEvent{
		Kind:    wire.HistAcquire,
		Site:    msg.Requester,
		Thread:  msg.Thread,
		Lock:    msg.Lock,
		Version: msg.HaveVersion,
		Shared:  msg.Shared,
	})
}

// recordNack adds a refusal to the history, closing the acquire it answers.
func (s *syncThread) recordNack(msg *wire.AcquireLock, reason string) {
	s.node.recordHist(wire.HistoryEvent{
		Kind:   wire.HistNack,
		Site:   msg.Requester,
		Thread: msg.Thread,
		Lock:   msg.Lock,
		Note:   reason,
	})
}

// nackAction builds a deferred LockNack delivery.
func (s *syncThread) nackAction(msg *wire.AcquireLock, code wire.NackCode, reason string) func() {
	nack := &wire.LockNack{Lock: msg.Lock, Thread: msg.Thread, Code: code, Reason: reason}
	site := msg.Requester
	return func() { s.sendToClient(site, nack) }
}

// onRelease implements the RELEASELOCK arm of Figure 7, with the Section 4
// refinement that the release carries the set of daemons holding the new
// version from push dissemination.
//
// A release for a lock this manager does not home follows a migration's
// route when one is known and is otherwise dropped (see forwardRelease).
func (s *syncThread) onRelease(msg *wire.ReleaseLock) {
	hs := s.home
	l := s.lookupLock(msg.Lock)
	if l == nil {
		if route := hs.routeFor(msg.Lock); route != nil && route.to != hs.self {
			hs.forwardRelease(msg, route)
		}
		return
	}
	l.mu.Lock()
	if route := l.moved; route != nil && route.to != hs.self {
		l.mu.Unlock()
		hs.forwardRelease(msg, route)
		return
	}
	switch {
	case l.holder != nil && l.holder.thread == msg.Thread:
		l.holder = nil
	case l.readers[msg.Thread] != nil:
		delete(l.readers, msg.Thread)
	default:
		// A stale release: the lock was broken while this thread held it.
		l.mu.Unlock()
		if s.node.log.On() {
			s.node.log.Logf("sync", "ignoring stale release of lock %d by thread %d", msg.Lock, msg.Thread)
		}
		return
	}

	relSites := msg.UpToDate
	if !msg.Aborted && !msg.Shared {
		l.version = msg.NewVersion
		if msg.NewVersion > l.highWater {
			l.highWater = msg.NewVersion
		}
		l.lastOwner = msg.Releaser
		up := msg.UpToDate.Clone()
		up.Add(msg.Releaser)
		l.upToDate = up
		relSites = up
		// Every site holding the newly committed version has had its
		// content replaced wholesale; earlier contamination is gone.
		for _, site := range up.Sites() {
			l.dirty.Remove(site)
		}
		if s.node.log.On() {
			s.node.log.Log("sync", "lock released",
				obs.I("lock", int64(msg.Lock)), obs.I("version", int64(l.version)),
				obs.I("site", int64(msg.Releaser)), obs.S("up_to_date", l.upToDate.String()))
		}
	}
	relEv := wire.HistoryEvent{
		Kind:    wire.HistRelease,
		Site:    msg.Releaser,
		Thread:  msg.Thread,
		Lock:    msg.Lock,
		Version: msg.NewVersion,
		Shared:  msg.Shared,
		Aborted: msg.Aborted,
		Sites:   relSites,
	}
	if hs.hasStandby() && l.moved == nil && !l.frozen {
		// Stream-first: the standby must hold this state before the
		// release is durable. Recording first would open a window where
		// the home dies with the release committed but the standby still
		// showing the old holder and version — promotion would then
		// restore a stale version floor (re-issuing a committed number)
		// and accept the client's retried release a second time. Frozen
		// blocks grants (and migration) until the record lands; the send
		// happens off the dispatcher, outside every mutex. If the push
		// failed because this home is closing, the standby will promote
		// without the release: it is lost, left to the lease, unrecorded.
		l.frozen = true
		push := hs.standbyPushLocked(l)
		l.mu.Unlock()
		go func() {
			if !push() && s.node.isClosed() {
				return
			}
			l.mu.Lock()
			s.node.recordHist(relEv)
			s.recordDeferredLocked(l)
			l.frozen = false
			actions := s.tryGrantLocked(l)
			l.mu.Unlock()
			s.run(actions)
		}()
		return
	}
	s.node.recordHist(relEv)
	actions := s.tryGrantLocked(l)
	if push := hs.standbyActionLocked(l); push != nil {
		actions = append(actions, push)
	}
	l.mu.Unlock()
	s.run(actions)
}

// onRegister implements REGISTERREPLICA: startup and initialization. This
// is the only client-driven message that creates lock records.
func (s *syncThread) onRegister(msg *wire.RegisterReplica) {
	hs := s.home
	l, created := s.lookupLock(msg.Lock), false
	if l == nil {
		if route := hs.elsewhere(msg.Lock); route != nil {
			hs.forwardRegister(msg, route.to, route.epoch)
			return
		}
		l, created = s.ensureLockCreated(msg.Lock)
	}
	l.mu.Lock()
	if route := l.moved; route != nil {
		l.mu.Unlock()
		hs.forwardRegister(msg, route.to, route.epoch)
		return
	}
	if created {
		hs.noteCreatedLocked(l)
	}
	l.sharers.Add(msg.Site)
	for _, name := range msg.Names {
		l.names[name] = true
	}
	seeded := false
	if msg.Creator && l.version == 0 {
		l.version = 1
		if l.highWater < 1 {
			l.highWater = 1
		}
		l.lastOwner = msg.Site
		l.upToDate = wire.NewSiteSet(msg.Site)
		s.node.recordHist(wire.HistoryEvent{
			Kind: wire.HistRegister, Site: msg.Site, Lock: msg.Lock, Version: 1, Note: "creator",
		})
		seeded = true
	} else {
		s.node.recordHist(wire.HistoryEvent{Kind: wire.HistRegister, Site: msg.Site, Lock: msg.Lock})
	}
	standby := hs.standbyActionLocked(l)
	l.mu.Unlock()
	if standby != nil {
		go standby()
	}
	if seeded && s.node.log.On() {
		s.node.log.Logf("sync", "lock %d seeded at v1 by creator site %d", msg.Lock, msg.Site)
	}
}

// debugIgnoreHolder is a test-only switch that re-introduces a double-grant
// bug — granting the head of the queue while a holder is still installed —
// so the regression fixture can prove the history checker catches exactly
// this class of defect. Never set outside tests.
var debugIgnoreHolder bool

// transferPlan is the replica transfer a NEEDNEWVERSION grant implies,
// resolved in the same l.mu hold that decided the grant: which daemon owns
// the newest copy, at which version, and whether that copy is clean. The
// delivery worker acts on this snapshot, so the directive names the same
// source no matter when the worker runs or what is released meanwhile.
type transferPlan struct {
	src     wire.SiteID
	version uint64
	// usable reports that src holds a clean copy and is not the grantee
	// itself; otherwise no directive is sent and delivery goes straight to
	// the recovery poll, where dirty sites answer HasData=false.
	usable bool
}

// planTransferLocked resolves the transfer a grant to dest implies, or nil
// for a VERSIONOK grant; the caller holds l.mu.
func (s *syncThread) planTransferLocked(l *syncLock, g *wire.Grant, dest wire.SiteID) *transferPlan {
	if g.Flag != wire.NeedNewVersion {
		return nil
	}
	src := l.lastOwner
	return &transferPlan{
		src:     src,
		version: l.version,
		usable:  src != dest && l.upToDate.Contains(src),
	}
}

// tryGrantLocked hands the lock to the next compatible queued requests.
// The caller holds l.mu. Holds are installed optimistically and the grant
// deliveries returned as completion actions; an undeliverable grant
// re-enters through the failure branch of deliverGrant, which removes the
// hold and tries the next requester.
func (s *syncThread) tryGrantLocked(l *syncLock) []func() {
	var actions []func()
	// A frozen record is mid-handoff and a moved one is a tombstone:
	// neither may grant (the new home will, once the client re-routes).
	for !l.frozen && l.moved == nil && len(l.queue) > 0 && (l.holder == nil || debugIgnoreHolder) {
		head := l.queue[0]
		if !head.shared && len(l.readers) > 0 {
			break
		}
		l.queue = l.queue[1:]
		s.node.obs().GaugeAdd(obs.GSyncQueueDepth, -1)
		s.node.obs().ShardDepthAdd(int(uint32(l.id)%uint32(len(s.shards))), -1)
		h := &holderInfo{
			site: head.site, thread: head.thread,
			grantedAt: time.Now(), lease: head.lease, shared: head.shared,
			fence: s.mintFenceLocked(l),
		}
		if head.shared {
			l.readers[head.thread] = h
		} else {
			l.holder = h
		}
		if head.have < l.version && l.upToDate.Contains(head.site) {
			// The requester reports an older version than the bookkeeping
			// credits it with: it restarted and lost (some of) its state,
			// or its uncommitted copy disqualified itself (have=0). The
			// requester is authoritative about its own replicas — stale
			// up-to-date entries otherwise grant VERSIONOK to an empty
			// site, which would read bytes that are not the version's.
			l.upToDate.Remove(head.site)
		}
		flag := wire.VersionOK
		if l.version > 0 && !l.upToDate.Contains(head.site) {
			// "The synchronization thread relies on the method
			// lastLockOwner() to determine the value of the flag" — here
			// generalized to the up-to-date set, which always contains
			// the last owner.
			flag = wire.NeedNewVersion
		}
		g := s.buildGrantLocked(l, head, l.version, flag, false, h.fence)
		s.recordRequest(l.id, head)
		s.recordGrant(l, g, head.site)
		plan := s.planTransferLocked(l, g, head.site)
		req := head
		actions = append(actions, func() { s.deliverGrant(l, req, h, g, plan) })
		if !head.shared {
			break
		}
	}
	return actions
}

// recordGrant adds a GRANT to the history; the caller holds l.mu, so the
// event sits exactly where the hold was installed in the lock's timeline.
// AuxVersion carries the fencing token so the checker can enforce that
// tokens never regress across grants, handoffs, and promotions.
func (s *syncThread) recordGrant(l *syncLock, g *wire.Grant, site wire.SiteID) {
	s.node.recordHist(wire.HistoryEvent{
		Kind:       wire.HistGrant,
		Site:       site,
		Thread:     g.Thread,
		Lock:       l.id,
		Version:    g.Version,
		AuxVersion: g.Fence,
		Flag:       g.Flag,
		Shared:     g.Shared,
		Revised:    g.Revised,
		Sites:      g.UpToDate,
	})
}

// mintFenceLocked issues the lock's next fencing token: the manager epoch
// in the high 32 bits, a per-epoch sequence below. Within one epoch the
// counter increments; after a handoff or standby promotion the strictly
// larger epoch jumps the token past everything the old home could have
// minted — even when the promoted standby's shadow of the counter was
// stale. The caller holds l.mu.
func (s *syncThread) mintFenceLocked(l *syncLock) uint64 {
	epoch := uint64(s.epoch)
	if uint64(l.homeEpoch) > epoch {
		epoch = uint64(l.homeEpoch)
	}
	next := l.fence + 1
	if floor := epoch<<32 | 1; next < floor {
		next = floor
	}
	l.fence = next
	return next
}

// buildGrantLocked assembles a GRANT from the lock's current state; the
// caller holds l.mu. fence is the hold's fencing token: freshly minted for
// a new hold, the hold's existing token for a revised re-issue.
func (s *syncThread) buildGrantLocked(l *syncLock, req *lockRequest, version uint64, flag wire.VersionFlag, revised bool, fence uint64) *wire.Grant {
	return &wire.Grant{
		Lock:         l.id,
		Thread:       req.thread,
		Version:      version,
		Flag:         flag,
		Shared:       req.shared,
		Epoch:        s.epoch,
		Sharers:      l.sharers.Clone(),
		UpToDate:     l.upToDate.Clone(),
		Revised:      revised,
		VersionFloor: l.highWater,
		Fence:        fence,
	}
}

// holdOfLocked returns the thread's current hold on l, exclusive or
// shared, or nil; the caller holds l.mu.
func (s *syncThread) holdOfLocked(l *syncLock, t wire.ThreadID) *holderInfo {
	if l.holder != nil && l.holder.thread == t {
		return l.holder
	}
	return l.readers[t]
}

// refuseBanned nacks a request from a banned thread — "an application
// thread that fails in this manner is prevented from making future
// requests."
func (s *syncThread) refuseBanned(msg *wire.AcquireLock, reason string) {
	if s.node.log.On() {
		s.node.log.Logf("sync", "refusing banned thread %d: %s", msg.Thread, reason)
	}
	s.recordNack(msg, reason)
	go s.nackAction(msg, wire.NackBanned, reason)()
}

// holdCurrentLocked reports whether the hold h is still the installed one;
// the caller holds l.mu. Pointer identity distinguishes this grant session
// from any later re-grant to the same thread.
func (s *syncThread) holdCurrentLocked(l *syncLock, h *holderInfo) bool {
	if h.shared {
		return l.readers[h.thread] == h
	}
	return l.holder == h
}

// dropHoldLocked removes the hold h if it is still installed, reporting
// whether it was; the caller holds l.mu.
func (s *syncThread) dropHoldLocked(l *syncLock, h *holderInfo) bool {
	if !s.holdCurrentLocked(l, h) {
		return false
	}
	if h.shared {
		delete(l.readers, h.thread)
	} else {
		l.holder = nil
	}
	return true
}

// leaseSweep periodically scans held locks for expired leases: "The
// synchronization thread can periodically peruse its list of held locks to
// determine if any threads are holding locks for an extraordinary amount
// of time and therefore a candidate for being a failed thread."
func (s *syncThread) leaseSweep() {
	defer s.sweepWG.Done()
	t := time.NewTicker(s.node.cfg.LeaseSweep)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweepOnce()
		case <-s.stopCh:
			return
		}
	}
}

// sweepOnce collects expired-lease suspects under the lock mutexes, then
// probes them on completion workers — the heartbeat never runs under any
// mutex, and the worker re-validates the hold before breaking it. It also
// garbage-collects empty lock records (no sharers, holds, or queue), which
// promotions can leave behind.
func (s *syncThread) sweepOnce() {
	now := time.Now()
	type suspect struct {
		l *syncLock
		h *holderInfo
	}
	var suspects []suspect
	// The manager judges hold age on its own clock; LeaseSkew models that
	// clock running fast (positive) or slow (negative) relative to the
	// holder's lease timer.
	skew := s.node.cfg.LeaseSkew
	expired := func(l *syncLock, h *holderInfo) bool {
		if now.Sub(h.grantedAt)+skew <= h.lease || h.probing {
			return false
		}
		h.probing = true
		suspects = append(suspects, suspect{l, h})
		return true
	}
	type departure struct {
		l  *syncLock
		to wire.SiteID
	}
	var departures []departure
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, l := range sh.locks {
			l.mu.Lock()
			if l.emptyLocked() {
				wasMoved := l.moved != nil
				delete(sh.locks, id)
				s.node.obs().GaugeAdd(obs.GSyncLocks, -1)
				l.mu.Unlock()
				s.home.noteCollected(id, wasMoved)
				if s.node.log.On() {
					s.node.log.Logf("sync", "collected empty record for lock %d", id)
				}
				continue
			}
			if to, ok := s.home.migrationTargetLocked(l); ok {
				l.frozen = true
				departures = append(departures, departure{l, to})
			}
			if h := l.holder; h != nil {
				expired(l, h)
			}
			for _, h := range l.readers {
				expired(l, h)
			}
			l.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	for _, sp := range suspects {
		sp := sp
		go s.checkHolder(sp.l, sp.h)
	}
	for _, d := range departures {
		d := d
		go s.home.migrate(d.l, d.to)
	}
}

// emptyLocked reports whether a lock record carries no state worth
// keeping; the caller holds the record's mu. A moved tombstone is
// collectible once its queue has drained regardless of the durable
// fields — the home-state moved map keeps routing for it — while a
// frozen record is never collected (a migration owns it).
func (l *syncLock) emptyLocked() bool {
	if l.moved != nil {
		return len(l.queue) == 0
	}
	if l.frozen {
		return false
	}
	return l.holder == nil && len(l.readers) == 0 && len(l.queue) == 0 &&
		l.sharers.Len() == 0 && len(l.names) == 0 && l.version == 0
}

// checkHolder confirms a lease-expiry suspicion with a heartbeat and
// breaks the lock if the holder is dead. The heartbeat runs outside all
// mutexes; the outcome is applied only if the same hold is still
// installed.
func (s *syncThread) checkHolder(l *syncLock, h *holderInfo) {
	addr, addrErr := s.node.daemonAddr(h.site)
	alive := false
	if addrErr == nil {
		alive = s.probe(addr)
	}

	l.mu.Lock()
	h.probing = false
	if !s.holdCurrentLocked(l, h) {
		// Released, broken, or re-granted while the probe was in flight.
		l.mu.Unlock()
		return
	}
	if addrErr != nil {
		l.mu.Unlock()
		return
	}
	if alive {
		// Alive but slow: extend one more lease rather than break a
		// healthy hold.
		h.grantedAt = time.Now()
		l.mu.Unlock()
		if s.node.log.On() {
			s.node.log.Logf("sync", "lock %d holder %d over lease but alive; extended", l.id, h.thread)
		}
		return
	}
	// "the synchronization thread can assume the application thread has
	// failed ... the synchronization thread can simply break the lock and
	// give it to the next application thread that desires it."
	s.dropHoldLocked(l, h)
	if !h.shared {
		// The dead holder may have mutated its replicas in place without a
		// committed release: its site's copy no longer vouches for the
		// committed version. Evict it from the up-to-date set and, if it
		// was the transfer source, redirect to a surviving clean copy.
		l.upToDate.Remove(h.site)
		l.dirty.Add(h.site)
		if l.lastOwner == h.site {
			if sites := l.upToDate.Sites(); len(sites) > 0 {
				l.lastOwner = sites[0]
			}
		}
		// It may also have got as far as publishing the next version and
		// pushing it to sharers before its release was lost (with its site,
		// or in the release carriage). That number is spent: the next writer
		// must not publish other bytes under it, or a sharer holding the
		// orphan would take the new push for a duplicate and acknowledge it.
		l.highWater++
	}
	s.node.obs().Inc(obs.CLeaseBreaks)
	breakEv := wire.HistoryEvent{
		Kind: wire.HistBreak, Site: h.site, Thread: h.thread, Lock: l.id,
	}
	var actions []func()
	if hs := s.home; hs.hasStandby() && l.moved == nil && !l.frozen {
		// Stream-first, mirroring onRelease: the standby must see the
		// hold cleared and the site marked dirty before the break is
		// durable, or a promotion could resurrect the broken hold and
		// direct transfers from the contaminated copy. This worker runs
		// outside every mutex, so the acked send can block inline.
		l.frozen = true
		push := hs.standbyActionLocked(l)
		l.mu.Unlock()
		push()
		l.mu.Lock()
		s.node.recordHist(breakEv)
		s.recordDeferredLocked(l)
		l.frozen = false
		actions = s.tryGrantLocked(l)
	} else {
		s.node.recordHist(breakEv)
		actions = s.tryGrantLocked(l)
		if push := s.home.standbyActionLocked(l); push != nil {
			actions = append(actions, push)
		}
	}
	l.mu.Unlock()
	s.ban(h.thread, l.id, h.site)
	if s.node.log.On() {
		s.node.log.Logf("fault", "broke lock %d held by dead thread %d at site %d", l.id, h.thread, h.site)
	}
	s.run(actions)
}

// probe sends one heartbeat, reporting whether the MNet-level ack arrived.
func (s *syncThread) probe(addr string) bool {
	hb := wire.Marshal(&wire.Heartbeat{Nonce: s.nextNonce.Add(1)})
	ctx, cancel := timeoutCtx(s.node.cfg.RequestTimeout)
	defer cancel()
	return s.aux.Send(ctx, addr, hb) == nil
}

// ban permanently records a failed thread. The table never evicts: a ban
// costs two integers, so even a long-lived home can afford every thread
// it has ever had to break.
func (s *syncThread) ban(t wire.ThreadID, lock wire.LockID, site wire.SiteID) {
	s.bannedMu.Lock()
	defer s.bannedMu.Unlock()
	if _, known := s.banned[t]; known {
		return
	}
	rec := banRecord{lock: lock, site: site}
	// Recorded under bannedMu: any acquire refused because of this ban
	// is sequenced after it.
	s.node.obs().Inc(obs.CBans)
	s.node.recordHist(wire.HistoryEvent{Kind: wire.HistBan, Thread: t, Note: banReason(rec)})
	s.banned[t] = rec
}

// bannedReason looks a thread up in the banned table.
func (s *syncThread) bannedReason(t wire.ThreadID) (string, bool) {
	s.bannedMu.Lock()
	defer s.bannedMu.Unlock()
	rec, ok := s.banned[t]
	if !ok {
		return "", false
	}
	return banReason(rec), true
}

// Banned reports whether a thread has been banned (for tests and tools).
func (s *syncThread) Banned(t wire.ThreadID) bool {
	_, ok := s.bannedReason(t)
	return ok
}

// checkInvariants verifies the protocol invariants over every lock record
// (used by tests after stress runs): at most one exclusive holder and
// never alongside readers, no holder or reader still queued, and the
// up-to-date set contained in the sharer set.
func (s *syncThread) checkInvariants() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, l := range sh.locks {
			l.mu.Lock()
			err := l.checkInvariantsLocked()
			l.mu.Unlock()
			if err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("lock %d: %w", id, err)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

func (l *syncLock) checkInvariantsLocked() error {
	if h := l.holder; h != nil {
		if h.shared {
			return errors.New("exclusive holder slot occupied by a shared hold")
		}
		if len(l.readers) > 0 {
			return fmt.Errorf("exclusive holder %d coexists with %d readers", h.thread, len(l.readers))
		}
	}
	for _, q := range l.queue {
		if l.holder != nil && q.thread == l.holder.thread {
			return fmt.Errorf("holder %d still queued", q.thread)
		}
		if _, ok := l.readers[q.thread]; ok {
			return fmt.Errorf("reader %d still queued", q.thread)
		}
	}
	for _, site := range l.upToDate.Sites() {
		if !l.sharers.Contains(site) {
			return fmt.Errorf("up-to-date site %d is not a sharer", site)
		}
	}
	return nil
}
