package check

import (
	"errors"
	"fmt"
	"strings"

	"mocha/internal/wire"
)

// The entry-consistency invariants the checker enforces, as sentinel errors
// so fixtures can assert on the exact violation class.
var (
	// ErrDualHolder: two exclusive holds, or an exclusive hold alongside
	// readers, existed at once.
	ErrDualHolder = errors.New("check: conflicting lock holders")
	// ErrHolderQueued: a thread holding a lock was queued for it again.
	ErrHolderQueued = errors.New("check: holder queued for its own lock")
	// ErrOrphanGrant: a grant was issued with no matching queued acquire or
	// current hold (for revised grants).
	ErrOrphanGrant = errors.New("check: grant without a matching acquire")
	// ErrVersionRegress: a release did not advance the committed version.
	ErrVersionRegress = errors.New("check: committed version regressed")
	// ErrGrantVersion: a grant did not carry the max committed version.
	ErrGrantVersion = errors.New("check: grant version differs from committed version")
	// ErrStaleRead: replica bytes observed under the lock (or installed for
	// a version) differ from the bytes the version's release published.
	ErrStaleRead = errors.New("check: replica bytes diverge from the committed version")
	// ErrUpToDateOverclaim: an up-to-date set named a site that never held
	// the claimed version's bytes.
	ErrUpToDateOverclaim = errors.New("check: up-to-date set exceeds replicas at the version")
	// ErrBannedRegrant: a banned thread's later request was granted.
	ErrBannedRegrant = errors.New("check: banned thread granted a lock")
	// ErrHomeChain: a lock's home moved outside the handoff protocol — a
	// non-home site shipped the record, or a site installed a record no
	// handoff addressed to it.
	ErrHomeChain = errors.New("check: lock home changed outside the handoff chain")
	// ErrTruncatedHistory: the recorder overflowed, so the history is a
	// prefix of the run and any verdict or coverage signature computed
	// from it is unsound.
	ErrTruncatedHistory = errors.New("check: history overflowed the recorder")
	// ErrFenceRegress: a grant carried a fencing token at or below one
	// already issued for the lock — a fenced resource could no longer tell
	// a live holder from a stale one.
	ErrFenceRegress = errors.New("check: fencing token did not advance")
)

// Violation reports the first invariant breach found in a history.
type Violation struct {
	Err    error
	Detail string
	// Events are the offending events: the one that tripped the invariant
	// last, preceded by the earlier events it conflicts with.
	Events []wire.HistoryEvent
}

// Error renders the violation with its offending events.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %s", v.Err, v.Detail)
	for _, ev := range v.Events {
		b.WriteString("\n  ")
		b.WriteString(ev.String())
	}
	return b.String()
}

// Unwrap lets errors.Is match the sentinel.
func (v *Violation) Unwrap() error { return v.Err }

// hold is one granted lock session as the checker tracks it.
type hold struct {
	thread wire.ThreadID
	site   wire.SiteID
	grant  wire.HistoryEvent
	// revisedAt is the version the most recent revised (post-recovery)
	// grant re-issued this hold at, 0 if never revised. A recovery can
	// poll the holder's published-but-unreleased version off a replica and
	// adopt it as the committed baseline before the holder releases; the
	// revised grant at that version marks the later same-version release
	// as the commit of an already-adopted version, not a regress.
	revisedAt uint64
	// fence is the fencing token the hold's most recent grant carried.
	// Revised re-issues must never hand this hold a smaller token.
	fence uint64
}

// lockState replays one lock's protocol state.
type lockState struct {
	committed uint64
	// fence is the highest fencing token any grant has carried for this
	// lock. Unlike committed it is never rewound by recovery: tokens must
	// stay monotonic across handoff and standby promotion, or a fenced
	// resource could mistake a stale holder for the live one.
	fence   uint64
	fenceEv wire.HistoryEvent
	holder  *hold
	readers map[wire.ThreadID]*hold
	// pending maps queued threads to their acquire event.
	pending map[wire.ThreadID]wire.HistoryEvent
	// knownAt[v] is the set of sites that have held version v's bytes
	// (publisher, appliers, and recovery survivors).
	knownAt map[uint64]map[wire.SiteID]bool
	// shadow[v][name] is the digest of version v's bytes for one replica —
	// the checker-maintained shadow copy reads are compared against.
	shadow map[uint64]map[string]shadowEntry
}

// shadowEntry is one replica's digest at one version. Entries set by a
// publish or apply (the version's actual bytes moving) are authoritative;
// entries adopted from an observe are weak — a site whose replica set
// includes names the version's publisher never shipped legitimately sees
// local bytes for them, so weak entries provide context but a mismatch is
// only a violation against an authoritative one.
type shadowEntry struct {
	sum  uint32
	auth bool
	src  wire.HistoryEvent
}

func newLockState() *lockState {
	return &lockState{
		readers: make(map[wire.ThreadID]*hold),
		pending: make(map[wire.ThreadID]wire.HistoryEvent),
		knownAt: make(map[uint64]map[wire.SiteID]bool),
		shadow:  make(map[uint64]map[string]shadowEntry),
	}
}

func (ls *lockState) know(v uint64, site wire.SiteID) {
	m := ls.knownAt[v]
	if m == nil {
		m = make(map[wire.SiteID]bool)
		ls.knownAt[v] = m
	}
	m[site] = true
}

// demoteUncommitted weakens every authoritative shadow entry the thread
// published above the committed version: a publish only truly defines its
// version once the matching release commits it, and this thread's hold
// ended without one.
func (ls *lockState) demoteUncommitted(t wire.ThreadID) {
	for ver, sh := range ls.shadow {
		if ver <= ls.committed {
			continue
		}
		for name, e := range sh {
			if e.auth && e.src.Kind == wire.HistPublish && e.src.Thread == t {
				e.auth = false
				sh[name] = e
			}
		}
	}
}

// pruneBelow forgets shadow and known-site state for every version strictly
// below v — the pruneCommitted mode's horizon sweep, run as commits advance
// so the retained versions are only the committed one and any uncommitted
// successors in flight.
func (ls *lockState) pruneBelow(v uint64) {
	for ver := range ls.shadow {
		if ver < v {
			delete(ls.shadow, ver)
		}
	}
	for ver := range ls.knownAt {
		if ver < v {
			delete(ls.knownAt, ver)
		}
	}
}

// dropAbove forgets shadow and known-site state for every version strictly
// above v: a recovery rewound the committed version, so those numbers will
// be reissued with fresh bytes.
func (ls *lockState) dropAbove(v uint64) {
	for ver := range ls.shadow {
		if ver > v {
			delete(ls.shadow, ver)
		}
	}
	for ver := range ls.knownAt {
		if ver > v {
			delete(ls.knownAt, ver)
		}
	}
}

// checkerMode selects how much history-comparison state a checker retains.
type checkerMode int

const (
	// retainAll keeps every version's shadow digests and up-to-date sets
	// for the whole replay — the offline default, maximal detection power.
	retainAll checkerMode = iota
	// pruneCommitted forgets shadow and known-site state strictly below
	// each lock's committed version as commits advance. Detection only
	// weakens for comparisons against long-committed versions (a stale
	// read of ancient bytes may pass); nothing new can be flagged, so the
	// mode never introduces false positives. It bounds memory by live
	// protocol state instead of run length — what lets the online monitor
	// run inside an open-ended load harness.
	pruneCommitted
)

// checker replays a history event by event.
type checker struct {
	mode   checkerMode
	locks  map[wire.LockID]*lockState
	banned map[wire.ThreadID]wire.HistoryEvent
	// home is each lock's current manager site as the home chain
	// (HistHome/HistHandoff events) establishes it.
	home map[wire.LockID]wire.SiteID
	// pendingMove[l] is the destination of an in-flight handoff: the site
	// the next handoff-install for the lock must occur at.
	pendingMove map[wire.LockID]wire.SiteID
	// homeEv remembers the event that set a lock's current home, for
	// violation context.
	homeEv map[wire.LockID]wire.HistoryEvent
}

func newChecker(mode checkerMode) *checker {
	return &checker{
		mode:        mode,
		locks:       make(map[wire.LockID]*lockState),
		banned:      make(map[wire.ThreadID]wire.HistoryEvent),
		home:        make(map[wire.LockID]wire.SiteID),
		pendingMove: make(map[wire.LockID]wire.SiteID),
		homeEv:      make(map[wire.LockID]wire.HistoryEvent),
	}
}

// Check replays a recorded history against the entry-consistency
// specification and returns the first violation, or nil. Events must be in
// recorder order (as returned by Recorder.Events).
func Check(events []wire.HistoryEvent) *Violation {
	c := newChecker(retainAll)
	for _, ev := range events {
		if v := c.step(ev); v != nil {
			return v
		}
	}
	return nil
}

// CheckRecorder checks a recorder's full history, first insisting the
// recorder actually holds the full history: an overflowed recorder returns
// an ErrTruncatedHistory violation instead of a verdict on the surviving
// prefix, because "the prefix was consistent" says nothing about the run —
// and a coverage signature of a clipped history would under-report the
// states the run reached.
func CheckRecorder(r *Recorder) *Violation {
	if d := r.Dropped(); d > 0 {
		return violate(ErrTruncatedHistory,
			fmt.Sprintf("%d events overflowed the %d-slot buffer; raise the recorder capacity", d, len(r.slots)))
	}
	return Check(r.Events())
}

func (c *checker) lock(id wire.LockID) *lockState {
	ls, ok := c.locks[id]
	if !ok {
		ls = newLockState()
		c.locks[id] = ls
	}
	return ls
}

// violate builds a violation from the tripping event and its context.
func violate(err error, detail string, evs ...wire.HistoryEvent) *Violation {
	return &Violation{Err: err, Detail: detail, Events: evs}
}

func (c *checker) step(ev wire.HistoryEvent) *Violation {
	switch ev.Kind {
	case wire.HistAcquire:
		return c.onAcquire(ev)
	case wire.HistGrant:
		return c.onGrant(ev)
	case wire.HistGrantDropped:
		c.lock(ev.Lock).removeHold(ev.Thread)
	case wire.HistNack:
		delete(c.lock(ev.Lock).pending, ev.Thread)
	case wire.HistRelease:
		return c.onRelease(ev)
	case wire.HistRegister:
		// Only a creator's register seeds a version; Version 0 registers
		// merely record interest.
		if ev.Version > 0 {
			ls := c.lock(ev.Lock)
			ls.committed = ev.Version
			ls.know(ev.Version, ev.Site)
		}
	case wire.HistApply:
		ls := c.lock(ev.Lock)
		ls.know(ev.Version, ev.Site)
		return c.matchShadow(ls, ev, true, false, true)
	case wire.HistPublish:
		ls := c.lock(ev.Lock)
		ls.know(ev.Version, ev.Site)
		// A publish from a thread the checker no longer tracks as holding
		// (its hold was broken, or not carried by a promoted record) is an
		// orphan: the synchronization thread will ignore its release, so its
		// bytes never define the version — record them as weak context only.
		auth := ev.Note == "create" ||
			(ls.holder != nil && ls.holder.thread == ev.Thread) ||
			ls.readers[ev.Thread] != nil
		return c.matchShadow(ls, ev, auth, ev.Note == "create", auth)
	case wire.HistObserve:
		return c.onObserve(ev)
	case wire.HistBreak:
		ls := c.lock(ev.Lock)
		if ls.removeHold(ev.Thread) {
			// The broken holder may have published a new version locally
			// whose release never reached the synchronization thread (its
			// site died mid-release). That version number will be reissued
			// to the next holder with different bytes: the zombie's
			// uncommitted publishes stop defining their versions.
			ls.demoteUncommitted(ev.Thread)
		}
	case wire.HistBan:
		if _, dup := c.banned[ev.Thread]; !dup {
			c.banned[ev.Thread] = ev
		}
	case wire.HistRecover:
		return c.onRecover(ev)
	case wire.HistHome:
		return c.onHome(ev)
	case wire.HistHandoff:
		return c.onHandoff(ev)
	case wire.HistTransferSend, wire.HistCrash, wire.HistFault, wire.HistRelay:
		// Context for reports; no invariant attaches. A relayed push is
		// checked through the members' own HistApply events, so routing a
		// version through a relay cannot weaken version discipline — in
		// either frame form: a relay or member that patched a delta-form
		// push records the digest of the patched blob, which must match
		// the publisher's like any full-copy apply.
	}
	return nil
}

// removeHold drops whatever hold the thread has, reporting whether one
// existed.
func (ls *lockState) removeHold(t wire.ThreadID) bool {
	if ls.holder != nil && ls.holder.thread == t {
		ls.holder = nil
		return true
	}
	if _, ok := ls.readers[t]; ok {
		delete(ls.readers, t)
		return true
	}
	return false
}

func (c *checker) onAcquire(ev wire.HistoryEvent) *Violation {
	ls := c.lock(ev.Lock)
	if ls.holder != nil && ls.holder.thread == ev.Thread {
		return violate(ErrHolderQueued,
			fmt.Sprintf("thread %d queued for lock %d while holding it exclusively", ev.Thread, ev.Lock),
			ls.holder.grant, ev)
	}
	if h, ok := ls.readers[ev.Thread]; ok {
		return violate(ErrHolderQueued,
			fmt.Sprintf("thread %d queued for lock %d while holding it shared", ev.Thread, ev.Lock),
			h.grant, ev)
	}
	ls.pending[ev.Thread] = ev
	return nil
}

func (c *checker) onGrant(ev wire.HistoryEvent) *Violation {
	ls := c.lock(ev.Lock)

	if ev.Revised {
		// A revised grant re-issues an existing hold after recovery; it
		// must land on the current hold, never create one.
		h := ls.holder
		if h == nil || h.thread != ev.Thread {
			h = ls.readers[ev.Thread]
		}
		if h == nil {
			return violate(ErrOrphanGrant,
				fmt.Sprintf("revised grant of lock %d to thread %d, which holds nothing", ev.Lock, ev.Thread), ev)
		}
		h.revisedAt = ev.Version
		// A revised grant re-carries the hold's own token (which may trail
		// the lock's max: a reader re-issued after a later hold minted) or a
		// fresh, larger one (a promotion re-minting under a new epoch). It
		// may never shrink the hold's token.
		if ev.AuxVersion > 0 {
			if ev.AuxVersion < h.fence {
				return violate(ErrFenceRegress,
					fmt.Sprintf("revised grant of lock %d carries fence %d, below the hold's token %d",
						ev.Lock, ev.AuxVersion, h.fence),
					h.grant, ev)
			}
			h.fence = ev.AuxVersion
			if ev.AuxVersion > ls.fence {
				ls.fence = ev.AuxVersion
				ls.fenceEv = ev
			}
		}
	} else {
		acq, ok := ls.pending[ev.Thread]
		if !ok {
			return violate(ErrOrphanGrant,
				fmt.Sprintf("grant of lock %d to thread %d with no queued acquire", ev.Lock, ev.Thread), ev)
		}
		delete(ls.pending, ev.Thread)
		if ban, isBanned := c.banned[ev.Thread]; isBanned && acq.Seq > ban.Seq {
			return violate(ErrBannedRegrant,
				fmt.Sprintf("thread %d was banned at #%d but its later request was granted", ev.Thread, ban.Seq),
				ban, acq, ev)
		}
		if ls.holder != nil {
			return violate(ErrDualHolder,
				fmt.Sprintf("lock %d granted to thread %d while thread %d holds it exclusively",
					ev.Lock, ev.Thread, ls.holder.thread),
				ls.holder.grant, ev)
		}
		if !ev.Shared && len(ls.readers) > 0 {
			for _, r := range ls.readers {
				return violate(ErrDualHolder,
					fmt.Sprintf("lock %d granted exclusively to thread %d while thread %d reads it",
						ev.Lock, ev.Thread, r.thread),
					r.grant, ev)
			}
		}
		// AuxVersion carries the grant's fencing token (0 on histories
		// recorded before fencing existed — those skip the check). A fresh
		// grant must mint a token strictly above every token previously
		// issued for the lock, across handoffs and promotions.
		if ev.AuxVersion > 0 && ev.AuxVersion <= ls.fence {
			return violate(ErrFenceRegress,
				fmt.Sprintf("grant of lock %d carries fence %d, but fence %d was already issued",
					ev.Lock, ev.AuxVersion, ls.fence),
				ls.fenceEv, ev)
		}
		h := &hold{thread: ev.Thread, site: ev.Site, grant: ev, fence: ev.AuxVersion}
		if ev.Shared {
			ls.readers[ev.Thread] = h
		} else {
			ls.holder = h
		}
		if ev.AuxVersion > ls.fence {
			ls.fence = ev.AuxVersion
			ls.fenceEv = ev
		}
	}

	if ev.Version != ls.committed {
		return violate(ErrGrantVersion,
			fmt.Sprintf("grant of lock %d carries v%d, committed version is v%d", ev.Lock, ev.Version, ls.committed), ev)
	}
	if ev.Version > 0 {
		for _, site := range ev.Sites.Sites() {
			if !ls.knownAt[ev.Version][site] {
				return violate(ErrUpToDateOverclaim,
					fmt.Sprintf("grant of lock %d claims site %d is up to date at v%d, but that site never held those bytes",
						ev.Lock, site, ev.Version), ev)
			}
		}
	}
	return nil
}

func (c *checker) onRelease(ev wire.HistoryEvent) *Violation {
	ls := c.lock(ev.Lock)
	// A release at exactly the committed version is legal only when a
	// recovery adopted the holder's published-but-unreleased version off a
	// replica and a revised grant re-issued the hold at it — then this
	// release is the commit of a version already baselined, not a reuse.
	rebased := ls.holder != nil && ls.holder.thread == ev.Thread &&
		ls.holder.revisedAt != 0 && ls.holder.revisedAt == ev.Version
	ls.removeHold(ev.Thread)
	if ev.Aborted || ev.Shared {
		if ev.Aborted && !ev.Shared {
			// The hold ended without committing: any publish the thread
			// recorded for a yet-uncommitted version no longer defines
			// those bytes — the number will be re-issued.
			ls.demoteUncommitted(ev.Thread)
		}
		return nil
	}
	if ev.Version < ls.committed || (ev.Version == ls.committed && !rebased) {
		return violate(ErrVersionRegress,
			fmt.Sprintf("release of lock %d commits v%d, already at v%d", ev.Lock, ev.Version, ls.committed), ev)
	}
	ls.committed = ev.Version
	// The releaser's own publish establishes its bytes — but a recovery
	// between that publish record and this release (a standby promotion
	// rewinding to the pre-publish shadow) drops that knowledge, while the
	// surviving holder's release still legitimately commits the version.
	// The committing release itself proves the site holds the bytes.
	ls.know(ev.Version, ev.Site)
	for _, site := range ev.Sites.Sites() {
		if site == ev.Site {
			continue
		}
		if !ls.knownAt[ev.Version][site] {
			return violate(ErrUpToDateOverclaim,
				fmt.Sprintf("release of lock %d claims site %d holds v%d, but no apply of v%d at that site was recorded",
					ev.Lock, site, ev.Version, ev.Version), ev)
		}
	}
	if c.mode == pruneCommitted {
		ls.pruneBelow(ls.committed)
	}
	return nil
}

// matchShadow compares an event's digests against the shadow copy of its
// version, installing entries for names not yet seen. auth marks the event
// as carrying the version's actual bytes (a publish or apply); observes
// install weak entries and only violate against authoritative ones. With
// redefine set (a creator seeding version 1 locally), existing entries are
// overwritten instead of compared: concurrent creators legitimately race to
// define the initial bytes, and the synchronization thread's single creator
// seed decides whose transfer wins later. With enforce clear, mismatches
// are never flagged and entries only install where none exist — used for
// events whose bytes may legitimately predate a recovery era.
func (c *checker) matchShadow(ls *lockState, ev wire.HistoryEvent, auth, redefine, enforce bool) *Violation {
	if ev.Version == 0 || len(ev.Digests) == 0 {
		return nil
	}
	sh := ls.shadow[ev.Version]
	if sh == nil {
		sh = make(map[string]shadowEntry)
		ls.shadow[ev.Version] = sh
	}
	for _, d := range ev.Digests {
		cur, seen := sh[d.Name]
		if enforce && seen && !redefine && cur.auth && cur.sum != d.Sum {
			return violate(ErrStaleRead,
				fmt.Sprintf("replica %q at lock %d v%d has digest %08x here, but the version's bytes have digest %08x",
					d.Name, ev.Lock, ev.Version, d.Sum, cur.sum),
				cur.src, ev)
		}
		if !seen || redefine || (auth && !cur.auth) {
			sh[d.Name] = shadowEntry{sum: d.Sum, auth: auth, src: ev}
		}
	}
	return nil
}

func (c *checker) onObserve(ev wire.HistoryEvent) *Violation {
	ls := c.lock(ev.Lock)
	if ev.Version < ev.AuxVersion {
		return violate(ErrStaleRead,
			fmt.Sprintf("thread %d entered lock %d at local v%d, below the granted v%d",
				ev.Thread, ev.Lock, ev.Version, ev.AuxVersion), ev)
	}
	// A reader's bytes are only enforced against the shadow copy when the
	// history shows this site receiving this version's bytes (publish,
	// apply, creator seed, or recovery). A site that silently survived a
	// recovery rewind legitimately carries another era's bytes under a
	// reissued version number — weakened consistency, not a violation.
	enforce := ls.knownAt[ev.Version][ev.Site]
	return c.matchShadow(ls, ev, false, false, enforce)
}

// onHandoff checks that only the lock's current home ships its record
// away, and arms the install expectation: the next handoff-install for
// this lock must happen at the handoff's destination.
func (c *checker) onHandoff(ev wire.HistoryEvent) *Violation {
	if cur, ok := c.home[ev.Lock]; ok && cur != ev.Site {
		return violate(ErrHomeChain,
			fmt.Sprintf("site %d shipped lock %d's record away, but site %d is its home", ev.Site, ev.Lock, cur),
			c.homeEv[ev.Lock], ev)
	}
	for _, to := range ev.Sites.Sites() {
		c.pendingMove[ev.Lock] = to
		break
	}
	return nil
}

// onHome replays a home-chain event: a lock's record materialising at a
// manager site. Registration seeds the chain; handoff-install extends it
// (only at the site the preceding HistHandoff named); standby-promote — a
// standby's or a surrogate's — repairs it after a home died, so it is
// accepted from any site, and any in-flight handoff expectation is left
// armed — the old home's send may still land at its target afterwards.
func (c *checker) onHome(ev wire.HistoryEvent) *Violation {
	switch ev.Note {
	case "handoff-install":
		want, ok := c.pendingMove[ev.Lock]
		if !ok || want != ev.Site {
			detail := fmt.Sprintf("site %d installed lock %d's record with no handoff addressed to it", ev.Site, ev.Lock)
			if ok {
				detail = fmt.Sprintf("site %d installed lock %d's record, but the handoff named site %d", ev.Site, ev.Lock, want)
			}
			return violate(ErrHomeChain, detail, c.homeEv[ev.Lock], ev)
		}
		delete(c.pendingMove, ev.Lock)
	case "register":
		if cur, ok := c.home[ev.Lock]; ok && cur != ev.Site {
			return violate(ErrHomeChain,
				fmt.Sprintf("lock %d registered a home at site %d while site %d is its home", ev.Lock, ev.Site, cur),
				c.homeEv[ev.Lock], ev)
		}
	}
	c.home[ev.Lock] = ev.Site
	c.homeEv[ev.Lock] = ev
	return nil
}

// onRecover re-baselines the lock after failure handling rewrote its
// committed state: a daemon-poll verdict ("poll-best"), the no-surviving-
// copy fallback ("weakened-local"), or a dead home's record promoted
// elsewhere ("standby-promote": a standby's shadow, or a surrogate's
// snapshot).
func (c *checker) onRecover(ev wire.HistoryEvent) *Violation {
	ls := c.lock(ev.Lock)
	if ev.Note == "standby-promote" && ev.Version < ls.committed {
		// A standby's shadow may run ahead of the history (release state
		// streams to the standby before it is recorded) but never
		// behind it, and a surrogate's snapshot must be no older than the
		// last commit: promoting a record below the committed version
		// means a committed number would be re-issued to the next holder.
		return violate(ErrVersionRegress,
			fmt.Sprintf("standby promotion of lock %d restores v%d behind the committed v%d",
				ev.Lock, ev.Version, ls.committed), ev)
	}
	ls.dropAbove(ev.Version)
	ls.committed = ev.Version
	switch ev.Note {
	case "weakened-local":
		// All copies of the committed version were lost; the survivor's
		// local bytes redefine it.
		delete(ls.shadow, ev.Version)
		ls.knownAt[ev.Version] = map[wire.SiteID]bool{ev.Site: true}
	case "standby-promote":
		// A dead home's record was promoted elsewhere. Leases survive: the
		// record carries the holder and readers (ev.Thread names the
		// restored exclusive holder), so matching holds are kept — only the
		// version baseline and up-to-date set re-anchor to the record. A
		// tracked holder the record does NOT carry did not survive the dead
		// home: its grant was recorded but never streamed (and delivery
		// follows the stream, so no client holds it), its release reached
		// the standby without its record, or it was granted after the
		// surrogate's snapshot was taken. Its uncommitted publishes stop
		// defining their versions, exactly as on a lease break.
		for _, site := range ev.Sites.Sites() {
			ls.know(ev.Version, site)
		}
		if ls.holder != nil && ls.holder.thread != ev.Thread {
			t := ls.holder.thread
			ls.holder = nil
			ls.demoteUncommitted(t)
		}
	default: // "poll-best"
		ls.know(ev.Version, ev.Site)
	}
	if c.mode == pruneCommitted {
		ls.pruneBelow(ls.committed)
	}
	return nil
}
