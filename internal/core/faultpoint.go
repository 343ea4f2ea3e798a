package core

import (
	"time"

	"mocha/internal/store"
	"mocha/internal/wire"
)

// FaultPoint names one injection site in the protocol. The points form a
// registry: a test's FaultHook is consulted at each by name and decides
// whether the run takes the failure path there. The names are stable
// identifiers — fault schedules printed by the seeded explorer refer to
// them, so replaying a seed re-injects the same faults at the same points.
type FaultPoint string

// The registered fault points.
const (
	// FPCrashBeforeGrant fires at the synchronization thread just before a
	// grant is delivered. Drop models the requester crashing first: the
	// grant is undeliverable, the optimistic hold is dropped, and the next
	// requester is granted.
	FPCrashBeforeGrant FaultPoint = "crash-before-grant"
	// FPCrashAfterReleaseBeforePush fires in Unlock after the new version
	// is committed locally but before dissemination and the release
	// message. Drop models the holder crashing at that instant: nothing is
	// pushed, the release never reaches the synchronization thread, and the
	// lock must be broken by lease expiry.
	FPCrashAfterReleaseBeforePush FaultPoint = "crash-after-release-before-push"
	// FPDropMidTransfer fires in the transfer service before a replica-
	// carrying frame (directive-driven transfer or dissemination push)
	// leaves the site. Drop fails that transfer, exercising the push
	// replacement walk and the acquirer-side abort paths.
	FPDropMidTransfer FaultPoint = "drop-mid-transfer"
	// FPDelayDaemonPoll fires in the daemon just before it answers a
	// PollVersion. Delay holds the reply back; past the poll deadline the
	// daemon's copy is treated as lost and recovery falls back to an older
	// surviving version.
	FPDelayDaemonPoll FaultPoint = "delay-daemon-poll"
	// FPKillLockHolder fires in an application thread immediately after it
	// installs a granted hold. The hook's owner kills the site (or simply
	// never releases), so the lease sweep must detect the dead holder,
	// break the lock, and ban the thread.
	FPKillLockHolder FaultPoint = "kill-lock-holder"
	// FPDropRelayFan fires on a bucket relay as a RelayPush arrives,
	// before anything is applied or re-fanned. Drop models the relay
	// dying mid-push: no apply, no re-fan, no ack — the origin's
	// relay-ack wait times out and the bucket falls back to direct
	// pushes. Peer is the push's origin site.
	FPDropRelayFan FaultPoint = "drop-relay-fan"
	// FPKillLockHome fires at a lock's home manager just after a grant was
	// delivered — the window where the standby must already know the
	// holder. The hook's owner kills the manager site, so the standby's
	// promotion must restore the lease, version floor, and
	// dirty set for the lock to stay acquirable.
	FPKillLockHome FaultPoint = "kill-lock-home"
	// FPDelayHandoff fires at an old home just before it ships a frozen
	// lock record to the new home. Delay stalls the migration with the
	// lock frozen (requests queue behind it); Drop aborts the migration
	// and the old home unfreezes and keeps serving.
	FPDelayHandoff FaultPoint = "delay-handoff"
	// FPCrashBeforeFsync fires in the durable store as a WAL record is
	// about to be appended. Drop loses the record as if the site died
	// after the protocol action but before the log write reached disk —
	// recovery must come up at the previous durable state and re-join
	// from there. The names match internal/store's fault constants.
	FPCrashBeforeFsync FaultPoint = FaultPoint(store.FaultCrashBeforeFsync)
	// FPTornWALTail fires in the durable store as a WAL record is framed.
	// Drop writes only a prefix of the frame — the torn tail a mid-write
	// power cut leaves — and recovery must truncate it cleanly.
	FPTornWALTail FaultPoint = FaultPoint(store.FaultTornWALTail)
	// FPDropRelease fires in the release carriage just before a
	// RELEASELOCK leaves — under home placement after Unlock has already
	// returned. Drop loses the release as if the site died in that window:
	// the pushes landed, the home never hears, and the hook's owner kills
	// the site so the lease sweep breaks the hold and the recovery poll
	// finds the pushed version at a sharer.
	FPDropRelease FaultPoint = "drop-release"
)

// FaultPoints lists the registry in a stable order.
func FaultPoints() []FaultPoint {
	return []FaultPoint{
		FPCrashBeforeGrant,
		FPCrashAfterReleaseBeforePush,
		FPDropMidTransfer,
		FPDelayDaemonPoll,
		FPKillLockHolder,
		FPDropRelayFan,
		FPKillLockHome,
		FPDelayHandoff,
		FPCrashBeforeFsync,
		FPTornWALTail,
		FPDropRelease,
	}
}

// FaultContext tells a hook where the protocol is when a point fires.
type FaultContext struct {
	Point   FaultPoint
	Site    wire.SiteID // the site executing the point
	Peer    wire.SiteID // the other party, when one exists (0 otherwise)
	Lock    wire.LockID
	Thread  wire.ThreadID
	Version uint64
}

// FaultDecision is a hook's verdict: take the failure path (Drop), stall
// the operation first (Delay), or both. The zero value means proceed
// normally.
type FaultDecision struct {
	Drop  bool
	Delay time.Duration
}

// FaultHook decides, per firing, whether an injection point takes its
// failure path. Hooks run on protocol goroutines and must not block beyond
// the Delay they return; they may have side effects (the explorer kills
// sites from inside crash hooks).
type FaultHook func(FaultContext) FaultDecision

// fireFault consults the node's hook at one injection point, records the
// injection in the history when it changes behavior, and performs the
// requested delay. Callers must not hold protocol mutexes across the call
// (the delay sleeps, and hooks may call back into the node).
func (n *Node) fireFault(fc FaultContext) FaultDecision {
	if n == nil || n.cfg.FaultHook == nil {
		return FaultDecision{}
	}
	fc.Site = n.cfg.Site
	d := n.cfg.FaultHook(fc)
	if d.Drop || d.Delay > 0 {
		ev := wire.HistoryEvent{
			Kind:    wire.HistFault,
			Site:    fc.Site,
			Thread:  fc.Thread,
			Lock:    fc.Lock,
			Version: fc.Version,
			Note:    string(fc.Point),
		}
		if fc.Peer != 0 {
			ev.Sites = wire.NewSiteSet(fc.Peer)
		}
		n.recordHist(ev)
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	return d
}
