package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mocha/internal/marshal"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// Replica is one named shared object at one site. "All objects that are
// desired to be shared in the Mocha system must be of type Replica or
// subclass from it"; here the typed payload lives in marshal.Content and
// typed wrappers in the public API play the role of generated subclasses.
type Replica struct {
	node    *Node
	name    string
	content *marshal.Content
	copies  int
	created bool

	// cachedMu guards content for replicas registered as cached
	// (unguarded) objects, which the daemon updates outside any lock.
	cachedMu sync.Mutex
}

// ReadCached runs f with exclusive access to a cached replica's content.
// Replicas guarded by a ReplicaLock do not need this: entry consistency
// already serializes access. Cached replicas have no lock, so concurrent
// push application and reading must synchronize here.
func (r *Replica) ReadCached(f func(*marshal.Content)) {
	r.cachedMu.Lock()
	defer r.cachedMu.Unlock()
	f(r.content)
}

// CreateReplica creates a shared object with initial data at this site —
// the paper's Replica constructor that takes the data and the desired
// number of copies.
func (n *Node) CreateReplica(name string, content *marshal.Content, copies int) (*Replica, error) {
	if name == "" {
		return nil, fmt.Errorf("core: replica needs a name")
	}
	if content == nil {
		return nil, fmt.Errorf("core: replica %q needs content", name)
	}
	if copies < 1 {
		copies = 1
	}
	return &Replica{node: n, name: name, content: content, copies: copies, created: true}, nil
}

// AttachReplica obtains a local copy of an existing shared object — the
// paper's second constructor form, `new Replica("flatwareIndex", mocha)`.
// The content's kind declares the expected type; its data is replaced when
// the first consistent version arrives.
func (n *Node) AttachReplica(name string, content *marshal.Content) (*Replica, error) {
	if name == "" {
		return nil, fmt.Errorf("core: replica needs a name")
	}
	if content == nil {
		return nil, fmt.Errorf("core: replica %q needs content", name)
	}
	return &Replica{node: n, name: name, content: content}, nil
}

// Name returns the replica's cluster-wide identifier.
func (r *Replica) Name() string { return r.name }

// Content returns the replica's typed payload. Access it only between
// Lock and Unlock of the associated ReplicaLock (entry consistency).
func (r *Replica) Content() *marshal.Content { return r.content }

// Copies returns the requested replication factor (the paper's numcopies).
func (r *Replica) Copies() int { return r.copies }

// lockLocal is the per-site state shared by every ReplicaLock object with
// the same ID: the local serialization gate, the associated replicas, and
// the local data version.
type lockLocal struct {
	id wire.LockID
	// gate serializes local threads: "if another local thread currently
	// has this lock or waiting for it: wait()".
	gate chan struct{}

	mu       sync.Mutex
	replicas []*Replica
	byName   map[string]*Replica
	version  uint64
	// pending buffers payloads for names not yet associated locally.
	pending map[string]pendingPayload
	ur      int
	// cachedPayloads memoizes the marshaled form of the replicas at
	// cachedVersion, so repeated transfers of an unchanged version (a
	// release-time push followed by acquisition-driven TRANSFERREPLICA
	// directives, say) marshal once. Invalidated whenever the replica set
	// or the content behind the current version can have changed.
	cachedVersion  uint64
	cachedPayloads []wire.ReplicaPayload
	// dlog chains per-version dirty ranges for delta transfer; nil when
	// Config.DeltaTransfer is off.
	dlog *updateLog
	// prevVersion/prevPayloads hold the marshaled form of the version that
	// bumpVersionLocked retired, until the next marshal diffs against it to
	// record the version step. Cleared once consumed or invalidated.
	prevVersion  uint64
	prevPayloads []wire.ReplicaPayload
	// holder is the local thread currently holding the global lock, set
	// until its release settles; heldGrant is nil once Unlock has handed
	// that release to the carriage.
	holder     wire.ThreadID
	heldGrant  *wire.Grant
	heldShared bool
	// uncommitted marks content an exclusive holder mutated in place and
	// then demonstrably failed to commit (the crash-simulating abort in
	// Unlock). While set, the daemon must neither serve the bytes as the
	// labeled version nor advertise them to recovery polls — a broken
	// hold's writes would otherwise leak as a dirty read. Holders that
	// die without running any local code (a killed thread) are covered by
	// the synchronization thread's per-lock dirty-site set instead.
	uncommitted bool
	// fence is the highest fencing token a grant has carried to this site
	// for the lock. Persisted with durable-store records so a recovered
	// site can prove how far its last hold was fenced; the authoritative
	// counter lives at the home.
	fence uint64
	// waiters are version watchers (threads waiting for transferred data).
	waiters []*versionWaiter
}

type pendingPayload struct {
	version uint64
	data    []byte
}

type versionWaiter struct {
	min uint64
	ch  chan struct{}
}

func newLockLocal(id wire.LockID, deltaDepth int) *lockLocal {
	st := &lockLocal{
		id:      id,
		gate:    make(chan struct{}, 1),
		byName:  make(map[string]*Replica),
		pending: make(map[string]pendingPayload),
		ur:      1,
	}
	if deltaDepth > 0 {
		st.dlog = newUpdateLog(deltaDepth)
	}
	return st
}

// versionReached reports whether local data is at least min, registering a
// waiter otherwise. An uncommitted copy vouches for nothing: a broken
// exclusive hold may have scribbled on the content while the version
// label stayed put, so the label alone cannot satisfy a grant — the
// waiter stands until committed bytes arrive and clear the flag.
func (st *lockLocal) versionReached(min uint64) (bool, *versionWaiter) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.version >= min && !st.uncommitted {
		return true, nil
	}
	w := &versionWaiter{min: min, ch: make(chan struct{}, 1)}
	st.waiters = append(st.waiters, w)
	return false, w
}

// notifyVersionLocked wakes waiters satisfied by the current version.
// Caller holds st.mu.
func (st *lockLocal) notifyVersionLocked() {
	kept := st.waiters[:0]
	for _, w := range st.waiters {
		if st.version >= w.min && !st.uncommitted {
			select {
			case w.ch <- struct{}{}:
			default:
			}
			continue
		}
		kept = append(kept, w)
	}
	st.waiters = kept
}

// marshalPayloadsLocked returns the marshaled form of the lock's replicas
// at the current version, serving repeated requests for an unchanged
// version from the version-keyed cache. The returned slice is shared and
// must be treated as read-only. Caller holds st.mu.
func (st *lockLocal) marshalPayloadsLocked(codec marshal.Codec) ([]wire.ReplicaPayload, error) {
	if st.cachedPayloads != nil && st.cachedVersion == st.version {
		return st.cachedPayloads, nil
	}
	payloads := make([]wire.ReplicaPayload, 0, len(st.replicas))
	for _, r := range st.replicas {
		blob, err := codec.Marshal(r.content)
		if err != nil {
			return nil, fmt.Errorf("marshal replica %q: %w", r.name, err)
		}
		payloads = append(payloads, wire.ReplicaPayload{Name: r.name, Data: blob})
	}
	st.captureStepLocked(payloads)
	st.cachedVersion = st.version
	st.cachedPayloads = payloads
	return payloads, nil
}

// captureStepLocked records the version step that produced the freshly
// marshaled payloads, diffing them against the retired predecessor that
// bumpVersionLocked saved. Each replica contributes its tracked dirty
// ranges when they are trusted and the blob kept its length; otherwise the
// two blobs are byte-diffed. Caller holds st.mu.
func (st *lockLocal) captureStepLocked(payloads []wire.ReplicaPayload) {
	if st.dlog == nil {
		return
	}
	// Snapshot and reset the per-replica dirty tracking unconditionally so
	// ranges from this epoch never bleed into the next one, even when the
	// step itself cannot be recorded.
	type dirtySnap struct {
		ranges  []marshal.Range
		trusted bool
	}
	snaps := make(map[string]dirtySnap, len(st.replicas))
	for _, r := range st.replicas {
		ranges, trusted := r.content.DirtySnapshot()
		snaps[r.name] = dirtySnap{ranges: ranges, trusted: trusted}
		r.content.ResetDirty()
	}
	prev := st.prevPayloads
	prevVersion := st.prevVersion
	st.prevPayloads = nil
	if prev == nil || prevVersion+1 != st.version {
		// No known predecessor for this version: the chain is broken.
		st.dlog.reset()
		return
	}
	base := make(map[string][]byte, len(prev))
	for _, p := range prev {
		base[p.Name] = p.Data
	}
	step := deltaStep{
		from:     prevVersion,
		to:       st.version,
		replicas: make(map[string]stepReplica, len(payloads)),
	}
	for _, p := range payloads {
		old, ok := base[p.Name]
		if !ok {
			step.replicas[p.Name] = stepReplica{full: true, newLen: len(p.Data)}
			continue
		}
		sr := stepReplica{newLen: len(p.Data)}
		if sn := snaps[p.Name]; sn.trusted && len(old) == len(p.Data) {
			sr.ranges = marshal.MergeRanges(sn.ranges, len(p.Data))
		} else {
			sr.ranges = marshal.DiffRanges(old, p.Data)
			sr.resized = len(old) != len(p.Data)
		}
		step.replicas[p.Name] = sr
	}
	st.dlog.record(step)
}

// bumpVersionLocked installs a new local version produced here (an
// exclusive release or a push preparation), retiring the old version's
// marshaled cache as the diff base for the step the next marshal records.
// Caller holds st.mu.
func (st *lockLocal) bumpVersionLocked(newVersion uint64) {
	if st.dlog != nil && st.cachedPayloads != nil && st.cachedVersion == st.version {
		st.prevVersion = st.version
		st.prevPayloads = st.cachedPayloads
	} else {
		st.prevPayloads = nil
	}
	st.version = newVersion
	st.invalidatePayloadsLocked()
}

// recordIncomingStepLocked records the version step for payloads applied
// from the network, diffing them against the marshaled cache of the
// version they replace. Caller holds st.mu; st.version is still the old
// version.
func (st *lockLocal) recordIncomingStepLocked(version uint64, payloads []wire.ReplicaPayload) {
	if st.dlog == nil {
		return
	}
	st.prevPayloads = nil
	if st.cachedPayloads == nil || st.cachedVersion != st.version || version != st.version+1 {
		st.dlog.reset()
		return
	}
	base := make(map[string][]byte, len(st.cachedPayloads))
	for _, p := range st.cachedPayloads {
		base[p.Name] = p.Data
	}
	step := deltaStep{
		from:     st.version,
		to:       version,
		replicas: make(map[string]stepReplica, len(payloads)),
	}
	for _, p := range payloads {
		old, ok := base[p.Name]
		if !ok {
			step.replicas[p.Name] = stepReplica{full: true, newLen: len(p.Data)}
			continue
		}
		step.replicas[p.Name] = stepReplica{
			newLen:  len(p.Data),
			resized: len(old) != len(p.Data),
			ranges:  marshal.DiffRanges(old, p.Data),
		}
	}
	st.dlog.record(step)
}

// updatePayloadCacheLocked installs network-applied blobs as the marshaled
// cache for the new version, so this site can itself serve deltas (and
// diff the next incoming step) without re-marshaling. The cache is only
// valid when every associated replica was covered. Caller holds st.mu.
func (st *lockLocal) updatePayloadCacheLocked(version uint64, payloads []wire.ReplicaPayload) {
	base := make(map[string][]byte, len(payloads))
	for _, p := range payloads {
		base[p.Name] = p.Data
	}
	ordered := make([]wire.ReplicaPayload, 0, len(st.replicas))
	for _, r := range st.replicas {
		data, ok := base[r.name]
		if !ok {
			st.invalidatePayloadsLocked()
			return
		}
		ordered = append(ordered, wire.ReplicaPayload{Name: r.name, Data: data})
	}
	st.cachedVersion = version
	st.cachedPayloads = ordered
}

// buildDeltaLocked assembles a ReplicaDelta upgrading a holder of fromV to
// toV, slicing patch data out of the marshaled payloads at toV. It returns
// nil when the update log cannot serve the interval or when the delta
// would not be smaller than the full transfer. Caller holds st.mu.
func (st *lockLocal) buildDeltaLocked(site wire.SiteID, fromV, toV uint64, payloads []wire.ReplicaPayload, reqID uint64, push bool) *wire.ReplicaDelta {
	if st.dlog == nil || fromV == 0 || fromV >= toV {
		return nil
	}
	composed, ok := st.dlog.compose(fromV, toV)
	if !ok {
		return nil
	}
	msg := &wire.ReplicaDelta{
		Lock:        st.id,
		From:        site,
		Version:     toV,
		FromVersion: fromV,
		RequestID:   reqID,
		Push:        push,
		Replicas:    make([]wire.DeltaPayload, 0, len(payloads)),
	}
	deltaBytes, fullBytes := 0, 0
	for _, p := range payloads {
		fullBytes += len(p.Data)
		cd, ok := composed[p.Name]
		if !ok || cd.full {
			msg.Replicas = append(msg.Replicas, wire.DeltaPayload{Name: p.Name, Full: true, Data: p.Data})
			deltaBytes += len(p.Data)
			continue
		}
		dp := wire.DeltaPayload{
			Name:     p.Name,
			NewLen:   uint32(len(p.Data)),
			Checksum: marshal.Checksum(p.Data),
		}
		for _, r := range marshal.MergeRanges(cd.ranges, len(p.Data)) {
			dp.Ops = append(dp.Ops, wire.PatchOp{Off: uint32(r.Off), Data: p.Data[r.Off:r.End()]})
			deltaBytes += r.Len + 8
		}
		msg.Replicas = append(msg.Replicas, dp)
	}
	if deltaBytes >= fullBytes {
		return nil
	}
	return msg
}

// invalidatePayloadsLocked drops the marshaled-payload cache. Called when
// the replica set changes or when content may have been rewritten behind
// an existing version number (an exclusive release, or a recovery that
// rewound the version). Caller holds st.mu.
func (st *lockLocal) invalidatePayloadsLocked() {
	st.cachedPayloads = nil
}

// dropWaiter removes a registered waiter.
func (st *lockLocal) dropWaiter(w *versionWaiter) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, x := range st.waiters {
		if x == w {
			st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
			return
		}
	}
}

// ReplicaLock is the application-facing synchronization object. Each
// thread constructs its own ReplicaLock for a given ID (as in
// `new ReplicaLock(1, mocha)`); all ReplicaLocks with one ID at one site
// share local state.
type ReplicaLock struct {
	h    *Handle
	node *Node
	id   wire.LockID
	st   *lockLocal
}

// ReplicaLock builds this thread's view of the lock with the given ID.
func (h *Handle) ReplicaLock(id wire.LockID) *ReplicaLock {
	return &ReplicaLock{h: h, node: h.node, id: id, st: h.node.getLockLocal(id)}
}

// ID returns the lock's cluster-wide identifier.
func (rl *ReplicaLock) ID() wire.LockID { return rl.id }

// Associate binds a replica to this lock, making it part of the state the
// lock keeps consistent, and registers the site's interest with the
// synchronization thread.
func (rl *ReplicaLock) Associate(ctx context.Context, r *Replica) error {
	if r == nil {
		return fmt.Errorf("core: cannot associate nil replica")
	}
	rl.st.mu.Lock()
	if existing, dup := rl.st.byName[r.name]; dup {
		// Another local thread already associated this name (each thread
		// constructs its own Replica object, as in `new Replica("acc",
		// mocha)`). All local Replica objects for one name share the
		// site's single copy of the data.
		if existing.content.Kind() != r.content.Kind() {
			rl.st.mu.Unlock()
			return fmt.Errorf("core: replica %q is %s here, not %s",
				r.name, existing.content.Kind(), r.content.Kind())
		}
		r.content = existing.content
	} else {
		rl.st.replicas = append(rl.st.replicas, r)
		rl.st.byName[r.name] = r
		rl.st.invalidatePayloadsLocked()
		if rl.st.dlog != nil {
			// The replica set changed: recorded steps no longer describe
			// the lock's full marshaled state.
			rl.st.dlog.reset()
			rl.st.prevPayloads = nil
		}
		if r.created && rl.st.version == 0 {
			// Creating a shared object seeds version 1 locally; the
			// registration below seeds it at the synchronization thread.
			rl.st.version = 1
		}
		// Apply any payload that arrived before the association.
		if p, ok := rl.st.pending[r.name]; ok {
			delete(rl.st.pending, r.name)
			if err := rl.node.cfg.Codec.Unmarshal(p.data, r.content); err != nil {
				if rl.node.log.On() {
					rl.node.log.Logf("daemon", "apply pending payload for %q: %v", r.name, err)
				}
			}
		}
		if rl.node.histEnabled() && rl.st.version == 1 && r.created {
			// The creator's initial bytes define version 1 until the first
			// exclusive release.
			if blob, err := rl.node.cfg.Codec.Marshal(r.content); err == nil {
				rl.node.recordHist(wire.HistoryEvent{
					Kind:    wire.HistPublish,
					Site:    rl.node.cfg.Site,
					Lock:    rl.id,
					Version: 1,
					Note:    "create",
					Digests: []wire.ReplicaDigest{{Name: r.name, Sum: wire.DigestBytes(blob)}},
				})
			}
		}
	}
	rl.st.mu.Unlock()

	reg := &wire.RegisterReplica{
		Lock:    rl.id,
		Site:    rl.node.cfg.Site,
		Names:   []string{r.name},
		Creator: r.created,
	}
	if err := rl.node.client.sendToHome(ctx, reg, rl.id); err != nil {
		return fmt.Errorf("core: register replica %q: %w", r.name, err)
	}
	return nil
}

// SetUpdateReplicas configures UR, the number of sites that receive the
// new object state at every release. UR = 1 disables dissemination; UR = k
// pushes the value to k-1 additional registered daemons "even when it is
// not required by the consistency protocols", buying availability with
// bandwidth (Section 4).
func (rl *ReplicaLock) SetUpdateReplicas(k int) {
	if k < 1 {
		k = 1
	}
	rl.st.mu.Lock()
	defer rl.st.mu.Unlock()
	rl.st.ur = k
}

// UpdateReplicas returns the current UR setting.
func (rl *ReplicaLock) UpdateReplicas() int {
	rl.st.mu.Lock()
	defer rl.st.mu.Unlock()
	return rl.st.ur
}

// Version returns the version of the locally held replica data.
func (rl *ReplicaLock) Version() uint64 {
	rl.st.mu.Lock()
	defer rl.st.mu.Unlock()
	return rl.st.version
}

// Fence returns the highest fencing token a grant has carried to this
// site for the lock. Read under Lock it identifies the current hold:
// tokens are minted monotonically by the lock's manager and survive
// manager failover, so an external resource that remembers the highest
// token it has seen can reject writes from a holder the manager has
// since fenced off.
func (rl *ReplicaLock) Fence() uint64 {
	rl.st.mu.Lock()
	defer rl.st.mu.Unlock()
	return rl.st.fence
}

// Lock acquires the lock exclusively. When it returns nil, the associated
// replicas are consistent with the most recent update and may be accessed
// and modified until Unlock.
func (rl *ReplicaLock) Lock(ctx context.Context) error { return rl.lock(ctx, false) }

// LockShared acquires the lock in read-only mode; multiple readers may
// hold it concurrently, and a release does not produce a new version.
func (rl *ReplicaLock) LockShared(ctx context.Context) error { return rl.lock(ctx, true) }

// lock implements Figure 5's lock() method plus the wide-area failure
// handling: request, await grant, and if NEEDNEWVERSION await the replica
// transfer (accepting revised grants when failure handling downgraded the
// available version).
// nackError maps a LockNack to the matching sentinel error.
func (rl *ReplicaLock) nackError(n *wire.LockNack) error {
	cause := ErrBanned
	if n.Code == wire.NackUnknownLock {
		cause = ErrUnknownLock
	}
	return fmt.Errorf("core: lock %d: %w: %s", rl.id, cause, n.Reason)
}

func (rl *ReplicaLock) lock(ctx context.Context, shared bool) error {
	if rl.node.isClosed() {
		return ErrClosed
	}
	span := rl.node.obs().StartSpan("acquire", uint32(rl.node.cfg.Site), uint64(rl.id))
	// Local serialization ("wait()" in the pseudocode).
	select {
	case rl.st.gate <- struct{}{}:
	case <-rl.node.done:
		return ErrClosed
	case <-ctx.Done():
		return fmt.Errorf("core: lock %d: %w", rl.id, ctx.Err())
	}
	span.Phase(obs.HQueueWait)
	rl.node.obs().Inc(obs.CAcquireRequests)
	ok := false
	defer func() {
		if !ok {
			<-rl.st.gate
		}
	}()

	grantCh := rl.node.client.expectGrant(rl.id, rl.h.id)
	defer rl.node.client.dropGrant(rl.id, rl.h.id)

	rl.st.mu.Lock()
	have := rl.st.version
	if rl.st.uncommitted {
		// An uncommitted copy cannot serve as a delta base (the bytes are
		// untrusted), so don't advertise its version to the sender.
		have = 0
	}
	rl.st.mu.Unlock()
	req := &wire.AcquireLock{
		Lock:        rl.id,
		Requester:   rl.node.cfg.Site,
		Thread:      rl.h.id,
		Shared:      shared,
		HaveVersion: have,
		LeaseMillis: uint32(rl.h.lease / time.Millisecond),
	}
	if err := rl.node.client.sendToHome(ctx, req, rl.id); err != nil {
		return fmt.Errorf("core: lock %d request: %w", rl.id, err)
	}

	// Await the GRANT, chasing NackNotHome redirects when home placement
	// has moved (or is moving) the lock's manager.
	var grant *wire.Grant
	for grant == nil {
		select {
		case g := <-grantCh:
			if g.nack != nil {
				if g.nack.Code == wire.NackNotHome {
					rl.node.learnHome(rl.id, g.nack.Home, g.nack.HomeEpoch)
					// Follow the redirect even when an already-learned
					// route outranks it: the redirecting manager is
					// authoritative about not being the home, and the
					// bounce terminates once a home installs the record.
					if err := rl.node.client.sendToSite(ctx, req, g.nack.Home); err != nil {
						return fmt.Errorf("core: lock %d request: %w", rl.id, err)
					}
					continue
				}
				return rl.nackError(g.nack)
			}
			grant = g.grant
		case <-rl.node.done:
			return ErrClosed
		case <-ctx.Done():
			return fmt.Errorf("core: lock %d awaiting grant: %w", rl.id, ctx.Err())
		}
	}
	span.Phase(obs.HRequestRTT)
	span.SetVersion(grant.Version)

	// Await the data if a new version is in flight. The thread never
	// assumes replicas will arrive; it examines the flag.
	for grant.Flag == wire.NeedNewVersion {
		reached, waiter := rl.st.versionReached(grant.Version)
		if reached {
			break
		}
		select {
		case <-waiter.ch:
		case <-rl.node.done:
			rl.st.dropWaiter(waiter)
			return ErrClosed
		case g := <-grantCh:
			// A revised grant supersedes the original: the promised
			// version is lost and an older one must be accepted.
			rl.st.dropWaiter(waiter)
			if g.nack != nil {
				if g.nack.Code == wire.NackNotHome {
					// A stale redirect for a duplicate request; the
					// grant in hand already settles where the home is.
					continue
				}
				return rl.nackError(g.nack)
			}
			if g.grant.Revised {
				grant = g.grant
			}
		case <-ctx.Done():
			rl.st.dropWaiter(waiter)
			// We own the lock but never saw the data: abort the hold so
			// the system does not deadlock on us.
			rl.releaseAborted(grant, shared)
			return fmt.Errorf("core: lock %d awaiting transfer: %w", rl.id, ctx.Err())
		}
	}

	span.Phase(obs.HTransferWait)
	span.SetVersion(grant.Version)

	rl.st.mu.Lock()
	rl.st.holder = rl.h.id
	rl.st.heldGrant = grant
	rl.st.heldShared = shared
	if grant.Fence > rl.st.fence {
		rl.st.fence = grant.Fence
	}
	if grant.Version > rl.st.version && grant.Flag == wire.VersionOK {
		// VERSIONOK with a newer version means the synchronization thread
		// believes our copy is current (we are in the up-to-date set from
		// an earlier push); trust the bookkeeping.
		rl.st.version = grant.Version
	}
	if rl.node.histEnabled() {
		// What this thread sees on entering the lock: the local version and
		// the bytes behind it, against the version the grant promised.
		rl.node.recordHist(wire.HistoryEvent{
			Kind:       wire.HistObserve,
			Site:       rl.node.cfg.Site,
			Thread:     rl.h.id,
			Lock:       rl.id,
			Version:    rl.st.version,
			AuxVersion: grant.Version,
			Shared:     shared,
			Digests:    rl.node.digestReplicasLocked(rl.st),
		})
	}
	rl.st.mu.Unlock()
	rl.node.fireFault(FaultContext{
		Point: FPKillLockHolder, Lock: rl.id, Thread: rl.h.id, Version: grant.Version,
	})
	span.End(obs.HAcquireTotal)
	ok = true
	return nil
}

// Unlock releases the lock per Figure 5's unlock(): disseminate the new
// value to UR-1 registered daemons, then send the synchronization thread
// the release with the new version number and the up-to-date set. With the
// paper's fixed home it returns once that release is acknowledged. Under
// home placement it returns once the release has been handed to the
// release carriage (client.carryRelease): nil then means "disseminated and
// on its way", a release the carriage cannot deliver is counted
// (obs.CReleaseFailures) and the hold falls to its lease, and this site's
// next acquire of the same lock waits at the local gate for the ack.
func (rl *ReplicaLock) Unlock(ctx context.Context) error {
	rl.st.mu.Lock()
	if rl.st.holder != rl.h.id || rl.st.heldGrant == nil {
		rl.st.mu.Unlock()
		return ErrNotHeld
	}
	grant := rl.st.heldGrant
	shared := rl.st.heldShared
	ur := rl.st.ur
	rl.st.mu.Unlock()

	span := rl.node.obs().StartSpan("release", uint32(rl.node.cfg.Site), uint64(rl.id))
	newVersion := grant.Version
	upToDate := wire.NewSiteSet(rl.node.cfg.Site)
	if !shared {
		newVersion = grant.Version + 1
		if rl.node.fireFault(FaultContext{
			Point: FPCrashAfterReleaseBeforePush, Lock: rl.id, Thread: rl.h.id, Version: newVersion,
		}).Drop {
			// The holder "crashed" with the update applied only locally:
			// nothing is disseminated and no release is sent, so the hold
			// stands at the synchronization thread until its lease breaks.
			// The in-place writes were never committed — mark the content
			// untrusted so the daemon won't serve it as the old version.
			rl.st.mu.Lock()
			rl.st.uncommitted = true
			rl.st.holder = 0
			rl.st.heldGrant = nil
			rl.st.mu.Unlock()
			<-rl.st.gate
			return fmt.Errorf("core: unlock %d: fault injected at %s", rl.id, FPCrashAfterReleaseBeforePush)
		}
		rl.st.mu.Lock()
		// Never reuse a version number: after Section 4 recovery weakens a
		// lock to an older surviving copy, grant.Version+1 can collide with
		// a version already committed under the lost lineage — publishing
		// different bytes under an existing number. The grant's floor covers
		// versions the manager committed; the local check covers a late
		// transfer of a weakened-away version landing here mid-hold.
		if newVersion <= grant.VersionFloor {
			newVersion = grant.VersionFloor + 1
		}
		if rl.st.version >= newVersion {
			newVersion = rl.st.version + 1
		}
		// The exclusive holder may have rewritten content without the
		// version changing until now; any cached marshaled form is stale
		// (and becomes the delta base for the step the marshal records).
		rl.st.bumpVersionLocked(newVersion)
		rl.st.uncommitted = false
		rl.st.notifyVersionLocked()
		var payloads []wire.ReplicaPayload
		var pushDeltaMsg *wire.ReplicaDelta
		var err error
		if ur > 1 || rl.node.durableStore() {
			// Marshal only when disseminating: with UR = 1 the new value
			// stays here until another site's acquisition pulls it. A
			// durable store marshals regardless — the write-ahead log needs
			// the bytes now, crash or no crash.
			payloads, err = rl.marshalReplicasLocked()
			if err == nil {
				// A push delta only has to bridge the single step from the
				// version every up-to-date sharer already holds.
				pushDeltaMsg = rl.st.buildDeltaLocked(rl.node.cfg.Site, grant.Version, newVersion, payloads, 0, true)
			}
		}
		if err == nil && payloads != nil {
			// Persisted dirty: the version is published locally but its
			// release is not yet acknowledged. A crash between here and the
			// release recovers the bytes as dirty, never as committed.
			rl.node.persistReplicasLocked(rl.st, newVersion, true, payloads, pushDeltaMsg)
		}
		if err == nil && rl.node.histEnabled() {
			// The release's bytes define the new version; recorded before
			// any push leaves, so appliers are sequenced after it.
			digests := wire.DigestPayloads(payloads)
			if payloads == nil {
				digests = rl.node.digestReplicasLocked(rl.st)
			}
			rl.node.recordHist(wire.HistoryEvent{
				Kind:    wire.HistPublish,
				Site:    rl.node.cfg.Site,
				Thread:  rl.h.id,
				Lock:    rl.id,
				Version: newVersion,
				Digests: digests,
			})
		}
		rl.st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: unlock %d: %w", rl.id, err)
		}
		if ur > 1 {
			acked := rl.node.xfer.disseminate(ctx, rl.id, newVersion, payloads, pushDeltaMsg, grant.Sharers, grant.UpToDate, ur-1)
			for _, site := range acked {
				upToDate.Add(site)
			}
			span.Phase(obs.HDisseminate)
		}
	}
	span.SetVersion(newVersion)

	rel := &wire.ReleaseLock{
		Lock:       rl.id,
		Releaser:   rl.node.cfg.Site,
		Thread:     rl.h.id,
		NewVersion: newVersion,
		UpToDate:   upToDate,
		Shared:     shared,
		Fence:      grant.Fence,
	}
	rl.st.mu.Lock()
	// The hold is the carriage's now: a second Unlock is ErrNotHeld, while
	// holder stays set until the release settles, so a late revised grant is
	// still recognised as this thread's and not handed back.
	rl.st.heldGrant = nil
	rl.st.mu.Unlock()
	done := rl.node.client.carryRelease(rel, nil, func(err error) {
		rl.st.mu.Lock()
		if err == nil && !shared {
			// The release reached the synchronization thread: the published
			// version is committed, and the persisted record can say so.
			rl.node.persistCommitLocked(rl.st, newVersion)
		}
		rl.st.holder = 0
		rl.st.mu.Unlock()
		if err == nil {
			rl.node.obs().Inc(obs.CReleases)
		}
		// "a local transfer is not permitted to insure lock acquisition
		// proceeds in a manner that guarantees fairness": local waiters go
		// through the home-site queue like everyone else — and only once
		// this release is acknowledged, so the home never sees an ACQUIRE
		// from a site whose hold it still records.
		<-rl.st.gate
	})
	if rl.node.ring.Len() == 1 {
		// The paper's unlock() sends the release and waits for it. Under
		// home placement that wait is a wide-area round trip the protocol
		// never asked for, and it is left to the carriage and the gate.
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("core: unlock %d release: %w", rl.id, err)
			}
		case <-ctx.Done():
			return fmt.Errorf("core: unlock %d release: %w", rl.id, ctx.Err())
		}
	}
	span.End(obs.HReleaseTotal)
	return nil
}

// releaseAborted tells the synchronization thread we gave up without ever
// observing the granted version.
func (rl *ReplicaLock) releaseAborted(grant *wire.Grant, shared bool) {
	// Waited for: the caller reopens the gate when this returns.
	<-rl.node.client.carryRelease(&wire.ReleaseLock{
		Lock:       rl.id,
		Releaser:   rl.node.cfg.Site,
		Thread:     rl.h.id,
		NewVersion: grant.Version,
		UpToDate:   wire.SiteSet{},
		Shared:     shared,
		Aborted:    true,
		Fence:      grant.Fence,
	}, nil, nil)
}

// marshalReplicasLocked packs the lock's replicas — Figure 6's
// packReplicas() — populating the version-keyed payload cache so a later
// transfer of the same version skips the marshal. Caller holds st.mu.
func (rl *ReplicaLock) marshalReplicasLocked() ([]wire.ReplicaPayload, error) {
	return rl.st.marshalPayloadsLocked(rl.node.cfg.Codec)
}

// Replicas returns the replicas associated with this lock at this site.
func (rl *ReplicaLock) Replicas() []*Replica {
	rl.st.mu.Lock()
	defer rl.st.mu.Unlock()
	out := make([]*Replica, len(rl.st.replicas))
	copy(out, rl.st.replicas)
	return out
}
