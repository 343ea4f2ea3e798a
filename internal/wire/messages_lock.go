package wire

// This file defines the lock-protocol and replica-transfer messages from
// the paper's Figures 5-7, plus the fault-tolerance refinements of
// Section 4 (push updates, version polling, heartbeats, lock nacks, and
// synchronization-thread migration).

// AcquireLock is the REQUEST message an application thread sends to the
// synchronization thread when it calls ReplicaLock.lock().
type AcquireLock struct {
	Lock      LockID
	Requester SiteID
	Thread    ThreadID
	// Shared requests a read-only (shared) lock, the extension the paper
	// notes the basic exclusive algorithm "can easily be modified" to
	// support.
	Shared bool
	// LeaseMillis is the thread's declared estimate of how long it will
	// hold the lock, used by the synchronization thread's lock-breaking
	// failure detector (Section 4). Zero means the cluster default.
	LeaseMillis uint32
	// HaveVersion advertises the replica version the requesting site
	// already holds, so the transferring daemon can decide between a delta
	// and a full replica transfer. Zero means no usable local copy.
	HaveVersion uint64
}

// Kind implements Payload.
func (*AcquireLock) Kind() Kind { return KindAcquireLock }

func (m *AcquireLock) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Requester))
	w.U64(uint64(m.Thread))
	w.Bool(m.Shared)
	w.U32(m.LeaseMillis)
	w.U64(m.HaveVersion)
}

func (m *AcquireLock) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Requester = SiteID(r.U32())
	m.Thread = ThreadID(r.U64())
	m.Shared = r.Bool()
	m.LeaseMillis = r.U32()
	m.HaveVersion = r.U64()
	return r.Err()
}

// Grant is the synchronization thread's response awarding the lock. It
// carries the new version number of the associated replicas and the flag
// telling the acquirer whether fresh replica data is on its way.
type Grant struct {
	Lock    LockID
	Thread  ThreadID
	Version uint64
	Flag    VersionFlag
	// Shared reports whether the grant is for a read-only lock.
	Shared bool
	// Epoch identifies the synchronization-thread incarnation that issued
	// the grant; it changes when a surrogate takes over (Section 4).
	Epoch uint32
	// Sharers is the set of sites whose daemons are registered for this
	// lock's replicas; the holder picks push-update targets from it when
	// UR > 1.
	Sharers SiteSet
	// UpToDate is the set of sites the synchronization thread believes
	// hold the granted version; the releaser uses it to decide which
	// dissemination targets can accept a delta against that version.
	UpToDate SiteSet
	// Revised marks a follow-up grant that supersedes an earlier one for
	// the same acquisition — sent when failure handling discovered that
	// the promised version is lost and an older version must be accepted
	// (the paper's "most recently available old version").
	Revised bool
	// VersionFloor is the highest version number the synchronization
	// thread has ever committed for this lock. After Section 4 recovery
	// weakens the lock to an older surviving copy, Version drops below
	// this mark; an exclusive releaser must still publish strictly above
	// it so a version number is never reused for different bytes.
	VersionFloor uint64
	// Fence is the monotonic fencing token minted by the lock's home for
	// this hold. Tokens strictly increase per lock across grants, home
	// handoffs and standby promotions (the record carries the counter), so
	// downstream systems can reject writes stamped with the token of a
	// lease-broken ex-holder. A revised grant re-carries the hold's
	// original token. The field is unconditionally on the wire — adding
	// it changed the Grant format — and a minted token is never zero.
	Fence uint64
}

// Kind implements Payload.
func (*Grant) Kind() Kind { return KindGrant }

func (m *Grant) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U64(uint64(m.Thread))
	w.U64(m.Version)
	w.U8(uint8(m.Flag))
	w.Bool(m.Shared)
	w.U32(m.Epoch)
	m.Sharers.encode(w)
	m.UpToDate.encode(w)
	w.Bool(m.Revised)
	w.U64(m.VersionFloor)
	w.U64(m.Fence)
}

func (m *Grant) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Thread = ThreadID(r.U64())
	m.Version = r.U64()
	m.Flag = VersionFlag(r.U8())
	m.Shared = r.Bool()
	m.Epoch = r.U32()
	m.Sharers = decodeSiteSet(r)
	m.UpToDate = decodeSiteSet(r)
	m.Revised = r.Bool()
	m.VersionFloor = r.U64()
	m.Fence = r.U64()
	return r.Err()
}

// NackCode classifies why an AcquireLock was refused, so the requester can
// map the refusal to the right error.
type NackCode uint8

const (
	// NackBanned: the requesting thread was banned after a detected
	// failure.
	NackBanned NackCode = 0
	// NackUnknownLock: the lock ID has never been registered by any
	// daemon; the synchronization thread refuses to fabricate a record
	// for it.
	NackUnknownLock NackCode = 1
	// NackNotHome: this site is not (or is no longer) the lock's home;
	// Home/HomeEpoch name the manager the requester should retry against.
	// Sent by an old home after a migration handed the lock away, and by
	// ring members that receive traffic routed with a stale placement
	// view.
	NackNotHome NackCode = 2
)

// LockNack refuses an AcquireLock, e.g. because the requesting thread was
// banned after a detected failure ("an application thread that fails in
// this manner is prevented from making future requests", Section 4), or
// because the named lock was never registered.
type LockNack struct {
	Lock   LockID
	Thread ThreadID
	Code   NackCode
	Reason string
	// Home and HomeEpoch accompany NackNotHome: the manager site the
	// requester should retry against, and that home's epoch so stale
	// redirects lose races (zero otherwise).
	Home      SiteID
	HomeEpoch uint32
}

// Kind implements Payload.
func (*LockNack) Kind() Kind { return KindLockNack }

func (m *LockNack) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U64(uint64(m.Thread))
	w.U8(uint8(m.Code))
	w.String16(m.Reason)
	w.U32(uint32(m.Home))
	w.U32(m.HomeEpoch)
}

func (m *LockNack) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Thread = ThreadID(r.U64())
	m.Code = NackCode(r.U8())
	m.Reason = r.String16()
	m.Home = SiteID(r.U32())
	m.HomeEpoch = r.U32()
	return r.Err()
}

// ReleaseLock is sent by ReplicaLock.unlock(). With the fault-tolerance
// refinements it also carries the set of daemons that now hold an
// up-to-date copy, because the releasing thread may have pushed its new
// version to several sites (UR dissemination).
type ReleaseLock struct {
	Lock       LockID
	Releaser   SiteID
	Thread     ThreadID
	NewVersion uint64
	// UpToDate is the bit vector of daemon sites holding NewVersion,
	// including the releaser itself.
	UpToDate SiteSet
	// Shared reports that a read-only hold is being released.
	Shared bool
	// Aborted reports that the holder never observed the granted version
	// (it gave up waiting for the transfer); the synchronization thread
	// keeps its version and last-owner bookkeeping unchanged.
	Aborted bool
	// Fence echoes the fencing token the matching Grant carried, so
	// downstream consumers of the release can correlate the commit with
	// the hold's token. Like Grant.Fence, the field is unconditionally on
	// the wire.
	Fence uint64
}

// Kind implements Payload.
func (*ReleaseLock) Kind() Kind { return KindReleaseLock }

func (m *ReleaseLock) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Releaser))
	w.U64(uint64(m.Thread))
	w.U64(m.NewVersion)
	m.UpToDate.encode(w)
	w.Bool(m.Shared)
	w.Bool(m.Aborted)
	w.U64(m.Fence)
}

func (m *ReleaseLock) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Releaser = SiteID(r.U32())
	m.Thread = ThreadID(r.U64())
	m.NewVersion = r.U64()
	m.UpToDate = decodeSiteSet(r)
	m.Shared = r.Bool()
	m.Aborted = r.Bool()
	m.Fence = r.U64()
	return r.Err()
}

// TransferReplica is the synchronization thread's directive to the daemon
// holding the most recent replicas: send your copy for this lock to the
// destination site. Replica data itself flows daemon-to-daemon (never
// through the synchronization thread), so the directive carries everything
// the sending daemon needs to reach the destination.
type TransferReplica struct {
	Lock LockID
	// Dest is the site whose daemon should receive the replicas.
	Dest SiteID
	// Version is the replica version being requested, used by the
	// destination to match arriving data to the grant it received.
	Version uint64
	// RequestID correlates the directive, any hybrid stream setup, and the
	// final ReplicaData.
	RequestID uint64
	// DestVersion is the replica version the destination advertised in its
	// AcquireLock, letting the sending daemon ship a delta when its update
	// log still covers DestVersion..Version. Zero means no usable copy, so
	// the sender must transfer the full replicas.
	DestVersion uint64
}

// Kind implements Payload.
func (*TransferReplica) Kind() Kind { return KindTransferReplica }

func (m *TransferReplica) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Dest))
	w.U64(m.Version)
	w.U64(m.RequestID)
	w.U64(m.DestVersion)
}

func (m *TransferReplica) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Dest = SiteID(r.U32())
	m.Version = r.U64()
	m.RequestID = r.U64()
	m.DestVersion = r.U64()
	return r.Err()
}

// RegisterReplica announces to the synchronization thread that a site's
// daemon now manages replicas for a lock ("All objects that the
// application threads wish to share are registered with the local daemon
// thread"). The home site uses registrations to know which daemons can
// accept push updates and answer version polls.
type RegisterReplica struct {
	Lock LockID
	Site SiteID
	// Names lists the replica names associated with the lock at this site.
	Names []string
	// Creator marks the registration that created the shared object (the
	// constructor with initial data), which seeds version 1.
	Creator bool
}

// Kind implements Payload.
func (*RegisterReplica) Kind() Kind { return KindRegisterReplica }

func (m *RegisterReplica) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Site))
	w.U16(uint16(len(m.Names)))
	for _, n := range m.Names {
		w.String16(n)
	}
	w.Bool(m.Creator)
}

func (m *RegisterReplica) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Site = SiteID(r.U32())
	n := int(r.U16())
	m.Names = make([]string, 0, n)
	for i := 0; i < n; i++ {
		m.Names = append(m.Names, r.String16())
	}
	m.Creator = r.Bool()
	return r.Err()
}

// ReplicaPayload is one replica's marshaled state inside a ReplicaData or
// PushUpdate message.
type ReplicaPayload struct {
	Name string
	Data []byte
}

func encodePayloads(w *Writer, ps []ReplicaPayload) {
	w.U16(uint16(len(ps)))
	for _, p := range ps {
		w.String16(p.Name)
		w.Bytes32(p.Data)
	}
}

func decodePayloads(r *Reader) []ReplicaPayload {
	return decodePayloadsN(r, int(r.U16()))
}

// decodePayloadsN reads n payloads whose count the caller already consumed.
func decodePayloadsN(r *Reader, n int) []ReplicaPayload {
	out := make([]ReplicaPayload, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ReplicaPayload{Name: r.String16(), Data: r.Bytes32()})
	}
	return out
}

// ReplicaData carries the marshaled replicas associated with a lock from
// one daemon to another, either in response to a TransferReplica directive
// or over the hybrid protocol's stream.
type ReplicaData struct {
	Lock      LockID
	From      SiteID
	Version   uint64
	RequestID uint64
	Replicas  []ReplicaPayload
}

// Kind implements Payload.
func (*ReplicaData) Kind() Kind { return KindReplicaData }

func (m *ReplicaData) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.From))
	w.U64(m.Version)
	w.U64(m.RequestID)
	encodePayloads(w, m.Replicas)
}

func (m *ReplicaData) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.From = SiteID(r.U32())
	m.Version = r.U64()
	m.RequestID = r.U64()
	m.Replicas = decodePayloads(r)
	return r.Err()
}

func (m *ReplicaData) encodedSize() int {
	return 4 + 4 + 8 + 8 + payloadsSize(m.Replicas)
}

func payloadsSize(ps []ReplicaPayload) int {
	n := 2
	for _, p := range ps {
		n += 2 + len(p.Name) + 4 + len(p.Data)
	}
	return n
}

// PushUpdate disseminates a new replica version to a registered daemon at
// unlock time (the push-based update scheme of Section 4). The receiving
// daemon applies the update directly to its local replicas.
type PushUpdate struct {
	Lock     LockID
	From     SiteID
	Version  uint64
	Replicas []ReplicaPayload
}

// Kind implements Payload.
func (*PushUpdate) Kind() Kind { return KindPushUpdate }

func (m *PushUpdate) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.From))
	w.U64(m.Version)
	encodePayloads(w, m.Replicas)
}

func (m *PushUpdate) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.From = SiteID(r.U32())
	m.Version = r.U64()
	m.Replicas = decodePayloads(r)
	return r.Err()
}

func (m *PushUpdate) encodedSize() int {
	return 4 + 4 + 8 + payloadsSize(m.Replicas)
}

// PatchOp overwrites the bytes at Off in a replica's marshaled state with
// Data. Offsets are in the coordinates of the new (patched) blob.
type PatchOp struct {
	Off  uint32
	Data []byte
}

// DeltaPayload is one replica's update inside a ReplicaDelta: either a
// patch (NewLen, Ops, Checksum over the patched blob) against the blob the
// receiver holds at FromVersion, or — when Full is set — a complete
// marshaled copy, the per-replica fallback for replicas whose delta would
// not pay off (rewritten, resized mid-chain, or newly associated).
type DeltaPayload struct {
	Name string
	Full bool
	// Data is the complete marshaled state when Full is set.
	Data []byte
	// NewLen is the patched blob's length when Full is not set.
	NewLen uint32
	// Checksum is an IEEE CRC-32 over the patched blob; a mismatch after
	// applying Ops means the receiver's base diverged and it must request
	// a full transfer.
	Checksum uint32
	Ops      []PatchOp
}

func (p *DeltaPayload) encode(w *Writer) {
	w.String16(p.Name)
	w.Bool(p.Full)
	if p.Full {
		w.Bytes32(p.Data)
		return
	}
	w.U32(p.NewLen)
	w.U32(p.Checksum)
	w.U16(uint16(len(p.Ops)))
	for _, op := range p.Ops {
		w.U32(op.Off)
		w.Bytes32(op.Data)
	}
}

func (p *DeltaPayload) decode(r *Reader) {
	p.Name = r.String16()
	p.Full = r.Bool()
	if p.Full {
		p.Data = r.Bytes32()
		return
	}
	p.NewLen = r.U32()
	p.Checksum = r.U32()
	n := int(r.U16())
	p.Ops = make([]PatchOp, 0, n)
	for i := 0; i < n; i++ {
		p.Ops = append(p.Ops, PatchOp{Off: r.U32(), Data: r.Bytes32()})
	}
}

func (p *DeltaPayload) encodedSize() int {
	n := 2 + len(p.Name) + 1
	if p.Full {
		return n + 4 + len(p.Data)
	}
	n += 4 + 4 + 2
	for _, op := range p.Ops {
		n += 4 + 4 + len(op.Data)
	}
	return n
}

// encodeDeltas, decodeDeltas and deltasSize are the counted DeltaPayload
// list every delta-carrying frame (ReplicaDelta, RelayPush, WALRecord)
// ends its patch set with.
func encodeDeltas(w *Writer, ds []DeltaPayload) {
	w.U16(uint16(len(ds)))
	for i := range ds {
		ds[i].encode(w)
	}
}

func decodeDeltas(r *Reader) []DeltaPayload {
	ds := make([]DeltaPayload, int(r.U16()))
	for i := range ds {
		ds[i].decode(r)
	}
	return ds
}

func deltasSize(ds []DeltaPayload) int {
	n := 2
	for i := range ds {
		n += ds[i].encodedSize()
	}
	return n
}

// ReplicaDelta is the delta-capable counterpart of ReplicaData (Push=false,
// answering a TransferReplica directive) and PushUpdate (Push=true, UR
// dissemination at release). It upgrades the receiver's replicas from
// FromVersion to Version by patching the marshaled state the receiver
// already holds. A receiver that cannot apply it (wrong base version,
// checksum mismatch) answers with a DeltaNack and the sender falls back to
// a full transfer.
type ReplicaDelta struct {
	Lock        LockID
	From        SiteID
	Version     uint64
	FromVersion uint64
	// RequestID correlates a transfer delta with its directive; zero for
	// pushes.
	RequestID uint64
	Push      bool
	Replicas  []DeltaPayload
}

// Kind implements Payload.
func (*ReplicaDelta) Kind() Kind { return KindReplicaDelta }

func (m *ReplicaDelta) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.From))
	w.U64(m.Version)
	w.U64(m.FromVersion)
	w.U64(m.RequestID)
	w.Bool(m.Push)
	encodeDeltas(w, m.Replicas)
}

func (m *ReplicaDelta) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.From = SiteID(r.U32())
	m.Version = r.U64()
	m.FromVersion = r.U64()
	m.RequestID = r.U64()
	m.Push = r.Bool()
	m.Replicas = decodeDeltas(r)
	return r.Err()
}

func (m *ReplicaDelta) encodedSize() int {
	return 4 + 4 + 8 + 8 + 8 + 1 + deltasSize(m.Replicas)
}

// DeltaNack tells the sender of a ReplicaDelta that the receiver could not
// apply it (stale or missing base version, or a checksum mismatch after
// patching) and needs a full transfer of Version instead.
type DeltaNack struct {
	Lock LockID
	// Site is the receiver that rejected the delta.
	Site      SiteID
	Version   uint64
	RequestID uint64
	Push      bool
	Reason    string
}

// Kind implements Payload.
func (*DeltaNack) Kind() Kind { return KindDeltaNack }

func (m *DeltaNack) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Site))
	w.U64(m.Version)
	w.U64(m.RequestID)
	w.Bool(m.Push)
	w.String16(m.Reason)
}

func (m *DeltaNack) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Site = SiteID(r.U32())
	m.Version = r.U64()
	m.RequestID = r.U64()
	m.Push = r.Bool()
	m.Reason = r.String16()
	return r.Err()
}

// PushAck confirms application of a PushUpdate so the releasing thread can
// count the site into the up-to-date set (and detect failed daemons by the
// ack timing out).
type PushAck struct {
	Lock    LockID
	Site    SiteID
	Version uint64
}

// Kind implements Payload.
func (*PushAck) Kind() Kind { return KindPushAck }

func (m *PushAck) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Site))
	w.U64(m.Version)
}

func (m *PushAck) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Site = SiteID(r.U32())
	m.Version = r.U64()
	return r.Err()
}

// PollVersion asks a daemon which version of a lock's replicas it holds.
// The synchronization thread polls after a transfer timeout to locate the
// most recent surviving copy (Section 4).
type PollVersion struct {
	Lock  LockID
	Nonce uint64
}

// Kind implements Payload.
func (*PollVersion) Kind() Kind { return KindPollVersion }

func (m *PollVersion) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U64(m.Nonce)
}

func (m *PollVersion) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Nonce = r.U64()
	return r.Err()
}

// PollVersionReply reports the replying daemon's local version for the
// lock's replicas. HasData is false when the daemon never received a copy.
type PollVersionReply struct {
	Lock    LockID
	Site    SiteID
	Nonce   uint64
	Version uint64
	HasData bool
}

// Kind implements Payload.
func (*PollVersionReply) Kind() Kind { return KindPollVersionReply }

func (m *PollVersionReply) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Site))
	w.U64(m.Nonce)
	w.U64(m.Version)
	w.Bool(m.HasData)
}

func (m *PollVersionReply) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Site = SiteID(r.U32())
	m.Nonce = r.U64()
	m.Version = r.U64()
	m.HasData = r.Bool()
	return r.Err()
}

// Heartbeat probes a daemon suspected of having failed, e.g. when a lock
// has been held past its lease (Section 4).
type Heartbeat struct {
	Nonce uint64
}

// Kind implements Payload.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

func (m *Heartbeat) encode(w *Writer) { w.U64(m.Nonce) }

func (m *Heartbeat) decode(r *Reader) error {
	m.Nonce = r.U64()
	return r.Err()
}

// HeartbeatAck answers a Heartbeat.
type HeartbeatAck struct {
	Nonce uint64
	Site  SiteID
}

// Kind implements Payload.
func (*HeartbeatAck) Kind() Kind { return KindHeartbeatAck }

func (m *HeartbeatAck) encode(w *Writer) {
	w.U64(m.Nonce)
	w.U32(uint32(m.Site))
}

func (m *HeartbeatAck) decode(r *Reader) error {
	m.Nonce = r.U64()
	m.Site = SiteID(r.U32())
	return r.Err()
}

// OpenStreamRequest asks the destination daemon to accept a bulk replica
// transfer over the hybrid protocol's stream transport. MNet carries this
// control message; the reply propagates the TCP-style listen address
// ("Mocha's network communication is used for establishing a TCP
// connection, i.e., propagating TCP port numbers").
type OpenStreamRequest struct {
	RequestID uint64
	From      SiteID
}

// Kind implements Payload.
func (*OpenStreamRequest) Kind() Kind { return KindOpenStreamRequest }

func (m *OpenStreamRequest) encode(w *Writer) {
	w.U64(m.RequestID)
	w.U32(uint32(m.From))
}

func (m *OpenStreamRequest) decode(r *Reader) error {
	m.RequestID = r.U64()
	m.From = SiteID(r.U32())
	return r.Err()
}

// OpenStreamReply carries the destination's stream listen address back to
// the sender, which then dials it and writes the replica payload.
type OpenStreamReply struct {
	RequestID uint64
	Addr      string
}

// Kind implements Payload.
func (*OpenStreamReply) Kind() Kind { return KindOpenStreamReply }

func (m *OpenStreamReply) encode(w *Writer) {
	w.U64(m.RequestID)
	w.String16(m.Addr)
}

func (m *OpenStreamReply) decode(r *Reader) error {
	m.RequestID = r.U64()
	m.Addr = r.String16()
	return r.Err()
}
