package wire

// Home placement messages. With consistent-hash lock placement enabled the
// lock namespace is partitioned across manager sites and a lock's home can
// move at runtime — migrating toward its observed access locality, or
// failing over to the home's standby when the home dies. These
// messages carry the moves: HOMEHINT redirects a client that asked the
// wrong manager, HANDOFF ships a frozen lock record between managers,
// STANDBY streams record deltas to the home's standby, and HOMEMOVED
// broadcasts a promotion so every site updates its routing table.

// HeldLease is a hold (exclusive holder or reader) serialized inside a
// LockRecord. The lease is carried as a remaining duration, not a deadline:
// the receiver re-anchors it on its own clock, so a handoff or promotion
// never inherits clock skew from the old home.
type HeldLease struct {
	Thread ThreadID
	Site   SiteID
	Shared bool
	// RemainingMillis is how much of the lease was left when the record
	// was snapshotted (0 = already expired; the new home's sweep probes
	// it immediately).
	RemainingMillis uint32
}

func (h *HeldLease) encode(w *Writer) {
	w.U64(uint64(h.Thread))
	w.U32(uint32(h.Site))
	w.Bool(h.Shared)
	w.U32(h.RemainingMillis)
}

func (h *HeldLease) decode(r *Reader) {
	h.Thread = ThreadID(r.U64())
	h.Site = SiteID(r.U32())
	h.Shared = r.Bool()
	h.RemainingMillis = r.U32()
}

// LockRecord is one lock's complete manager-side record: the durable
// bookkeeping (version, high water, last owner, up-to-date/dirty/sharer
// sets, names, fence) plus the live hold state (holder and readers with
// remaining leases) that a migration, a standby promotion or a surrogate
// restored from a snapshot must preserve. Queued requests are deliberately absent —
// waiters re-issue against the new home after a NACK redirect or timeout.
type LockRecord struct {
	Lock      LockID
	Version   uint64
	HighWater uint64
	LastOwner SiteID
	UpToDate  SiteSet
	Dirty     SiteSet
	Sharers   SiteSet
	Names     []string
	// Holder is the exclusive holder when HasHolder is set.
	HasHolder bool
	Holder    HeldLease
	Readers   []HeldLease
	// Fence is the lock's fencing-token counter: the highest token the
	// record's home has minted. Carried so handoff and standby promotion
	// keep minting strictly above every token ever issued for the lock.
	Fence uint64
}

func (rec *LockRecord) encode(w *Writer) {
	w.U32(uint32(rec.Lock))
	w.U64(rec.Version)
	w.U64(rec.HighWater)
	w.U32(uint32(rec.LastOwner))
	rec.UpToDate.encode(w)
	rec.Dirty.encode(w)
	rec.Sharers.encode(w)
	w.U16(uint16(len(rec.Names)))
	for _, n := range rec.Names {
		w.String16(n)
	}
	w.Bool(rec.HasHolder)
	if rec.HasHolder {
		rec.Holder.encode(w)
	}
	w.U16(uint16(len(rec.Readers)))
	for i := range rec.Readers {
		rec.Readers[i].encode(w)
	}
	w.U64(rec.Fence)
}

func (rec *LockRecord) decode(r *Reader) {
	rec.Lock = LockID(r.U32())
	rec.Version = r.U64()
	rec.HighWater = r.U64()
	rec.LastOwner = SiteID(r.U32())
	rec.UpToDate = decodeSiteSet(r)
	rec.Dirty = decodeSiteSet(r)
	rec.Sharers = decodeSiteSet(r)
	if n := int(r.U16()); n > 0 && r.Err() == nil {
		rec.Names = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rec.Names = append(rec.Names, r.String16())
		}
	}
	rec.HasHolder = r.Bool()
	if rec.HasHolder {
		rec.Holder.decode(r)
	}
	if n := int(r.U16()); n > 0 && r.Err() == nil {
		rec.Readers = make([]HeldLease, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			var h HeldLease
			h.decode(r)
			rec.Readers = append(rec.Readers, h)
		}
	}
	rec.Fence = r.U64()
}

// HomeHint tells a site where a lock's manager now lives. Sent by an old
// home when a request for a migrated lock arrives on a stale route, and
// broadcast inside HomeMoved after a failover promotion. Receivers ignore
// hints whose Epoch is not newer than what they already know.
type HomeHint struct {
	Lock LockID
	Home SiteID
	// Epoch is the home's manager epoch; monotonically increasing across
	// migrations and promotions, so stale hints lose races.
	Epoch uint32
}

// Kind implements Payload.
func (*HomeHint) Kind() Kind { return KindHomeHint }

func (m *HomeHint) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.Home))
	w.U32(m.Epoch)
}

func (m *HomeHint) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.Home = SiteID(r.U32())
	m.Epoch = r.U32()
	return r.Err()
}

// HandoffRecord is phase two of a home migration: after freezing the lock
// (no new grants, arrivals queued), the old home ships the complete record
// to the new home. The new home installs it, bumps its epoch bookkeeping,
// and answers with a HandoffAck; only then does the old home start
// redirecting traffic.
type HandoffRecord struct {
	// From is the shipping (old home) manager site.
	From SiteID
	// Epoch is the old home's manager epoch at snapshot time; the new
	// home's install must record a strictly larger epoch for the lock.
	Epoch  uint32
	Record LockRecord
}

// Kind implements Payload.
func (*HandoffRecord) Kind() Kind { return KindHandoffRecord }

func (m *HandoffRecord) encode(w *Writer) {
	w.U32(uint32(m.From))
	w.U32(m.Epoch)
	m.Record.encode(w)
}

func (m *HandoffRecord) decode(r *Reader) error {
	m.From = SiteID(r.U32())
	m.Epoch = r.U32()
	m.Record.decode(r)
	return r.Err()
}

// HandoffAck confirms (or refuses) a HandoffRecord install. Until the ack
// arrives the old home still owns the lock: on refusal or timeout it
// unfreezes and resumes granting, so a lost handoff never strands the lock
// between homes.
type HandoffAck struct {
	Lock LockID
	// To is the accepting (new home) manager site.
	To    SiteID
	Epoch uint32
	OK    bool
}

// Kind implements Payload.
func (*HandoffAck) Kind() Kind { return KindHandoffAck }

func (m *HandoffAck) encode(w *Writer) {
	w.U32(uint32(m.Lock))
	w.U32(uint32(m.To))
	w.U32(m.Epoch)
	w.Bool(m.OK)
}

func (m *HandoffAck) decode(r *Reader) error {
	m.Lock = LockID(r.U32())
	m.To = SiteID(r.U32())
	m.Epoch = r.U32()
	m.OK = r.Bool()
	return r.Err()
}

// StandbyUpdate streams one lock record from a home to its standby (the
// nearest ring member the home measured) after a state-changing operation.
// The first one from a home also tells the standby to start watching it. Best-effort and idempotent:
// the standby just overwrites its shadow copy, and a promotion installs
// whatever shadows it holds. Delete retires a shadow when the home GCs an
// empty record.
type StandbyUpdate struct {
	// From is the home whose record this is; a standby keys its shadow
	// table by (From, Record.Lock).
	From SiteID
	// Epoch is the home's manager epoch, so a standby ignores updates
	// from a demoted predecessor incarnation.
	Epoch uint32
	// Seq orders snapshots of one lock within an epoch: updates stream
	// from concurrent operations, and an older snapshot arriving late must
	// not overwrite a newer one (it could erase a streamed hold).
	Seq    uint64
	Delete bool
	Record LockRecord
}

// Kind implements Payload.
func (*StandbyUpdate) Kind() Kind { return KindStandbyUpdate }

func (m *StandbyUpdate) encode(w *Writer) {
	w.U32(uint32(m.From))
	w.U32(m.Epoch)
	w.U64(m.Seq)
	w.Bool(m.Delete)
	m.Record.encode(w)
}

func (m *StandbyUpdate) decode(r *Reader) error {
	m.From = SiteID(r.U32())
	m.Epoch = r.U32()
	m.Seq = r.U64()
	m.Delete = r.Bool()
	m.Record.decode(r)
	return r.Err()
}

// HomeMoved announces that To now manages the listed locks, after a
// standby promotion (From died) or a bulk migration. Broadcast to every
// daemon; receivers install per-lock routes and drop stale ones by epoch
// comparison. An empty list moves From's whole ring slice: a surrogate
// restored the complete log of the manager serving it.
type HomeMoved struct {
	From  SiteID
	To    SiteID
	Epoch uint32
	Locks []LockID
}

// Kind implements Payload.
func (*HomeMoved) Kind() Kind { return KindHomeMoved }

func (m *HomeMoved) encode(w *Writer) {
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.U32(m.Epoch)
	w.U16(uint16(len(m.Locks)))
	for _, id := range m.Locks {
		w.U32(uint32(id))
	}
}

func (m *HomeMoved) decode(r *Reader) error {
	m.From = SiteID(r.U32())
	m.To = SiteID(r.U32())
	m.Epoch = r.U32()
	if n := int(r.U16()); n > 0 && r.Err() == nil {
		m.Locks = make([]LockID, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Locks = append(m.Locks, LockID(r.U32()))
		}
	}
	return r.Err()
}
