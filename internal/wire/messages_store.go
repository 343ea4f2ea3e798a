package wire

// Durable-store record. The log-structured replica store (internal/store)
// frames its write-ahead log with the wire codec: each on-disk record is a
// Marshal'ed WALRecord inside a length+CRC frame, reusing the S29 delta
// encoding (DeltaPayload) as the record body so a delta append costs the
// same bytes on disk as it did on the network. The message never crosses
// the network — it is registered as a Kind so the decoder, the fuzzer, and
// the fixed-point re-marshal property cover it like every wire message.

// WALOp classifies one write-ahead log record.
type WALOp uint8

const (
	// WALPut installs a complete replica set for a lock at Version
	// (payloads are Full DeltaPayloads).
	WALPut WALOp = 1
	// WALDelta patches the lock's replicas from FromVersion to Version
	// (payloads carry patch ops against the FromVersion blobs).
	WALDelta WALOp = 2
	// WALCommit marks Version as committed (clears the dirty flag) without
	// carrying payloads.
	WALCommit WALOp = 3
)

// WALRecord is one durable-store log record: a full replica-set install, a
// delta against the previous version, or a commit mark. Dirty records replay
// as uncommitted state — a recovered daemon reports them as dirty to version
// polls, never as committed.
type WALRecord struct {
	Op   WALOp
	Lock LockID
	// FromVersion is the delta base for WALDelta records, zero otherwise.
	FromVersion uint64
	Version     uint64
	// Dirty marks state whose commit was not yet durable when the record
	// was written.
	Dirty bool
	// Fence is the highest fencing token persisted with the lock's record.
	Fence uint64
	// Replicas carries the replica bytes: Full payloads for WALPut, patch
	// ops for WALDelta, empty for WALCommit.
	Replicas []DeltaPayload
}

// Kind implements Payload.
func (*WALRecord) Kind() Kind { return KindWALRecord }

func (m *WALRecord) encode(w *Writer) {
	w.U8(uint8(m.Op))
	w.U32(uint32(m.Lock))
	w.U64(m.FromVersion)
	w.U64(m.Version)
	w.Bool(m.Dirty)
	w.U64(m.Fence)
	encodeDeltas(w, m.Replicas)
}

func (m *WALRecord) decode(r *Reader) error {
	m.Op = WALOp(r.U8())
	m.Lock = LockID(r.U32())
	m.FromVersion = r.U64()
	m.Version = r.U64()
	m.Dirty = r.Bool()
	m.Fence = r.U64()
	m.Replicas = decodeDeltas(r)
	return r.Err()
}

func (m *WALRecord) encodedSize() int {
	return 1 + 4 + 8 + 8 + 1 + 8 + deltasSize(m.Replicas)
}
