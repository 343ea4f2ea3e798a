// Package wire defines the binary message formats exchanged between Mocha
// sites: lock protocol traffic between application threads and the home
// site's synchronization thread, replica transfer directives and payloads
// between daemon threads, and runtime traffic (spawn, code shipping, remote
// printing, heartbeats).
//
// Every message is a Payload with a Kind byte followed by a fixed,
// big-endian field layout written and read with Writer and Reader. The
// format is deliberately simple and self-contained: Mocha predates (and the
// paper's network library replaces) any general-purpose RPC layer, so the
// wire package is the single source of truth for what crosses the network.
package wire

import (
	"errors"
	"fmt"
	"sync"
)

// Kind identifies a message type on the wire.
type Kind uint8

// Message kinds. The lock-protocol kinds correspond directly to the message
// types named in the paper's pseudocode (Figures 5-7): ACQUIRELOCK,
// RELEASELOCK, GRANT, TRANSFERREPLICA and REGISTERREPLICA. The remaining
// kinds carry the fault-tolerance refinements (Section 4) and the wide-area
// runtime traffic (Section 2).
const (
	KindInvalid Kind = iota

	// Lock protocol (Figures 5-7).
	KindAcquireLock
	KindGrant
	KindReleaseLock
	KindTransferReplica
	KindRegisterReplica
	KindReplicaData

	// Fault-tolerance refinements (Section 4).
	KindPushUpdate
	KindPushAck
	KindPollVersion
	KindPollVersionReply
	KindHeartbeat
	KindHeartbeatAck
	KindLockNack
	_ // was KindSyncMoved; a surrogate now announces itself with HomeMoved

	// Hybrid protocol control (Section 5).
	KindOpenStreamRequest
	KindOpenStreamReply

	// Runtime: spawn, remote evaluation, travel-bag traffic (Section 2).
	KindSpawn
	KindSpawnAck
	KindTaskResult
	KindCodeRequest
	KindCodeReply
	KindPrint
	KindStackDump
	KindEvent
	KindJoin
	KindJoinAck

	// Delta replica transfer (appended so earlier kind values stay stable).
	KindReplicaDelta
	KindDeltaNack

	// Dissemination relay tree (appended so earlier kind values stay
	// stable).
	KindRelayPush
	KindRelayAck

	// Home placement: migration handoff and standby failover (appended so
	// earlier kind values stay stable).
	KindHomeHint
	KindHandoffRecord
	KindHandoffAck
	KindStandbyUpdate
	KindHomeMoved

	// Durable store write-ahead log record (appended so earlier kind values
	// stay stable). Never sent over the network: the store frames it on
	// disk, reusing the wire codec so torn tails decode as ErrTruncated.
	KindWALRecord

	kindSentinel // keep last
)

var kindNames = map[Kind]string{
	KindInvalid:           "INVALID",
	KindAcquireLock:       "ACQUIRELOCK",
	KindGrant:             "GRANT",
	KindReleaseLock:       "RELEASELOCK",
	KindTransferReplica:   "TRANSFERREPLICA",
	KindRegisterReplica:   "REGISTERREPLICA",
	KindReplicaData:       "REPLICADATA",
	KindPushUpdate:        "PUSHUPDATE",
	KindPushAck:           "PUSHACK",
	KindPollVersion:       "POLLVERSION",
	KindPollVersionReply:  "POLLVERSIONREPLY",
	KindHeartbeat:         "HEARTBEAT",
	KindHeartbeatAck:      "HEARTBEATACK",
	KindLockNack:          "LOCKNACK",
	KindOpenStreamRequest: "OPENSTREAMREQUEST",
	KindOpenStreamReply:   "OPENSTREAMREPLY",
	KindSpawn:             "SPAWN",
	KindSpawnAck:          "SPAWNACK",
	KindTaskResult:        "TASKRESULT",
	KindCodeRequest:       "CODEREQUEST",
	KindCodeReply:         "CODEREPLY",
	KindPrint:             "PRINT",
	KindStackDump:         "STACKDUMP",
	KindEvent:             "EVENT",
	KindJoin:              "JOIN",
	KindJoinAck:           "JOINACK",
	KindReplicaDelta:      "REPLICADELTA",
	KindDeltaNack:         "DELTANACK",
	KindRelayPush:         "RELAYPUSH",
	KindRelayAck:          "RELAYACK",
	KindHomeHint:          "HOMEHINT",
	KindHandoffRecord:     "HANDOFFRECORD",
	KindHandoffAck:        "HANDOFFACK",
	KindStandbyUpdate:     "STANDBYUPDATE",
	KindHomeMoved:         "HOMEMOVED",
	KindWALRecord:         "WALRECORD",
}

// String returns the protocol name of the kind, matching the names used in
// the paper's pseudocode where one exists.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// SiteID identifies a participating site (a Mocha server). Site IDs are
// assigned from the host file: the home site is always site 1.
type SiteID uint32

// HomeSite is the SiteID of the node where the initial application thread
// executes and where the synchronization thread runs.
const HomeSite SiteID = 1

// LockID identifies a ReplicaLock. IDs are chosen by the application, as in
// the paper's `new ReplicaLock(1, mocha)`.
type LockID uint32

// ThreadID identifies an application thread within the cluster. The high 32
// bits hold the SiteID of the thread's server, the low 32 bits a per-site
// counter, so IDs are unique without coordination.
type ThreadID uint64

// MakeThreadID builds a cluster-unique thread ID.
func MakeThreadID(site SiteID, local uint32) ThreadID {
	return ThreadID(uint64(site)<<32 | uint64(local))
}

// Site returns the site component of the thread ID.
func (t ThreadID) Site() SiteID { return SiteID(t >> 32) }

// VersionFlag is the GRANT flag telling an acquiring thread whether its
// local replicas are already current (VERSIONOK) or whether a new version is
// in flight from another daemon (NEEDNEWVERSION).
type VersionFlag uint8

// GRANT version flags from Figure 5.
const (
	VersionOK VersionFlag = iota + 1
	NeedNewVersion
)

// String returns the pseudocode name of the flag.
func (f VersionFlag) String() string {
	switch f {
	case VersionOK:
		return "VERSIONOK"
	case NeedNewVersion:
		return "NEEDNEWVERSION"
	default:
		return fmt.Sprintf("VersionFlag(%d)", uint8(f))
	}
}

// Payload is implemented by every wire message.
type Payload interface {
	// Kind reports the message type.
	Kind() Kind
	// encode appends the message body (everything after the kind byte).
	encode(w *Writer)
	// decode parses the message body.
	decode(r *Reader) error
}

// ErrUnknownKind is returned by Unmarshal for a kind byte with no
// registered message type.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// ErrTruncated is returned when a message body ends before all declared
// fields have been read.
var ErrTruncated = errors.New("wire: truncated message")

// sizedPayload is implemented by the bulk replica frames (ReplicaData,
// PushUpdate, ReplicaDelta), whose size is dominated by payload data and
// therefore worth computing exactly before encoding.
type sizedPayload interface {
	encodedSize() int
}

// EncodedSizeHint reports the buffer capacity Marshal reserves for p: the
// exact frame size for messages that implement an encodedSize hint, and a
// small default for the fixed-layout control messages.
func EncodedSizeHint(p Payload) int {
	if s, ok := p.(sizedPayload); ok {
		return 1 + s.encodedSize()
	}
	return 64
}

// Marshal encodes a message, kind byte first. Bulk replica frames are
// encoded into an exactly-sized buffer so multi-hundred-kilobyte payloads
// allocate once instead of regrowing through doubling.
func Marshal(p Payload) []byte {
	w := NewWriter(EncodedSizeHint(p))
	w.U8(uint8(p.Kind()))
	p.encode(w)
	return w.Bytes()
}

// writerPool recycles Writer headers for MarshalAppend: the Writer
// escapes through the Payload.encode interface call, and pooling it keeps
// the in-place encode path allocation-free.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// MarshalAppend encodes a message onto the end of buf, kind byte first,
// and returns the extended slice. Handed a buffer with enough spare
// capacity (EncodedSizeHint bytes), it allocates nothing — the zero-copy
// path mnet's SendAppender builds on.
func MarshalAppend(p Payload, buf []byte) []byte {
	w := writerPool.Get().(*Writer)
	w.buf = buf
	w.initCap = cap(buf)
	w.U8(uint8(p.Kind()))
	p.encode(w)
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	return out
}

// Appender adapts a wire payload to mnet's structural Appender interface
// (EncodedSizeHint / AppendEncode), so senders can have the message
// encoded directly into the outgoing packet buffer instead of through an
// intermediate Marshal allocation.
type Appender struct{ P Payload }

// EncodedSizeHint reports the buffer capacity the encoding expects.
func (a Appender) EncodedSizeHint() int { return EncodedSizeHint(a.P) }

// AppendEncode appends the encoded message to buf and returns it.
func (a Appender) AppendEncode(buf []byte) []byte { return MarshalAppend(a.P, buf) }

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(b []byte) (Payload, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	k := Kind(b[0])
	p := newPayload(k)
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	r := NewReader(b[1:])
	if err := p.decode(r); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", k, err)
	}
	return p, nil
}

// newPayload returns a zero value of the message type for k, or nil.
func newPayload(k Kind) Payload {
	switch k {
	case KindAcquireLock:
		return &AcquireLock{}
	case KindGrant:
		return &Grant{}
	case KindReleaseLock:
		return &ReleaseLock{}
	case KindTransferReplica:
		return &TransferReplica{}
	case KindRegisterReplica:
		return &RegisterReplica{}
	case KindReplicaData:
		return &ReplicaData{}
	case KindPushUpdate:
		return &PushUpdate{}
	case KindPushAck:
		return &PushAck{}
	case KindPollVersion:
		return &PollVersion{}
	case KindPollVersionReply:
		return &PollVersionReply{}
	case KindHeartbeat:
		return &Heartbeat{}
	case KindHeartbeatAck:
		return &HeartbeatAck{}
	case KindLockNack:
		return &LockNack{}
	case KindOpenStreamRequest:
		return &OpenStreamRequest{}
	case KindOpenStreamReply:
		return &OpenStreamReply{}
	case KindSpawn:
		return &Spawn{}
	case KindSpawnAck:
		return &SpawnAck{}
	case KindTaskResult:
		return &TaskResult{}
	case KindCodeRequest:
		return &CodeRequest{}
	case KindCodeReply:
		return &CodeReply{}
	case KindPrint:
		return &Print{}
	case KindStackDump:
		return &StackDump{}
	case KindEvent:
		return &Event{}
	case KindJoin:
		return &Join{}
	case KindJoinAck:
		return &JoinAck{}
	case KindReplicaDelta:
		return &ReplicaDelta{}
	case KindDeltaNack:
		return &DeltaNack{}
	case KindRelayPush:
		return &RelayPush{}
	case KindRelayAck:
		return &RelayAck{}
	case KindHomeHint:
		return &HomeHint{}
	case KindHandoffRecord:
		return &HandoffRecord{}
	case KindHandoffAck:
		return &HandoffAck{}
	case KindStandbyUpdate:
		return &StandbyUpdate{}
	case KindHomeMoved:
		return &HomeMoved{}
	case KindWALRecord:
		return &WALRecord{}
	default:
		return nil
	}
}
