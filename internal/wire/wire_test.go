package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mocha/internal/obs"
)

// allMessages returns one populated instance of every message kind, used by
// the exhaustive round-trip test. Keeping the list in one place means a new
// kind that is not added here fails TestEveryKindCovered.
func allMessages() []Payload {
	return []Payload{
		&AcquireLock{Lock: 7, Requester: 3, Thread: MakeThreadID(3, 9), Shared: true, LeaseMillis: 1500, HaveVersion: 41},
		&Grant{Lock: 7, Thread: MakeThreadID(3, 9), Version: 42, Flag: NeedNewVersion, Shared: true, Epoch: 2, Sharers: NewSiteSet(2, 4), UpToDate: NewSiteSet(1, 2), Revised: true, VersionFloor: 45, Fence: 11},
		&ReleaseLock{Lock: 7, Releaser: 3, Thread: MakeThreadID(3, 9), NewVersion: 43, UpToDate: NewSiteSet(1, 3, 5), Shared: false, Aborted: true, Fence: 11},
		&TransferReplica{Lock: 7, Dest: 4, Version: 43, RequestID: 99, DestVersion: 41},
		&RegisterReplica{Lock: 7, Site: 4, Names: []string{"flatwareIndex", "plateIndex"}, Creator: true},
		&ReplicaData{Lock: 7, From: 2, Version: 43, RequestID: 99, Replicas: []ReplicaPayload{{Name: "a", Data: []byte{1, 2, 3}}, {Name: "b", Data: nil}}},
		&PushUpdate{Lock: 7, From: 2, Version: 44, Replicas: []ReplicaPayload{{Name: "text", Data: []byte("Good Choice")}}},
		&PushAck{Lock: 7, Site: 5, Version: 44},
		&PollVersion{Lock: 7, Nonce: 123456},
		&PollVersionReply{Lock: 7, Site: 5, Nonce: 123456, Version: 40, HasData: true},
		&Heartbeat{Nonce: 77},
		&HeartbeatAck{Nonce: 77, Site: 6},
		&LockNack{Lock: 7, Thread: MakeThreadID(6, 1), Code: NackUnknownLock, Reason: "banned after lease expiry"},
		&OpenStreamRequest{RequestID: 99, From: 2},
		&OpenStreamReply{RequestID: 99, Addr: "127.0.0.1:40404"},
		&Spawn{SpawnID: 5, Home: 1, ClassName: "Myhello", ClassImage: []byte{0xCA, 0xFE}, Params: []byte("start=0")},
		&SpawnAck{SpawnID: 5, Site: 2, OK: false, Err: "no such class"},
		&TaskResult{SpawnID: 5, Site: 2, Result: []byte("returnvalue=1"), Err: ""},
		&CodeRequest{SpawnID: 5, Site: 2, ClassName: "Myhelper"},
		&CodeReply{SpawnID: 5, ClassName: "Myhelper", Found: true, Image: []byte{1}},
		&Print{SpawnID: 5, Site: 2, Text: "Returning as a return value 1"},
		&StackDump{SpawnID: 5, Site: 2, Reason: "MochaParameterException", Stack: []byte("goroutine 1 [running]")},
		&Event{Site: 2, Seq: 10, UnixNanos: 1234567890, Category: "lock", Text: "grant",
			Msg: "granted lock", Fields: []obs.Field{
				{Key: "lock", Int: 7, IsInt: true},
				{Key: "flag", Str: "NeedNewVersion"},
				{Key: "neg", Int: -3, IsInt: true},
			}},
		&Join{Site: 2, Name: "ultra1", DaemonAddr: "sim://2/daemon"},
		&JoinAck{Site: 2, OK: true, SyncAddr: "sim://1/sync", Epoch: 1},
		&ReplicaDelta{Lock: 7, From: 2, Version: 44, FromVersion: 43, RequestID: 99, Push: true, Replicas: []DeltaPayload{
			{Name: "a", NewLen: 9, Checksum: 0xDEADBEEF, Ops: []PatchOp{{Off: 5, Data: []byte{1, 2}}, {Off: 0, Data: []byte{3}}}},
			{Name: "b", Full: true, Data: []byte("whole blob")},
		}},
		&DeltaNack{Lock: 7, Site: 5, Version: 44, RequestID: 99, Push: false, Reason: "base version 41 unavailable"},
		&RelayPush{Lock: 7, Origin: 1, Version: 44, Replicas: []ReplicaPayload{{Name: "a", Data: []byte("payload")}}, Targets: NewSiteSet(3, 4, 70)},
		&RelayAck{Lock: 7, Relay: 3, Version: 44, Acked: NewSiteSet(3, 4), HopMicros: []uint32{0, 412}},
		relayPushDeltaForm(),
		&RelayAck{Lock: 7, Relay: 3, Version: 44, NeedFull: true},
		&HomeHint{Lock: 7, Home: 4, Epoch: 6},
		&HandoffRecord{From: 2, Epoch: 5, Record: LockRecord{
			Lock: 7, Version: 44, HighWater: 46, LastOwner: 3,
			UpToDate: NewSiteSet(1, 3), Dirty: NewSiteSet(5), Sharers: NewSiteSet(3, 4),
			Names:     []string{"flatwareIndex", "plateIndex"},
			Fence:     11,
			HasHolder: true,
			Holder:    HeldLease{Thread: MakeThreadID(3, 9), Site: 3, Shared: false, RemainingMillis: 800},
			Readers: []HeldLease{
				{Thread: MakeThreadID(4, 1), Site: 4, Shared: true, RemainingMillis: 500},
				{Thread: MakeThreadID(6, 2), Site: 6, Shared: true, RemainingMillis: 0},
			},
		}},
		&HandoffAck{Lock: 7, To: 4, Epoch: 6, OK: true},
		&StandbyUpdate{From: 2, Epoch: 5, Delete: true, Record: LockRecord{
			Lock: 7, Version: 44, HighWater: 44,
			UpToDate: NewSiteSet(2), Dirty: NewSiteSet(9), Sharers: NewSiteSet(2, 9),
		}},
		&HomeMoved{From: 2, To: 3, Epoch: 7, Locks: []LockID{7, 9, 13}},
		&WALRecord{Op: WALDelta, Lock: 7, FromVersion: 43, Version: 44, Dirty: true, Fence: 12, Replicas: []DeltaPayload{
			{Name: "a", NewLen: 9, Checksum: 0xDEADBEEF, Ops: []PatchOp{{Off: 5, Data: []byte{1, 2}}}},
			{Name: "b", Full: true, Data: []byte("whole blob")},
		}},
	}
}

// relayPushDeltaForm is a RelayPush in its delta form: no full payloads,
// the release's patch set plus its base version and the bucket members
// that hold that base.
func relayPushDeltaForm() *RelayPush {
	return &RelayPush{Lock: 7, Origin: 1, Version: 44, Targets: NewSiteSet(3, 4, 70),
		FromVersion: 43, UpToDate: NewSiteSet(3, 70), Delta: []DeltaPayload{
			{Name: "a", NewLen: 9, Checksum: 0xDEADBEEF, Ops: []PatchOp{{Off: 5, Data: []byte{1, 2}}}},
			{Name: "b", Full: true, Data: []byte("whole blob")},
		}}
}

// retiredKinds are the slots of kinds no longer sent. Each keeps its value
// so that every later kind keeps its own.
var retiredKinds = map[Kind]string{14: "SYNCMOVED"}

func TestEveryKindCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		seen[m.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindSentinel; k++ {
		if _, retired := retiredKinds[k]; !seen[k] && !retired {
			t.Errorf("kind %s has no round-trip coverage in allMessages", k)
		}
	}
}

// TestKindValuesPinned pins every kind's numeric value. Kinds are the
// first byte of every frame, and KindWALRecord frames the durable store's
// log on disk: inserting or deleting a constant instead of appending one,
// or retiring one to a blank slot, would renumber every later kind and make
// old logs and old peers unreadable.
func TestKindValuesPinned(t *testing.T) {
	pinned := []struct {
		kind Kind
		want uint8
	}{
		{KindInvalid, 0},
		{KindAcquireLock, 1},
		{KindGrant, 2},
		{KindReleaseLock, 3},
		{KindTransferReplica, 4},
		{KindRegisterReplica, 5},
		{KindReplicaData, 6},
		{KindPushUpdate, 7},
		{KindPushAck, 8},
		{KindPollVersion, 9},
		{KindPollVersionReply, 10},
		{KindHeartbeat, 11},
		{KindHeartbeatAck, 12},
		{KindLockNack, 13},
		{KindOpenStreamRequest, 15},
		{KindOpenStreamReply, 16},
		{KindSpawn, 17},
		{KindSpawnAck, 18},
		{KindTaskResult, 19},
		{KindCodeRequest, 20},
		{KindCodeReply, 21},
		{KindPrint, 22},
		{KindStackDump, 23},
		{KindEvent, 24},
		{KindJoin, 25},
		{KindJoinAck, 26},
		{KindReplicaDelta, 27},
		{KindDeltaNack, 28},
		{KindRelayPush, 29},
		{KindRelayAck, 30},
		{KindHomeHint, 31},
		{KindHandoffRecord, 32},
		{KindHandoffAck, 33},
		{KindStandbyUpdate, 34},
		{KindHomeMoved, 35},
		{KindWALRecord, 36},
	}
	for _, p := range pinned {
		if uint8(p.kind) != p.want {
			t.Errorf("%s = %d, pinned at %d", p.kind, uint8(p.kind), p.want)
		}
	}
	if got, want := int(kindSentinel), len(pinned)+len(retiredKinds); got != want {
		t.Errorf("%d kind slots, %d pinned or retired: pin the new kind here", got, want)
	}
	for k, name := range retiredKinds {
		if p := newPayload(k); p != nil {
			t.Errorf("retired kind %d (was %s) decodes as %s", k, name, p.Kind())
		}
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, msg := range allMessages() {
		msg := msg
		t.Run(msg.Kind().String(), func(t *testing.T) {
			b := Marshal(msg)
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			normalize(msg)
			normalize(got)
			if !reflect.DeepEqual(msg, got) {
				t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", msg, got)
			}
		})
	}
}

// normalize maps empty and nil byte slices / site sets to a canonical form
// so DeepEqual compares semantic content.
func normalize(p Payload) {
	v := reflect.ValueOf(p).Elem()
	normalizeValue(v)
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				normalizeValue(v.Field(i))
			} else if v.Type().Field(i).Name == "bits" {
				// SiteSet's unexported bit slice is normalized via
				// reflection on the addressable parent in practice; the
				// encode path already trims trailing zero words.
				continue
			}
		}
	default:
	}
}

// TestEncodedSizeHintExact verifies the size hints are exact frame sizes,
// so Marshal's single allocation is never regrown for bulk frames.
func TestEncodedSizeHintExact(t *testing.T) {
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = byte(i)
	}
	frames := []Payload{
		&ReplicaData{Lock: 1, From: 2, Version: 3, RequestID: 4, Replicas: []ReplicaPayload{{Name: "big", Data: big}, {Name: "small", Data: []byte{1}}}},
		&PushUpdate{Lock: 1, From: 2, Version: 3, Replicas: []ReplicaPayload{{Name: "big", Data: big}}},
		&ReplicaDelta{Lock: 1, From: 2, Version: 3, FromVersion: 2, Replicas: []DeltaPayload{
			{Name: "patched", NewLen: uint32(len(big)), Checksum: 9, Ops: []PatchOp{{Off: 100, Data: big[:4096]}}},
			{Name: "full", Full: true, Data: big},
		}},
		&RelayPush{Lock: 1, Origin: 2, Version: 3, Replicas: []ReplicaPayload{{Name: "big", Data: big}}, Targets: NewSiteSet(3, 4, 200)},
		&RelayPush{Lock: 1, Origin: 2, Version: 3, Targets: NewSiteSet(3, 4, 200), FromVersion: 2, UpToDate: NewSiteSet(3, 200),
			Delta: []DeltaPayload{
				{Name: "patched", NewLen: uint32(len(big)), Checksum: 9, Ops: []PatchOp{{Off: 100, Data: big[:4096]}}},
				{Name: "full", Full: true, Data: big},
			}},
		&RelayAck{Lock: 1, Relay: 3, Version: 3, Acked: NewSiteSet(3, 4, 200), HopMicros: []uint32{0, 300, 24_100}},
		&RelayAck{Lock: 1, Relay: 3, Version: 3, NeedFull: true},
	}
	for _, p := range frames {
		b := Marshal(p)
		if got, want := len(b), EncodedSizeHint(p); got != want {
			t.Errorf("%s: Marshal produced %d bytes, hint was %d", p.Kind(), got, want)
		}
		w := NewWriter(EncodedSizeHint(p))
		w.U8(uint8(p.Kind()))
		p.encode(w)
		if w.Regrew() {
			t.Errorf("%s: Writer regrew past the size hint", p.Kind())
		}
	}
	// Control messages fall back to the small default hint.
	if got := EncodedSizeHint(&PushAck{}); got != 64 {
		t.Errorf("control-message hint = %d, want 64", got)
	}
}

// TestRelayFramesKeepParentEncoding pins the relay frames' layouts. A
// full-form RelayPush — what a relay tree running without delta transfer
// sends — puts exactly the bytes on the wire it did before the delta form
// existed: that form is selected by a marker no real count reaches. A
// RelayAck carries one hop per acked site behind the set, counted, so a
// frame whose hops do not pair up with its set is refused; its need-full
// form stops at the marker.
func TestRelayFramesKeepParentEncoding(t *testing.T) {
	push := &RelayPush{Lock: 7, Origin: 1, Version: 44, Replicas: []ReplicaPayload{{Name: "a", Data: []byte("payload")}}, Targets: NewSiteSet(3, 4, 70)}
	w := NewWriter(64)
	w.U8(uint8(KindRelayPush))
	w.U32(7)
	w.U32(1)
	w.U64(44)
	encodePayloads(w, push.Replicas)
	push.Targets.encode(w)
	if got := Marshal(push); !reflect.DeepEqual(got, w.Bytes()) {
		t.Fatalf("full-form RelayPush encoding changed:\n got %x\nwant %x", got, w.Bytes())
	}
	// FromVersion and UpToDate alone do not make a delta form.
	push.FromVersion, push.UpToDate = 43, NewSiteSet(3)
	if got := Marshal(push); !reflect.DeepEqual(got, w.Bytes()) {
		t.Fatalf("RelayPush without a delta wrote delta-form fields: %x", got)
	}

	ack := &RelayAck{Lock: 7, Relay: 3, Version: 44, Acked: NewSiteSet(3, 4), HopMicros: []uint32{0, 412}}
	ackFrame := func(hops ...uint32) []byte {
		w := NewWriter(64)
		w.U8(uint8(KindRelayAck))
		w.U32(7)
		w.U32(3)
		w.U64(44)
		ack.Acked.encode(w)
		w.U16(uint16(len(hops)))
		for _, us := range hops {
			w.U32(us)
		}
		return w.Bytes()
	}
	if got, want := Marshal(ack), ackFrame(0, 412); !reflect.DeepEqual(got, want) {
		t.Fatalf("RelayAck encoding changed:\n got %x\nwant %x", got, want)
	}
	// One hop per acked site, no fewer and no more.
	for _, hops := range [][]uint32{nil, {412}, {0, 412, 9}} {
		if _, err := Unmarshal(ackFrame(hops...)); err == nil {
			t.Errorf("RelayAck acking 2 sites with %d hops decoded without error", len(hops))
		}
	}
	// A need-full ack acks nobody: neither the set nor hops are sent.
	ack.NeedFull = true
	b := Marshal(ack)
	if want := 1 + 4 + 4 + 8 + 2; len(b) != want {
		t.Fatalf("need-full RelayAck is %d bytes, want %d", len(b), want)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if back := got.(*RelayAck); !back.NeedFull || back.Acked.Len() != 0 || len(back.HopMicros) != 0 {
		t.Fatalf("need-full RelayAck round trip = %+v, want the flag, an empty set and no hops", back)
	}
}

// BenchmarkMarshalReplicaData exercises the single-allocation encode path
// for a large frame and fails if the writer ever regrows.
func BenchmarkMarshalReplicaData(b *testing.B) {
	blob := make([]byte, 256<<10)
	msg := &ReplicaData{Lock: 1, From: 2, Version: 3, RequestID: 4, Replicas: []ReplicaPayload{{Name: "payload", Data: blob}}}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(EncodedSizeHint(msg))
		w.U8(uint8(msg.Kind()))
		msg.encode(w)
		if w.Regrew() {
			b.Fatal("Writer regrew past the size hint")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{name: "empty", in: nil, want: ErrTruncated},
		{name: "unknown kind", in: []byte{0xEE}, want: ErrUnknownKind},
		{name: "truncated body", in: []byte{byte(KindGrant), 0x00}, want: ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unmarshal(tt.in)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Unmarshal(%v) error = %v, want %v", tt.in, err, tt.want)
			}
		})
	}
}

func TestTruncationAtEveryBoundary(t *testing.T) {
	// Chopping a valid message at any interior byte must yield an error,
	// never a panic or silent success.
	for _, msg := range allMessages() {
		b := Marshal(msg)
		for i := 1; i < len(b); i++ {
			if _, err := Unmarshal(b[:i]); err == nil {
				// Some prefixes decode cleanly when the chopped tail is a
				// zero-length trailing field; that is acceptable only if
				// re-marshaling produces the same prefix semantics. Require
				// hard failure instead: decode must consume exact layouts.
				// Fixed-width layouts make every strict prefix invalid
				// unless the cut lands exactly after the final field.
				t.Fatalf("%s: truncation at %d/%d decoded without error", msg.Kind(), i, len(b))
			}
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32() // fails: only one byte
	if r.Err() == nil {
		t.Fatal("expected error after short read")
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("read after error = %d, want 0", got)
	}
	if r.String16() != "" {
		t.Fatal("string read after error should be empty")
	}
}

func TestWriterReaderPrimitives(t *testing.T) {
	w := NewWriter(0)
	w.U8(200)
	w.Bool(true)
	w.U16(65535)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.F64(3.25)
	w.Bytes32([]byte{9, 8, 7})
	w.String16("glasswareIndex")

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if got := r.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes32(); !reflect.DeepEqual(got, []byte{9, 8, 7}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := r.String16(); got != "glasswareIndex" {
		t.Errorf("String16 = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", r.Remaining())
	}
}

func TestBytes32ReturnsCopy(t *testing.T) {
	w := NewWriter(0)
	w.Bytes32([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes32()
	buf[4] = 0xFF // mutate the underlying buffer
	if got[0] != 1 {
		t.Fatal("Bytes32 result aliases the input buffer")
	}
}

// TestQuickReplicaDataRoundTrip property-tests the most structurally
// complex message with arbitrary payload contents.
func TestQuickReplicaDataRoundTrip(t *testing.T) {
	f := func(lock uint32, from uint32, version, reqID uint64, names []string, blobs [][]byte) bool {
		n := len(names)
		if len(blobs) < n {
			n = len(blobs)
		}
		if n > 100 {
			n = 100
		}
		msg := &ReplicaData{
			Lock:      LockID(lock),
			From:      SiteID(from),
			Version:   version,
			RequestID: reqID,
		}
		for i := 0; i < n; i++ {
			name := names[i]
			if len(name) > 1000 {
				name = name[:1000]
			}
			msg.Replicas = append(msg.Replicas, ReplicaPayload{Name: name, Data: blobs[i]})
		}
		got, err := Unmarshal(Marshal(msg))
		if err != nil {
			return false
		}
		rd, ok := got.(*ReplicaData)
		if !ok || rd.Lock != msg.Lock || rd.From != msg.From || rd.Version != msg.Version || rd.RequestID != msg.RequestID || len(rd.Replicas) != len(msg.Replicas) {
			return false
		}
		for i := range rd.Replicas {
			if rd.Replicas[i].Name != msg.Replicas[i].Name {
				return false
			}
			if string(rd.Replicas[i].Data) != string(msg.Replicas[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAcquireLockRoundTrip(t *testing.T) {
	f := func(lock, req uint32, thread uint64, shared bool, lease uint32) bool {
		msg := &AcquireLock{Lock: LockID(lock), Requester: SiteID(req), Thread: ThreadID(thread), Shared: shared, LeaseMillis: lease}
		got, err := Unmarshal(Marshal(msg))
		if err != nil {
			return false
		}
		al, ok := got.(*AcquireLock)
		return ok && *al == *msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadID(t *testing.T) {
	id := MakeThreadID(42, 7)
	if id.Site() != 42 {
		t.Fatalf("Site() = %d, want 42", id.Site())
	}
	if uint32(id) != 7 {
		t.Fatalf("local part = %d, want 7", uint32(id))
	}
}

func TestKindString(t *testing.T) {
	if got := KindGrant.String(); got != "GRANT" {
		t.Errorf("KindGrant.String() = %q", got)
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Errorf("unknown kind String() = %q", got)
	}
	if got := VersionOK.String(); got != "VERSIONOK" {
		t.Errorf("VersionOK.String() = %q", got)
	}
	if got := NeedNewVersion.String(); got != "NEEDNEWVERSION" {
		t.Errorf("NeedNewVersion.String() = %q", got)
	}
	if got := VersionFlag(9).String(); got != "VersionFlag(9)" {
		t.Errorf("unknown flag String() = %q", got)
	}
}

func TestQuickSiteSetRoundTrip(t *testing.T) {
	f := func(ids []uint16) bool {
		var s SiteSet
		for _, id := range ids {
			s.Add(SiteID(id % 500))
		}
		// Round trip through a ReleaseLock message.
		msg := &ReleaseLock{Lock: 1, UpToDate: s}
		got, err := Unmarshal(Marshal(msg))
		if err != nil {
			return false
		}
		rl, ok := got.(*ReleaseLock)
		if !ok {
			return false
		}
		want := s.Sites()
		have := rl.UpToDate.Sites()
		if len(want) != len(have) {
			return false
		}
		for i := range want {
			if want[i] != have[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestSiteSetOperations(t *testing.T) {
	s := NewSiteSet(1, 3, 130)
	if !s.Contains(1) || !s.Contains(130) || s.Contains(2) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 2 {
		t.Fatal("Remove failed")
	}
	s.Remove(999) // out of range: no-op, no panic
	clone := s.Clone()
	clone.Add(7)
	if s.Contains(7) {
		t.Fatal("Clone aliases original")
	}
	if got := s.String(); got != "{1,130}" {
		t.Fatalf("String = %q", got)
	}
	var empty SiteSet
	if empty.Len() != 0 || len(empty.Sites()) != 0 || empty.String() != "{}" {
		t.Fatal("empty set misbehaves")
	}
}

// TestMarshalAppendMatchesMarshal checks the in-place encoder produces
// byte-identical frames for every message kind, both onto an empty buffer
// and after an existing prefix.
func TestMarshalAppendMatchesMarshal(t *testing.T) {
	for _, m := range allMessages() {
		want := Marshal(m)
		if got := MarshalAppend(m, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MarshalAppend(nil) diverges from Marshal", m.Kind())
		}
		prefix := []byte{0xDE, 0xAD}
		got := MarshalAppend(m, prefix)
		if len(got) != 2+len(want) || !reflect.DeepEqual(got[2:], want) {
			t.Fatalf("%s: MarshalAppend(prefix) diverges from Marshal", m.Kind())
		}
		a := Appender{P: m}
		if a.EncodedSizeHint() != EncodedSizeHint(m) {
			t.Fatalf("%s: Appender hint mismatch", m.Kind())
		}
		if got := a.AppendEncode(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Appender encode diverges from Marshal", m.Kind())
		}
	}
}

// TestMarshalAppendAllocs pins the zero-copy property: encoding into a
// buffer that already has the hinted capacity performs no allocations.
// This is the regression gate for the SendAppender grant/push path.
func TestMarshalAppendAllocs(t *testing.T) {
	grant := &Grant{Lock: 7, Thread: MakeThreadID(3, 9), Version: 42, Shared: true,
		Sharers: NewSiteSet(2, 4), UpToDate: NewSiteSet(1, 2)}
	push := &PushUpdate{Lock: 7, From: 2, Version: 44,
		Replicas: []ReplicaPayload{{Name: "text", Data: make([]byte, 4096)}}}
	for _, tc := range []struct {
		name string
		p    Payload
	}{
		{"grant", grant}, {"push", push},
	} {
		need := len(Marshal(tc.p))
		hint := EncodedSizeHint(tc.p)
		if hint < need {
			t.Fatalf("%s: hint %d below actual size %d", tc.name, hint, need)
		}
		buf := make([]byte, 0, hint)
		allocs := testing.AllocsPerRun(100, func() {
			out := MarshalAppend(tc.p, buf)
			if len(out) != need {
				t.Fatalf("%s: encoded %d bytes, want %d", tc.name, len(out), need)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: MarshalAppend allocates %.1f into a pre-sized buffer, want 0", tc.name, allocs)
		}
	}
}
