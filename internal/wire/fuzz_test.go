package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds builds one representative marshaled packet per message kind,
// plus populated variants exercising the variable-length fields (site
// sets, replica payloads, delta ops). These seed the fuzzer and double as
// the checked-in corpus under testdata/fuzz/FuzzUnmarshal.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	// A zero value of every registered kind: the decoder must accept its
	// own encoder's output for every message, however empty. A retired
	// kind's bare frame stands in its slot: the decoder must refuse it.
	for k := 1; k < 64; k++ {
		if p := newPayload(Kind(k)); p != nil {
			seeds = append(seeds, Marshal(p))
		} else if _, retired := retiredKinds[Kind(k)]; retired {
			seeds = append(seeds, []byte{byte(k)})
		}
	}
	populated := []Payload{
		&AcquireLock{Lock: 7, Requester: 3, Thread: MakeThreadID(3, 9), Shared: true,
			HaveVersion: 41, LeaseMillis: 500},
		&Grant{Lock: 7, Thread: MakeThreadID(3, 9), Version: 42, Flag: NeedNewVersion,
			Shared: true, Epoch: 2, Sharers: NewSiteSet(2, 4), UpToDate: NewSiteSet(1, 2),
			Revised: true, VersionFloor: 45, Fence: 6},
		&ReleaseLock{Lock: 7, Releaser: 3, Thread: MakeThreadID(3, 9), NewVersion: 43,
			UpToDate: NewSiteSet(1, 3), Aborted: true, Fence: 6},
		&ReplicaData{Lock: 7, From: 2, Version: 42, Replicas: []ReplicaPayload{
			{Name: "table", Data: []byte{1, 2, 3, 4}},
			{Name: "", Data: nil},
		}},
		&ReplicaDelta{Lock: 7, From: 2, FromVersion: 41, Version: 42, Push: true,
			Replicas: []DeltaPayload{
				{Name: "table", NewLen: 8, Checksum: 0xdeadbeef,
					Ops: []PatchOp{{Off: 0, Data: []byte{9, 9}}, {Off: 6, Data: []byte{1}}}},
				{Name: "whole", Full: true, Data: []byte{5, 6, 7}},
			}},
		// Both forms of RelayPush and of RelayAck: the form marker sits in a
		// count slot, and the acked form's hop list must pair up with its
		// site set (here across two set words).
		&RelayPush{Lock: 7, Origin: 1, Version: 42, Targets: NewSiteSet(3, 4),
			Replicas: []ReplicaPayload{{Name: "table", Data: []byte{1, 2, 3, 4}}}},
		&RelayPush{Lock: 7, Origin: 1, Version: 42, Targets: NewSiteSet(3, 4),
			FromVersion: 41, UpToDate: NewSiteSet(3), Delta: []DeltaPayload{
				{Name: "table", NewLen: 8, Checksum: 0xdeadbeef,
					Ops: []PatchOp{{Off: 0, Data: []byte{9, 9}}, {Off: 6, Data: []byte{1}}}},
				{Name: "whole", Full: true, Data: []byte{5, 6, 7}},
			}},
		&RelayAck{Lock: 7, Relay: 3, Version: 42, Acked: NewSiteSet(3, 4), HopMicros: []uint32{0, 412}},
		&RelayAck{Lock: 7, Relay: 3, Version: 42, Acked: NewSiteSet(3, 6, 70), HopMicros: []uint32{0, 24_100, 0xFFFFFFFF}},
		&RelayAck{Lock: 7, Relay: 3, Version: 42, NeedFull: true},
		&LockNack{Lock: 7, Code: NackNotHome, Home: 4, HomeEpoch: 3, Reason: "moved"},
		&WALRecord{Op: WALDelta, Lock: 7, FromVersion: 41, Version: 42, Dirty: true,
			Fence: 6, Replicas: []DeltaPayload{
				{Name: "table", NewLen: 8, Checksum: 0xfeedface,
					Ops: []PatchOp{{Off: 2, Data: []byte{3, 4}}}},
			}},
	}
	for _, p := range populated {
		seeds = append(seeds, Marshal(p))
	}
	return seeds
}

// FuzzUnmarshal drives arbitrary bytes through the packet decoder and, for
// anything it accepts, requires the re-marshal to be a fixed point: encode
// and decode again, and the bytes must be identical. This pins down both
// crash-safety on garbage (truncations, wild lengths) and canonical
// encoding — a decoded message that re-encodes differently would break
// retransmit dedup and history fingerprints.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejected input: only crash-safety is at stake
		}
		b2 := MarshalAppend(p, nil)
		p2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-decode of re-marshaled %s failed: %v", p.Kind(), err)
		}
		b3 := MarshalAppend(p2, nil)
		if !bytes.Equal(b2, b3) {
			t.Fatalf("%s re-marshal is not a fixed point:\n first %x\nsecond %x", p.Kind(), b2, b3)
		}
	})
}
