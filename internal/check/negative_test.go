package check

import (
	"testing"

	"mocha/internal/wire"
)

// TestCheckNegativeTable feeds hand-built violating histories through the
// offline checker and asserts each invariant fires with its sentinel error.
// Each entry appends to an empty or clean prefix; `want == nil` rows pin
// down the legal near-miss next to its violating sibling.
func TestCheckNegativeTable(t *testing.T) {
	homePrefix := func() []wire.HistoryEvent {
		return []wire.HistoryEvent{
			{Kind: wire.HistHome, Site: 1, Lock: 9, Note: "register"},
		}
	}
	tests := []struct {
		name string
		evs  []wire.HistoryEvent
		want error
	}{
		{
			name: "double grant",
			evs: []wire.HistoryEvent{
				{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
				{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
				{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
				{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
			},
			want: ErrDualHolder,
		},
		{
			name: "version regress on release",
			evs: append(cleanPrefix(),
				wire.HistoryEvent{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
				wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 2,
					Sites: wire.NewSiteSet(1, 2)},
				// Commits v1 after v2 already committed.
				wire.HistoryEvent{Kind: wire.HistRelease, Site: 3, Thread: tC, Lock: 9, Version: 1,
					Sites: wire.NewSiteSet(1)},
			),
			want: ErrVersionRegress,
		},
		{
			name: "release re-commits current version without a revised grant",
			evs: append(cleanPrefix(),
				wire.HistoryEvent{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
				wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 2,
					Sites: wire.NewSiteSet(1, 2)},
				wire.HistoryEvent{Kind: wire.HistRelease, Site: 3, Thread: tC, Lock: 9, Version: 2,
					Sites: wire.NewSiteSet(1, 2)},
			),
			want: ErrVersionRegress,
		},
		{
			name: "release commits version a recovery adopted from the holder's publish",
			evs: append(cleanPrefix(),
				wire.HistoryEvent{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
				wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 2,
					Sites: wire.NewSiteSet(1, 2)},
				wire.HistoryEvent{Kind: wire.HistPublish, Site: 3, Thread: tC, Lock: 9, Version: 3,
					Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xc3}}},
				// Home crashed; recovery polled the replicas and found the
				// holder's published-but-unreleased v3, adopting it.
				wire.HistoryEvent{Kind: wire.HistRecover, Site: 3, Lock: 9, Version: 3, Note: "poll-best"},
				wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 3,
					Revised: true, Sites: wire.NewSiteSet(3)},
				// The release commits the adopted v3: legal, not a regress.
				wire.HistoryEvent{Kind: wire.HistRelease, Site: 3, Thread: tC, Lock: 9, Version: 3,
					Sites: wire.NewSiteSet(3)},
			),
			want: nil,
		},
		{
			name: "stale standby promotion behind committed version",
			evs: append(cleanPrefix(),
				// cleanPrefix committed v2; a standby restoring its shadow at
				// v1 would hand the next holder a committed number again.
				wire.HistoryEvent{Kind: wire.HistRecover, Site: 3, Lock: 9, Version: 1,
					Note: "standby-promote", Sites: wire.NewSiteSet(3)},
			),
			want: ErrVersionRegress,
		},
		{
			name: "standby promotion at committed version is legal",
			evs: append(cleanPrefix(),
				wire.HistoryEvent{Kind: wire.HistRecover, Site: 3, Lock: 9, Version: 2,
					Note: "standby-promote", Sites: wire.NewSiteSet(3)},
			),
			want: nil,
		},
		{
			name: "surrogate restored from a snapshot older than the last commit",
			evs: append(append(homePrefix(), cleanPrefix()...),
				// cleanPrefix committed v2 at site 1; the snapshot was taken
				// at v1, and its high-water mark would let the next writer
				// publish v2 again.
				wire.HistoryEvent{Kind: wire.HistRecover, Site: 2, Lock: 9, Version: 1,
					Note: "standby-promote", Sites: wire.NewSiteSet(1)},
				wire.HistoryEvent{Kind: wire.HistHome, Site: 2, Lock: 9, Note: "standby-promote"},
			),
			want: ErrVersionRegress,
		},
		{
			name: "promotion voids a hold its record does not carry",
			evs: []wire.HistoryEvent{
				{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
				{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
				// A surrogate's snapshot from before the grant: the old
				// holder is gone from its record, so a new grant is
				// legitimate, not a dual hold.
				{Kind: wire.HistRecover, Site: 2, Lock: 9, Version: 0, Note: "standby-promote"},
				{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
				{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
			},
			want: nil,
		},
		{
			name: "home chain: handoff from a site that is not home",
			evs: append(homePrefix(),
				wire.HistoryEvent{Kind: wire.HistHandoff, Site: 2, Lock: 9, Sites: wire.NewSiteSet(3)},
			),
			want: ErrHomeChain,
		},
		{
			name: "home chain: install at a site no handoff named",
			evs: append(homePrefix(),
				wire.HistoryEvent{Kind: wire.HistHandoff, Site: 1, Lock: 9, Sites: wire.NewSiteSet(3)},
				wire.HistoryEvent{Kind: wire.HistHome, Site: 4, Lock: 9, Note: "handoff-install"},
			),
			want: ErrHomeChain,
		},
		{
			name: "home chain: install with no handoff at all",
			evs: append(homePrefix(),
				wire.HistoryEvent{Kind: wire.HistHome, Site: 2, Lock: 9, Note: "handoff-install"},
			),
			want: ErrHomeChain,
		},
		{
			name: "home chain: second register while a home is live",
			evs: append(homePrefix(),
				wire.HistoryEvent{Kind: wire.HistHome, Site: 2, Lock: 9, Note: "register"},
			),
			want: ErrHomeChain,
		},
		{
			name: "home chain: complete handoff is legal",
			evs: append(homePrefix(),
				wire.HistoryEvent{Kind: wire.HistHandoff, Site: 1, Lock: 9, Sites: wire.NewSiteSet(3)},
				wire.HistoryEvent{Kind: wire.HistHome, Site: 3, Lock: 9, Note: "handoff-install"},
			),
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == nil {
				if v := Check(seq(tc.evs)); v != nil {
					t.Fatalf("legal history flagged: %v", v)
				}
				return
			}
			expectViolation(t, tc.evs, tc.want)
		})
	}
}
