package placement

import (
	"reflect"
	"testing"

	"mocha/internal/wire"
)

func sites(ids ...int) []wire.SiteID {
	out := make([]wire.SiteID, len(ids))
	for i, id := range ids {
		out[i] = wire.SiteID(id)
	}
	return out
}

func TestDeterministicAcrossConstruction(t *testing.T) {
	a := New(sites(5, 1, 3, 2, 4), 0)
	b := New(sites(4, 2, 5, 3, 1, 1, 2), 0) // shuffled, with duplicates
	if a.Len() != 5 || b.Len() != 5 {
		t.Fatalf("member counts = %d, %d; want 5", a.Len(), b.Len())
	}
	for id := wire.LockID(1); id <= 5000; id++ {
		if a.Home(id) != b.Home(id) {
			t.Fatalf("lock %d: homes differ (%d vs %d) across construction orders", id, a.Home(id), b.Home(id))
		}
	}
}

func TestSpreadAcrossSites(t *testing.T) {
	r := New(sites(1, 2, 3, 4, 5, 6, 7, 8), 0)
	counts := make(map[wire.SiteID]int)
	const n = 8000
	for id := wire.LockID(1); id <= n; id++ {
		h := r.Home(id)
		if !r.Contains(h) {
			t.Fatalf("lock %d homed at non-member %d", id, h)
		}
		counts[h]++
	}
	if len(counts) != 8 {
		t.Fatalf("locks landed on %d of 8 sites", len(counts))
	}
	for s, c := range counts {
		// Uniform would be 1000; require every site within a loose 3x band.
		if c < n/8/3 || c > n/8*3 {
			t.Fatalf("site %d homes %d of %d locks: spread too skewed", s, c, n)
		}
	}
}

func TestConsistencyUnderMemberLoss(t *testing.T) {
	full := New(sites(1, 2, 3, 4, 5, 6), 0)
	without4 := New(sites(1, 2, 3, 5, 6), 0)
	moved, kept := 0, 0
	for id := wire.LockID(1); id <= 6000; id++ {
		before := full.Home(id)
		after := without4.Home(id)
		if before == 4 {
			if after == 4 {
				t.Fatalf("lock %d still homed at removed site 4", id)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("lock %d not homed at the removed site moved %d -> %d", id, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestHomeExcludingMatchesRebuiltRing(t *testing.T) {
	full := New(sites(1, 2, 3, 4, 5, 6), 0)
	rebuilt := New(sites(1, 2, 3, 5, 6), 0)
	down := map[wire.SiteID]bool{4: true}
	for id := wire.LockID(1); id <= 3000; id++ {
		if got, want := full.HomeExcluding(id, down), rebuilt.Home(id); got != want {
			t.Fatalf("lock %d: HomeExcluding=%d, rebuilt ring=%d", id, got, want)
		}
	}
	if got := full.HomeExcluding(7, map[wire.SiteID]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}); got != 0 {
		t.Fatalf("all members down: HomeExcluding = %d, want 0", got)
	}
}

func TestSuccessors(t *testing.T) {
	r := New(sites(2, 5, 9, 11), 0)
	cases := []struct {
		site  wire.SiteID
		order []wire.SiteID
	}{
		{2, sites(5, 9, 11)},
		{5, sites(9, 11, 2)},
		{9, sites(11, 2, 5)},
		{11, sites(2, 5, 9)},
	}
	for _, c := range cases {
		if got := r.Successors(c.site); !reflect.DeepEqual(got, c.order) {
			t.Fatalf("Successors(%d) = %v, want %v", c.site, got, c.order)
		}
	}
	if got := r.Successors(7); got != nil {
		t.Fatalf("Successors of non-member = %v, want none", got)
	}
	if got := New(sites(3), 0).Successors(3); got != nil {
		t.Fatalf("singleton ring: Successors = %v, want none", got)
	}
}

func TestEmptyAndZeroSites(t *testing.T) {
	r := New(nil, 0)
	if r.Len() != 0 || r.Home(7) != 0 || r.Successors(1) != nil {
		t.Fatalf("empty ring should map everything to 0")
	}
	r2 := New(sites(0, 0), 0)
	if r2.Len() != 0 {
		t.Fatalf("site 0 must be ignored, got %d members", r2.Len())
	}
	if r.HomeExcluding(1, nil) != 0 {
		t.Fatalf("empty ring HomeExcluding should be 0")
	}
}

func TestLocksOf(t *testing.T) {
	r := New(sites(1, 2, 3), 0)
	ids := []wire.LockID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	part := r.LocksOf(ids)
	total := 0
	for site, locks := range part {
		if !r.Contains(site) {
			t.Fatalf("partition key %d is not a member", site)
		}
		for _, id := range locks {
			if r.Home(id) != site {
				t.Fatalf("lock %d filed under %d but homes at %d", id, site, r.Home(id))
			}
		}
		total += len(locks)
	}
	if total != len(ids) {
		t.Fatalf("partition covers %d of %d locks", total, len(ids))
	}
}

func TestVirtualNodeCount(t *testing.T) {
	few := New(sites(1, 2), 3)
	if got := len(few.points); got != 6 {
		t.Fatalf("2 sites x 3 vnodes = %d points, want 6", got)
	}
	def := New(sites(1, 2), 0)
	if got := len(def.points); got != 2*DefaultVirtualNodes {
		t.Fatalf("default vnodes: %d points, want %d", got, 2*DefaultVirtualNodes)
	}
}
