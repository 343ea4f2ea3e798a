// Package placement maps the lock namespace onto manager sites with a
// consistent-hash ring. The paper pins every lock's manager to one fixed
// home site (§3), so a crashed home permanently strands its locks and
// every acquisition in the system serializes through one process; the
// ring partitions the namespace across all manager sites instead, and —
// because consistent hashing moves only the failed site's arc — lets a
// dead manager's locks be re-homed onto its ring successor without
// disturbing the placement of any other lock.
//
// The ring is deterministic: the same member set always produces the
// same placement, on every site, with no coordination. Sites therefore
// agree on a lock's home from the directory alone; runtime exceptions
// (locality migrations, standby promotions) are layered on top by core
// as explicit per-lock overrides, not by mutating the ring.
package placement

import (
	"sort"

	"mocha/internal/wire"
)

// DefaultVirtualNodes is the number of ring points each site contributes.
// 64 keeps the largest/smallest arc ratio tight enough that a uniform
// lock population spreads within ~2x across sites, while the whole ring
// for a few hundred sites stays a few tens of kilobytes.
const DefaultVirtualNodes = 64

// point is one virtual node: a position on the hash circle owned by a site.
type point struct {
	hash uint64
	site wire.SiteID
}

// Ring is an immutable consistent-hash ring over a set of manager sites.
// Build one with New; all methods are safe for concurrent use because the
// ring never changes after construction.
type Ring struct {
	points []point       // sorted by hash
	sites  []wire.SiteID // sorted member list
}

// splitmix64 is the ring's hash: a full-avalanche 64-bit mixer, so
// consecutive lock IDs and site IDs land uniformly on the circle.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pointHash positions virtual node v of a site on the circle. The site and
// replica index are mixed together first so a site's virtual nodes are
// scattered, not clustered.
func pointHash(site wire.SiteID, v int) uint64 {
	return splitmix64(uint64(site)<<20 | uint64(v)&0xFFFFF)
}

// lockHash positions a lock on the circle. Lock IDs are salted with a
// distinct constant so a lock never sits exactly on a site point.
func lockHash(id wire.LockID) uint64 {
	return splitmix64(uint64(id) ^ 0xA5A5_5A5A_C3C3_3C3C)
}

// New builds a ring over the given manager sites with vnodes virtual
// nodes per site (DefaultVirtualNodes when vnodes <= 0). Duplicate sites
// are collapsed; a ring over zero sites is valid and maps every lock to
// site 0 ("no home").
func New(sites []wire.SiteID, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[wire.SiteID]bool, len(sites))
	members := make([]wire.SiteID, 0, len(sites))
	for _, s := range sites {
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		members = append(members, s)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	r := &Ring{sites: members}
	r.points = make([]point, 0, len(members)*vnodes)
	for _, s := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(s, v), site: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two sites' points would make placement
		// order-dependent; break it by site ID so the ring stays canonical.
		return r.points[i].site < r.points[j].site
	})
	return r
}

// Sites returns the ring's member sites in ascending ID order. The slice
// is shared; callers must not modify it.
func (r *Ring) Sites() []wire.SiteID { return r.sites }

// Len reports the number of member sites.
func (r *Ring) Len() int { return len(r.sites) }

// Contains reports whether a site is a ring member.
func (r *Ring) Contains(site wire.SiteID) bool {
	i := sort.Search(len(r.sites), func(i int) bool { return r.sites[i] >= site })
	return i < len(r.sites) && r.sites[i] == site
}

// owner returns the site owning the first ring point at or after h,
// wrapping at the top of the circle.
func (r *Ring) owner(h uint64) wire.SiteID {
	if len(r.points) == 0 {
		return 0
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].site
}

// Home maps a lock to its home site: the owner of the first virtual node
// clockwise from the lock's position. Returns 0 on an empty ring.
func (r *Ring) Home(id wire.LockID) wire.SiteID {
	return r.owner(lockHash(id))
}

// HomeExcluding maps a lock to its home while treating the listed sites
// as dead: the walk continues clockwise past virtual nodes owned by any
// excluded site, which is exactly the consistent-hash failover rule —
// a dead home's arc falls to its successors while every other lock
// keeps its placement. Returns 0 when every member is excluded.
func (r *Ring) HomeExcluding(id wire.LockID, down map[wire.SiteID]bool) wire.SiteID {
	if len(r.points) == 0 {
		return 0
	}
	h := lockHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !down[p.site] {
			return p.site
		}
	}
	return 0
}

// Successors returns every other member in ID-successor order from site:
// ascending IDs after site, wrapping past the highest. It is the order in
// which a home considers its standby candidates: core breaks ties between
// equally near members by it, and its first entry — the ring successor —
// is the standby of a home that measured nothing. Nil for a non-member or
// a ring of one.
func (r *Ring) Successors(site wire.SiteID) []wire.SiteID {
	if len(r.sites) < 2 || !r.Contains(site) {
		return nil
	}
	i := sort.Search(len(r.sites), func(i int) bool { return r.sites[i] > site })
	out := make([]wire.SiteID, 0, len(r.sites)-1)
	out = append(out, r.sites[i:]...)
	return append(out, r.sites[:i-1]...)
}

// LocksOf partitions a set of locks by home site — the helper harnesses
// use to find which locks a kill strands and which standby must answer
// for them.
func (r *Ring) LocksOf(ids []wire.LockID) map[wire.SiteID][]wire.LockID {
	out := make(map[wire.SiteID][]wire.LockID)
	for _, id := range ids {
		out[r.Home(id)] = append(out[r.Home(id)], id)
	}
	return out
}
