package netsim

import "time"

// Geography lays a reproducible wide-area region structure over a
// simulated network: sites are assigned to Regions round-robin by ID,
// links inside a region get the cheap Local profile, and links between
// regions get the Backbone profile stretched by Step per region of
// "distance". Distances are measured from the region index difference, so
// every region sits at a distinct RTT from region 0 (the home site's
// region), but not from a middle region, and not always a whole overlay
// bucket apart (Scaled(0.5) puts 24 and 30 ms in one 12 ms band). What
// separates regions for the dissemination overlay is mutual distance: any
// two sites in different regions are a backbone hop apart, any two in one
// region a Local hop.
//
// Per-link overrides carry the full profile, jitter included: a sender
// draws one uniform roll per packet and the router resolves it against
// the link actually crossed (see Network.routeLocked), so each region hop
// wobbles within its own profile's jitter range while a run stays
// deterministic under a fixed seed.
type Geography struct {
	// Regions is the number of locality clusters (≥ 1).
	Regions int
	// Local is the intra-region link profile.
	Local Profile
	// Backbone is the base inter-region link profile.
	Backbone Profile
	// Step is the extra one-way propagation added per region of distance,
	// spreading the regions to distinct RTTs.
	Step time.Duration
}

// RegionalWAN is the standard regional geography for dissemination
// ablations: fast switched LANs inside each region (with switch-level
// jitter), a slow 1997-class backbone between them (with route-level
// jitter wide enough to matter), and a 6 ms one-way step per region of
// distance (12 ms of RTT, one overlay bucket at full scale). An in-region
// round trip is 0.6 ms and the shortest cross-region one 36 ms, so the
// overlay's 12 ms hop threshold tells them apart at any scale down to a
// third.
func RegionalWAN(regions int) Geography {
	return Geography{
		Regions: regions,
		Local: Profile{
			Name:           "region-lan",
			PropDelay:      300 * time.Microsecond,
			Jitter:         100 * time.Microsecond,
			BytesPerSecond: 100_000_000 / 8, // 100 Mbit/s
			HeaderBytes:    28,
		},
		Backbone: Profile{
			Name:           "region-backbone",
			PropDelay:      18 * time.Millisecond,
			Jitter:         2 * time.Millisecond,
			BytesPerSecond: 4_000_000 / 8, // 4 Mbit/s
			HeaderBytes:    28,
		},
		Step: 6 * time.Millisecond,
	}
}

// Scaled returns a copy with every delay multiplied by f and bandwidth
// divided by f, mirroring Profile.Scaled for fast test runs.
func (g Geography) Scaled(f float64) Geography {
	if f == 1 {
		return g
	}
	q := g
	q.Local = g.Local.Scaled(f)
	q.Backbone = g.Backbone.Scaled(f)
	q.Step = time.Duration(float64(g.Step) * f)
	return q
}

// RegionOf maps a node to its region: round-robin by ID, anchored so the
// home site (ID 1) lands in region 0.
func (g Geography) RegionOf(id NodeID) int {
	if g.Regions <= 1 {
		return 0
	}
	return int(id-1) % g.Regions
}

// LinkProfile returns the one-way profile for the ordered pair (from, to).
func (g Geography) LinkProfile(from, to NodeID) Profile {
	ra, rb := g.RegionOf(from), g.RegionOf(to)
	if ra == rb {
		return g.Local
	}
	dist := ra - rb
	if dist < 0 {
		dist = -dist
	}
	p := g.Backbone
	p.PropDelay += time.Duration(dist) * g.Step
	return p
}

// Apply installs the geography on a network as per-link profile overrides
// for every ordered pair of the given nodes (including self-links, which
// get the Local profile). O(n²) overrides — fine for the few hundred
// sites the ablations run.
func (g Geography) Apply(net *Network, nodes []NodeID) {
	for _, a := range nodes {
		for _, b := range nodes {
			net.SetLinkProfile(a, b, g.LinkProfile(a, b))
		}
	}
}
