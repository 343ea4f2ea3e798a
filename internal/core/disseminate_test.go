package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mocha/internal/overlay"
	"mocha/internal/wire"
)

// sites builds a site list from plain ints.
func sites(ids ...int) []wire.SiteID {
	out := make([]wire.SiteID, len(ids))
	for i, id := range ids {
		out[i] = wire.SiteID(id)
	}
	return out
}

// twoRegionTracker knows sites 2-5 as one near bucket and 6-9 as one far
// bucket, and nothing about site 10.
func twoRegionTracker() *overlay.Tracker {
	tr := overlay.NewTracker(overlay.Config{})
	for _, s := range sites(2, 3, 4, 5) {
		tr.Observe(s, 2*time.Millisecond)
	}
	for _, s := range sites(6, 7, 8, 9) {
		tr.Observe(s, 80*time.Millisecond)
	}
	return tr
}

// TestPlanDissemination pins the planner as a pure function: who gets a
// leg, in which order, in which form, and how many must succeed — no
// cluster, no network.
func TestPlanDissemination(t *testing.T) {
	all := sites(2, 3, 4, 5, 6, 7, 8, 9, 10)
	granted := wire.NewSiteSet(sites(2, 3, 6, 10)...)
	tree := twoRegionTracker().Plan

	direct := func(granted wire.SiteSet, ids ...int) []leg {
		var legs []leg
		for _, s := range sites(ids...) {
			legs = append(legs, leg{site: s, tryDelta: granted.Contains(s)})
		}
		return legs
	}
	cases := []struct {
		name       string
		candidates []wire.SiteID
		upToDate   wire.SiteSet
		want       int
		haveDelta  bool
		group      func([]wire.SiteID) overlay.Plan
		treeMin    int
		fanout     int
		plan       plan
	}{
		{
			name: "partial UR keeps the flat walk even with the tree on", candidates: all, upToDate: granted,
			want: 3, haveDelta: true, group: tree, treeMin: 4,
			plan: plan{legs: direct(granted, 2, 3, 4, 5, 6, 7, 8, 9, 10), want: 3, bound: 3},
		},
		{
			name: "partial UR, sequential fan-out", candidates: all, upToDate: granted,
			want: 3, haveDelta: true, fanout: 1,
			plan: plan{legs: direct(granted, 2, 3, 4, 5, 6, 7, 8, 9, 10), want: 3, bound: 1},
		},
		{
			name: "full UR below TreeMinSharers stays flat", candidates: sites(2, 3, 6), upToDate: granted,
			want: 3, haveDelta: true, group: tree, treeMin: 4,
			plan: plan{legs: direct(granted, 2, 3, 6), want: 3, bound: 3},
		},
		{
			name: "no delta built: nobody is offered one", candidates: sites(2, 3, 4), upToDate: granted,
			want: 3, haveDelta: false,
			plan: plan{legs: direct(wire.SiteSet{}, 2, 3, 4), want: 3, bound: 3},
		},
		{
			name: "full UR through the tree", candidates: all, upToDate: granted,
			want: len(all), haveDelta: true, group: tree, treeMin: 4, fanout: 2,
			plan: plan{legs: []leg{
				// Relay 2 is in the grant's set: delta form.
				{site: 2, tryDelta: true, members: sites(3, 4, 5), upToDate: wire.NewSiteSet(sites(2, 3)...)},
				// Relay 6 too; its bucket holds one listed site, itself.
				{site: 6, tryDelta: true, members: sites(7, 8, 9), upToDate: wire.NewSiteSet(6)},
				// The overlay has no sample for site 10: direct.
				{site: 10, tryDelta: true},
			}, want: 3, bound: 2},
		},
		{
			name: "tree relay outside the grant's set gets the full form", candidates: all,
			upToDate: wire.NewSiteSet(sites(3, 7)...),
			want:     len(all), haveDelta: true, group: tree, treeMin: 4,
			plan: plan{legs: []leg{
				{site: 2, members: sites(3, 4, 5), upToDate: wire.NewSiteSet(3)},
				{site: 6, members: sites(7, 8, 9), upToDate: wire.NewSiteSet(7)},
				{site: 10},
			}, want: 3, bound: 3},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := planDissemination(c.candidates, c.upToDate, c.want, c.haveDelta, c.group, c.treeMin, c.fanout)
			if !reflect.DeepEqual(got, c.plan) {
				t.Fatalf("plan = %+v\nwant   %+v", got, c.plan)
			}
			for i := 0; i < 100; i++ {
				if again := planDissemination(c.candidates, c.upToDate, c.want, c.haveDelta, c.group, c.treeMin, c.fanout); !reflect.DeepEqual(again, got) {
					t.Fatalf("call %d planned %+v, first call %+v", i, again, got)
				}
			}
		})
	}
}

// TestPlanPushPayloads pins how PushPayloads uses the planner: every target
// a direct leg, offered the delta exactly when one was built.
func TestPlanPushPayloads(t *testing.T) {
	targets := sites(4, 2, 3)
	for _, haveDelta := range []bool{false, true} {
		p := planDissemination(targets, wire.NewSiteSet(targets...), len(targets), haveDelta, nil, 0, 0)
		if len(p.legs) != len(targets) || p.want != len(targets) || p.bound != len(targets) {
			t.Fatalf("haveDelta=%v: plan %+v", haveDelta, p)
		}
		for i, l := range p.legs {
			if l.site != targets[i] || l.tryDelta != haveDelta || l.members != nil {
				t.Fatalf("haveDelta=%v: leg %d = %+v", haveDelta, i, l)
			}
		}
	}
}

// TestPlanRun pins the executor's want rule — Section 4's replacement walk —
// and its stop-on-failure mode.
func TestPlanRun(t *testing.T) {
	fail := errors.New("unreachable")
	legs := make([]leg, 6)
	for i := range legs {
		legs[i].site = wire.SiteID(i + 2)
	}
	run := func(p plan, stop bool, dead ...wire.SiteID) (tried []wire.SiteID, errs []error) {
		var mu sync.Mutex
		errs = p.run(stop, func(l leg) error {
			mu.Lock()
			tried = append(tried, l.site)
			mu.Unlock()
			for _, d := range dead {
				if l.site == d {
					return fail
				}
			}
			return nil
		})
		return tried, errs
	}

	// Two wanted, the second candidate dead: the walk claims a third.
	tried, errs := run(plan{legs: legs, want: 2, bound: 1}, false, 3)
	if !reflect.DeepEqual(tried, sites(2, 3, 4)) {
		t.Fatalf("replacement walk tried %v, want [2 3 4]", tried)
	}
	if errs[0] != nil || errs[1] != fail || errs[2] != nil || errs[3] != errNotTried {
		t.Fatalf("replacement walk errors %v", errs)
	}
	// Stop on failure: nothing after the dead site is tried.
	tried, errs = run(plan{legs: legs, want: 6, bound: 1}, true, 3)
	if !reflect.DeepEqual(tried, sites(2, 3)) || errs[2] != errNotTried {
		t.Fatalf("stop-on-failure walk tried %v, errors %v", tried, errs)
	}
	// Every leg wanted, bound above the leg count: all run.
	tried, _ = run(plan{legs: legs, want: 6, bound: 64}, false)
	if len(tried) != len(legs) {
		t.Fatalf("full walk tried %v", tried)
	}
	// At most bound legs in flight.
	var mu sync.Mutex
	inFlight, peak := 0, 0
	plan{legs: legs, want: 6, bound: 2}.run(false, func(leg) error {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	})
	if peak > 2 {
		t.Fatalf("%d legs in flight under a bound of 2", peak)
	}
}

// TestOfferDeltaThenFull drives the one ladder with a scripted send.
func TestOfferDeltaThenFull(t *testing.T) {
	delta, full := []byte("delta"), []byte("full copy")
	transport := errors.New("link down")
	type reply struct {
		applied bool
		err     error
	}
	cases := []struct {
		name      string
		delta     []byte
		full      []byte
		replies   []reply
		sent      [][]byte
		err       error
		deltas    int64
		fulls     int64
		fallbacks int64
	}{
		{name: "delta applied", delta: delta, full: full,
			replies: []reply{{applied: true}}, sent: [][]byte{delta}, deltas: 1},
		{name: "need-full, then the full copy", delta: delta, full: full,
			replies: []reply{{}, {applied: true}}, sent: [][]byte{delta, full}, fulls: 1, fallbacks: 1},
		{name: "transport error on the delta sinks the full copy too", delta: delta, full: full,
			replies: []reply{{err: transport}}, sent: [][]byte{delta}, err: transport},
		{name: "no delta", full: full,
			replies: []reply{{applied: true}}, sent: [][]byte{full}, fulls: 1},
		{name: "nil full copy", delta: delta,
			replies: []reply{{}}, sent: [][]byte{delta}, err: errNoFullCopy, fallbacks: 1},
		{name: "full copy refused", full: full,
			replies: []reply{{}}, sent: [][]byte{full}, err: errFullRefused},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := &transferService{carrier: carrier{node: &Node{}}}
			var sent [][]byte
			err := x.offerDeltaThenFull(c.delta, func() []byte { return c.full }, func(blob []byte) (bool, error) {
				r := c.replies[len(sent)]
				sent = append(sent, blob)
				return r.applied, r.err
			})
			if err != c.err {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if !reflect.DeepEqual(sent, c.sent) {
				t.Fatalf("sent %q, want %q", sent, c.sent)
			}
			if d, f, fb := x.deltaSends.Load(), x.fullSends.Load(), x.deltaFallbacks.Load(); d != c.deltas || f != c.fulls || fb != c.fallbacks {
				t.Fatalf("tallies delta/full/fallback = %d/%d/%d, want %d/%d/%d", d, f, fb, c.deltas, c.fulls, c.fallbacks)
			}
			wantBytes := int64(0)
			if c.deltas > 0 {
				wantBytes = int64(len(delta))
			} else if c.fulls > 0 {
				wantBytes = int64(len(full))
			}
			if got := x.replicaBytes.Load(); got != wantBytes {
				t.Fatalf("replica bytes = %d, want %d", got, wantBytes)
			}
		})
	}
}
