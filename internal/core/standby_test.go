package core

import (
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// These tests pin how a home picks its standby: one timed probe round,
// the first member in ID-successor order within a band of the fastest
// answer, the ring successor when nothing answers — and what that buys on
// a regional WAN: a standby in the home's own region that still promotes
// when the home dies.

// TestChooseStandby drives the pure chooser with scripted probes: answer
// delays, dead members, and one member that does not answer until the
// test lets it go.
func TestChooseStandby(t *testing.T) {
	const band = 40 * time.Millisecond
	order := []wire.SiteID{2, 3, 4}
	type script struct {
		delay map[wire.SiteID]time.Duration
		dead  map[wire.SiteID]bool
	}
	probe := func(s script) func(wire.SiteID) bool {
		return func(site wire.SiteID) bool {
			time.Sleep(s.delay[site])
			return !s.dead[site]
		}
	}
	cases := []struct {
		name string
		s    script
		want wire.SiteID
	}{
		{"band ties break in successor order", script{
			delay: map[wire.SiteID]time.Duration{2: 20 * time.Millisecond, 3: time.Millisecond, 4: time.Millisecond},
		}, 2},
		{"a member past the band is far", script{
			delay: map[wire.SiteID]time.Duration{2: 150 * time.Millisecond, 3: 10 * time.Millisecond, 4: time.Millisecond},
		}, 3},
		{"a dead member is excluded", script{
			delay: map[wire.SiteID]time.Duration{3: 5 * time.Millisecond, 4: time.Millisecond},
			dead:  map[wire.SiteID]bool{2: true},
		}, 3},
		{"no answer falls back to the successor", script{
			dead: map[wire.SiteID]bool{2: true, 3: true, 4: true},
		}, 2},
		{"a uniform network keeps the successor", script{}, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, rtt := chooseStandby(order, band, probe(c.s))
			if got != c.want {
				t.Fatalf("standby = %d, want %d", got, c.want)
			}
			if measured := !c.s.dead[got]; measured != (rtt > 0) || rtt < c.s.delay[got] {
				t.Fatalf("standby %d reported rtt %v for a %v probe (answered: %v)", got, rtt, c.s.delay[got], measured)
			}
		})
	}
	if got, _ := chooseStandby(nil, band, probe(script{})); got != 0 {
		t.Fatalf("standby of a ring of one = %d, want 0", got)
	}

	t.Run("the choice closes at the first answer plus the band", func(t *testing.T) {
		letGo := make(chan struct{})
		defer close(letGo)
		start := time.Now()
		got, _ := chooseStandby(order, band, func(site wire.SiteID) bool {
			if site == 2 {
				<-letGo // a probe that outlasts the choice
				return false
			}
			time.Sleep(time.Duration(site) * time.Millisecond)
			return true
		})
		elapsed := time.Since(start)
		if got != 3 {
			t.Fatalf("standby = %d, want 3: the first in order of those inside the band", got)
		}
		if elapsed < band || elapsed > 4*band {
			t.Fatalf("choice took %v, want about the first answer plus the %v band", elapsed, band)
		}
	})
}

// TestStandbyStaysInRegion runs six sites in two regions ({1,3,5} and
// {2,4,6}, a backbone round trip apart). Every ring successor is in the
// other region, yet every home's standby is in its own. Killing a home
// while a lock it homes is held makes that in-region standby promote on
// its own monitor; the surviving holder's release lands there, and a
// reader in the other region reads the released bytes.
func TestStandbyStaysInRegion(t *testing.T) {
	const sites = 6
	const lockID = wire.LockID(30)
	opts := placementOpts()
	// Backbone round trips are about 24 ms: keep mnet from retransmitting
	// into them, and let each probe of a dead home give up in 300 ms so the
	// monitor promotes after about a second.
	opts.mnetCfg = mnet.Config{RTO: 100 * time.Millisecond, MaxRetries: 2}
	tc := newTestCluster(t, sites, opts)
	ctx := tctx(t)
	geo := netsim.RegionalWAN(2).Scaled(0.5)
	ids := make([]netsim.NodeID, 0, sites)
	for i := 1; i <= sites; i++ {
		ids = append(ids, netsim.NodeID(i))
	}
	geo.Apply(tc.sn.Underlying(), ids)
	region := func(s wire.SiteID) int { return geo.RegionOf(netsim.NodeID(s)) }

	ring := tc.node(1).Ring()
	for h := wire.SiteID(1); h <= sites; h++ {
		sb, succ := tc.standbyOf(h), ring.Successors(h)[0]
		if region(sb) != region(h) || sb == succ {
			t.Errorf("home %d (region %d): standby %d (region %d), ring successor %d; want an in-region standby",
				h, region(h), sb, region(sb), succ)
		}
		if rtt := opts.metrics.StandbyRTTValue(uint32(h)); rtt <= 0 || rtt >= standbyBand {
			t.Errorf("home %d: standby probe rtt %v, want an in-region round trip", h, rtt)
		}
	}

	home, _ := tc.node(1).homeOf(lockID)
	standby := tc.standbyOf(home)
	// The holder is the home region's third site, the reader the other
	// region's lowest.
	var holder, reader wire.SiteID
	for s := wire.SiteID(sites); s >= 1; s-- {
		switch {
		case region(s) != region(home):
			reader = s
		case s != home && s != standby:
			holder = s
		}
	}
	rlR, rR := mustCreate(t, tc.node(reader).NewHandle("reader"), lockID, "regional", []int32{1}, sites)
	rlH, rH := mustAttach(t, tc.node(holder).NewHandle("holder"), lockID, "regional")
	time.Sleep(100 * time.Millisecond) // registrations cross the backbone
	if err := rlH.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	rH.Content().IntsData()[0] = 2
	settle() // the standby applies the streamed hold
	tc.kill(home)

	adopted := func() bool { return tc.node(standby).Sync().home.isAdopted(lockID) }
	for deadline := time.Now().Add(10 * time.Second); !adopted() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if !adopted() {
		t.Fatalf("standby %d never promoted lock %d after its home %d died", standby, lockID, home)
	}
	if got := opts.metrics.CounterValue(obs.CStandbyPromotions); got != 1 {
		t.Errorf("standby promotions = %d, want 1", got)
	}
	if !eventually(t, func() bool { to, _ := tc.node(holder).homeOf(lockID); return to == standby }) {
		t.Fatalf("the holder never learned the promoted home %d", standby)
	}

	if err := rlH.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	l := tc.node(standby).Sync().lookupLock(lockID)
	if !eventually(t, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.holder == nil && l.version == 2
	}) {
		t.Fatal("the survivor's release never landed at the promoted home")
	}
	if err := rlR.Lock(ctx); err != nil {
		t.Fatalf("acquire from the other region: %v", err)
	}
	if got := rR.Content().IntsData()[0]; got != 2 || rlR.Version() != 2 {
		t.Fatalf("reader holds %d at v%d, want the released 2 at v2", got, rlR.Version())
	}
	if err := rlR.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	if got := opts.metrics.CounterValue(obs.CReleaseFailures); got != 0 {
		t.Errorf("release failures = %d, want 0", got)
	}
	mon := check.NewMonitor(0)
	for _, ev := range tc.rec.Events() {
		mon.Record(ev)
	}
	if cx := mon.Err(); cx != nil {
		t.Errorf("monitor: %v", cx)
	}
}
