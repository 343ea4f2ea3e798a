package bench

import (
	"strings"
	"testing"
)

// TestAblateHomeSmoke runs the home-placement ablation at a CI-sized
// shape: the fixed-home leg must strand every lock when the home dies,
// and the ring leg must promote a standby and leave every lock
// acquirable, with the history checker on in both.
func TestAblateHomeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("home harness smoke is seconds-long")
	}
	cfg := Config{Scale: 0.1, HomeSites: 4, HomeLocks: 6}
	res, err := AblateHome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "ablate-home" {
		t.Fatalf("result ID = %q, want ablate-home", res.ID)
	}
	for _, leg := range []string{"fixed home", "ring placement"} {
		if !strings.Contains(res.Table, leg) {
			t.Fatalf("missing %q leg:\n%s", leg, res.Table)
		}
	}
	locks := float64(cfg.HomeLocks)
	for key, want := range map[string]float64{
		"fixed_acquirable_after_kill": 0,
		"fixed_stranded_after_kill":   locks,
		"home_acquirable_after_kill":  locks,
		"home_stranded_after_kill":    0,
	} {
		if got, ok := res.Metrics[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	for _, key := range []string{"home_victim_homed_locks", "standby_promotions", "standby_updates"} {
		if res.Metrics[key] == 0 {
			t.Errorf("%s is zero:\n%s", key, res.Table)
		}
	}
}
