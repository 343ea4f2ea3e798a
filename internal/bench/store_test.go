package bench

import (
	"strings"
	"testing"
)

// TestAblateStoreSmoke runs the durable-store ablation at a CI-sized
// shape. It is the only Tier-1 run of the node-level kill → reopen-same-
// directory → rejoin path (core/durable.go): the durable leg must replay
// every record and re-join with no transfers, the in-memory leg must
// refetch everything, and the capped leg must evict and refault.
func TestAblateStoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("store harness smoke is seconds-long")
	}
	cfg := Config{Scale: 0.1, StoreSites: 3, StoreLocks: 4}
	res, err := AblateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "ablate-store" {
		t.Fatalf("result ID = %q, want ablate-store", res.ID)
	}
	for _, leg := range []string{"in-memory store", "durable store"} {
		if !strings.Contains(res.Table, leg) {
			t.Fatalf("missing %q leg:\n%s", leg, res.Table)
		}
	}
	locks := float64(cfg.StoreLocks)
	for key, want := range map[string]float64{
		"durable_recovered":         locks,
		"durable_refetch_grants":    0,
		"durable_transfers_restart": 0,
		"memory_recovered":          0,
		"memory_refetch_grants":     locks,
		"memcap_records":            locks,
	} {
		if got, ok := res.Metrics[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if got := res.Metrics["memory_transfers_restart"]; got < locks {
		t.Errorf("in-memory leg moved %v transfers re-arming %v locks", got, locks)
	}
	for _, key := range []string{"durable_wal_appends", "memcap_evictions", "memcap_refaults", "fence_max_token"} {
		if res.Metrics[key] == 0 {
			t.Errorf("%s is zero:\n%s", key, res.Table)
		}
	}
}
