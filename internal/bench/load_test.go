package bench

import (
	"strings"
	"testing"
	"time"
)

// TestAblateLoadSmoke runs the open-loop harness at a CI-sized shape: a
// real multi-site cluster, both legs, history checker on. It pins the
// harness's own self-checks (operations completed, plane recorded, the
// flusher flushed) rather than a throughput ordering, which at this tiny
// shape is noise.
func TestAblateLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness smoke is seconds-long")
	}
	cfg := Config{
		LoadSites:    9,
		LoadLocks:    64,
		LoadRate:     400,
		LoadDuration: 1500 * time.Millisecond,
	}
	res, err := AblateLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "load" {
		t.Fatalf("result ID = %q, want load", res.ID)
	}
	for _, leg := range []string{"batched I/O", "online monitor"} {
		if !strings.Contains(res.Table, leg) {
			t.Fatalf("missing %q leg:\n%s", leg, res.Table)
		}
	}
	for _, key := range []string{
		"batched_completed", "monitored_completed",
		"batched_tput_ops", "monitored_tput_ops",
		"batched_p99_ms", "monitored_p99_ms",
		"batched_send_batches",
		"monitor_events", "monitor_overhead",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("missing metric %q", key)
		}
	}
	for key := range res.Metrics {
		if strings.HasPrefix(key, "serial_") || key == "speedup" {
			t.Errorf("retired serial-leg metric %q still reported", key)
		}
	}
	if res.Metrics["batched_completed"] == 0 || res.Metrics["monitored_completed"] == 0 {
		t.Fatalf("a leg completed zero operations:\n%s", res.Table)
	}
	// The monitored leg self-fails inside loadLeg on an empty stream; pin
	// the metric too so a silent rewire cannot slip past the smoke.
	if res.Metrics["monitor_events"] == 0 {
		t.Fatalf("online monitor saw zero events:\n%s", res.Table)
	}
	if res.Metrics["batched_send_batches"] == 0 {
		t.Fatalf("batched leg recorded no transmit flushes:\n%s", res.Table)
	}
	if res.Metrics["batched_history_events"] == 0 || res.Metrics["monitored_history_events"] == 0 {
		t.Fatalf("history checker saw no events:\n%s", res.Table)
	}
}
