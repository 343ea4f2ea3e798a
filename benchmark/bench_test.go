package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness holds BENCHMARK.json and the harness together:
// the same workloads and the same metrics with the same units, inside the
// limits the benchmark contract sets.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness, want the same 2 to 8", n, len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%q]: bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", sp.EndToEnd, endToEnd, true)
	check("per-layer", sp.PerLayer, perLayer, false)
}

// TestSmoke runs every workload briefly. runWorkload already fails when a
// named metric is missing or an unnamed one is measured; the test adds
// that values are finite and non-negative, that no operation fails, that a
// window too short for its tail percentile is refused, and that -compare
// passes a file against itself and fails a copy with throughput cut.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for a second or two each")
	}
	scratchDir = t.TempDir()
	cfg := passConfig{run: time.Second, warm: 100 * time.Millisecond, setups: 1, microScale: 0.01}
	var file resultFile
	run := func(name string, traced bool) {
		t.Helper()
		res, err := runWorkload(workloadByName(name), 1, cfg, traced, "")
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s traced=%v: %d of %d operations failed, first: %v", name, traced, res.Failed, res.Attempted, res.firstErr)
		}
		for k, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
				t.Errorf("%s traced=%v: %s = %v", name, traced, k, v.Value)
			}
		}
		file.Results = append(file.Results, res)
	}
	run("local_ctl", false)
	run("local_ctl", true)
	// The slower workloads report the same metric names; here they only
	// have to run clean. A loaded machine must not fail the test, so their
	// sample counts are not held to the tail percentile's minimum, except
	// where the window is far too short: composed_wan completes about 16
	// operations a second and p95 needs 200.
	for _, name := range []string{"migratory_lan", "holder_crash", "composed_wan"} {
		r, err := runPass(workloadByName(name), 1, 1500*time.Millisecond, cfg.warm, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed > 0 || r.ops == 0 {
			t.Errorf("%s: %d operations completed, %d of %d failed, first: %v", name, r.ops, r.failed, r.attempted, r.firstErr)
		}
		if name == "composed_wan" && (r.tailErr == nil || !strings.Contains(r.tailErr.Error(), "samples beyond it")) {
			t.Errorf("composed_wan for 1.5 s: tail error %v, want the percentile refused", r.tailErr)
		}
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, file); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if ok, err := compareFiles(&out, spec, a, a); err != nil || !ok {
		t.Errorf("comparing a file with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	slow := file.Results[0].Metrics["ops_per_s"]
	slow.Value *= 0.7
	file.Results[0].Metrics["ops_per_s"] = slow
	if err := writeJSON(b, file); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if ok, err := compareFiles(&out, spec, a, b); err != nil || ok {
		t.Errorf("comparing against a copy with ops_per_s cut by 30%%: ok=%v err=%v, want a failure\n%s", ok, err, out.String())
	}
}
