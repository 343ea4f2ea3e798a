package mocha_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mocha/internal/bench"
	"mocha/internal/core"
	"mocha/internal/mnet"
	"mocha/internal/overlay"
)

// TestSurfaceCensus keeps the switch and artifact surface from regrowing
// unnoticed. Measured numbers come from benchmark/, which records the
// commit that produced them, so no BENCH_*.json is checked in at the root
// and `make bench` and `make bench-compare` are the only bench targets.
// The layer configs and the paper harness's bench.Config may not gain a
// field without this test being edited in the same change — which is where
// the new field's second caller gets named — and the transfer path's three
// files and the home model's two each stay small enough to read: three perf
// PRs in a row grew core/transfer.go because it was the only place there
// was.
func TestSurfaceCensus(t *testing.T) {
	found, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		t.Errorf("%s is a root artifact with no provenance; archive its numbers in EXPERIMENTS.md and delete it", name)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range regexp.MustCompile(`(?m)^(bench[^:\s]*):`).FindAllSubmatch(makefile, -1) {
		targets = append(targets, string(m[1]))
	}
	if want := []string{"bench", "bench-compare"}; !reflect.DeepEqual(targets, want) {
		t.Errorf("Makefile bench targets = %v, want %v: extension numbers come from benchmark/", targets, want)
	}

	for _, c := range []struct {
		name string
		typ  reflect.Type
		max  int
	}{
		{"bench.Config", reflect.TypeOf(bench.Config{}), 3},
		{"core.Config", reflect.TypeOf(core.Config{}), 25},
		{"mnet.Config", reflect.TypeOf(mnet.Config{}), 8},
		{"overlay.Config", reflect.TypeOf(overlay.Config{}), 5},
	} {
		if n := c.typ.NumField(); n > c.max {
			t.Errorf("%s has %d fields, census allows %d: a new option needs two non-test callers that set it differently", c.name, n, c.max)
		}
	}

	const maxLines = 600
	for _, name := range []string{"transfer.go", "carrier.go", "disseminate.go", "homeplacement.go", "standby.go"} {
		src, err := os.ReadFile(filepath.Join("internal", "core", name))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), "\n"); n > maxLines {
			t.Errorf("internal/core/%s has %d lines, census allows %d: planner, ladder and carrier, routing and standby each keep to their own file", name, n, maxLines)
		}
	}
}
