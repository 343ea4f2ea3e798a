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
// unnoticed: every checked-in BENCH_*.json must be the output of a
// registered experiment (benchmocha -json strips the "ablate-" prefix),
// every `-exp <id>` the Makefile runs must be registered, the three layer
// configs may not gain a field without this test being edited in the same
// change — which is where the new field's second caller gets named — and
// the transfer path's three files and the home model's two each stay small
// enough to read: three perf PRs in a row grew core/transfer.go because it
// was the only place there was.
func TestSurfaceCensus(t *testing.T) {
	registered := make(map[string]bool)
	artifacts := make(map[string]bool)
	for _, e := range bench.All() {
		registered[e.ID] = true
		artifacts["BENCH_"+strings.TrimPrefix(e.ID, "ablate-")+".json"] = true
	}

	found, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range found {
		if !artifacts[name] {
			t.Errorf("%s is written by no registered experiment; archive its numbers in EXPERIMENTS.md and delete it", name)
		}
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := regexp.MustCompile(`-exp\s+(\S+)`).FindAllSubmatch(makefile, -1)
	if len(targets) == 0 {
		t.Error("Makefile runs no -exp target; the census pattern has rotted")
	}
	for _, m := range targets {
		for _, id := range strings.Split(string(m[1]), ",") {
			if !registered[id] {
				t.Errorf("Makefile runs -exp %s, which is not a registered experiment", id)
			}
		}
	}

	for _, c := range []struct {
		name string
		typ  reflect.Type
		max  int
	}{
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
