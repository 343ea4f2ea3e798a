package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, metric) found in both result
// files, with both values, the relative change and a verdict. End-to-end
// metrics are judged by the direction and bound BENCHMARK.json gives them;
// per-layer metrics are printed, never judged. It reports whether every
// end-to-end metric stayed within its bound and no workload's share of
// failed operations rose.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	type key struct {
		workload string
		trace    int
	}
	base := make(map[key]result, len(a.Results))
	for _, r := range a.Results {
		base[key{r.Workload, r.Trace}] = r
	}

	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\ttrace\tmetric\ta\tb\tchange\tverdict")
	for _, rb := range b.Results {
		ra, found := base[key{rb.Workload, rb.Trace}]
		if !found {
			continue
		}
		failA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		failB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := "ok"
		if failB > failA {
			verdict, ok = "FAIL: more operations failed", false
		}
		fmt.Fprintf(tw, "%s\t%d\tfailed/attempted\t%.4g\t%.4g\t\t%s\n", rb.Workload, rb.Trace, failA, failB, verdict)

		defs, judged := sp.PerLayer, false
		if rb.Trace == 0 {
			defs, judged = sp.EndToEnd, true
		}
		for _, d := range defs {
			va, inA := ra.Metrics[d.Name]
			vb, inB := rb.Metrics[d.Name]
			if !inA || !inB {
				continue
			}
			change := 0.0
			if va.Value != 0 {
				change = (vb.Value - va.Value) / va.Value
			}
			verdict := "-"
			if judged {
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				verdict = "ok"
				if worse > d.Bound {
					verdict, ok = fmt.Sprintf("FAIL: worse by more than %.0f%%", 100*d.Bound), false
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%s [%s]\t%.5g\t%.5g\t%+.1f%%\t%s\n", rb.Workload, rb.Trace, d.Name, d.Unit, va.Value, vb.Value, 100*change, verdict)
		}
	}
	return ok, tw.Flush()
}
