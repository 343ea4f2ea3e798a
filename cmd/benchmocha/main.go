// Command benchmocha regenerates the tables and figures of the paper's
// evaluation (Section 5) on the calibrated simulated environments.
//
//	benchmocha -all                # every experiment, full scale
//	benchmocha -exp fig12          # one experiment
//	benchmocha -exp table1,fig8    # a list
//	benchmocha -all -scale 0.1     # 10x faster, de-scaled results
//	benchmocha -list               # show experiment IDs
//
// Results report model time: with -scale below 1 the experiments run
// proportionally faster but the printed milliseconds remain comparable to
// the paper's. Expect minutes for the full suite at -scale 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mocha/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		exp     = flag.String("exp", "", "comma-separated experiment IDs")
		scale   = flag.Float64("scale", 1.0, "time scale (1.0 = calibrated real time)")
		trials  = flag.Int("trials", 3, "measurements per data point")
		sites   = flag.Int("sites", 6, "maximum dissemination fan-out")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut = flag.Bool("json", false, "also write each result to BENCH_<name>.json")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []bench.Experiment
	switch {
	case *all:
		selected = bench.All()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmocha: unknown experiment %q; available experiments:\n", id)
				for _, known := range bench.All() {
					fmt.Fprintf(os.Stderr, "  %-16s %s\n", known.ID, known.Title)
				}
				return 2
			}
			selected = append(selected, e)
		}
	default:
		flag.Usage()
		return 2
	}

	cfg := bench.Config{Scale: *scale, Trials: *trials, MaxSites: *sites}
	fmt.Printf("mocha benchmark harness: scale=%.3f trials=%d max-sites=%d\n\n", *scale, *trials, *sites)
	failed := 0
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmocha: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v wall-clock)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmocha: writing %s result: %v\n", e.ID, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeJSON records one result as BENCH_<name>.json in the working
// directory, stripping the "ablate-" prefix so the fan-out ablation lands
// in BENCH_fanout.json and the store ablation in BENCH_store.json.
func writeJSON(res bench.Result) error {
	name := strings.TrimPrefix(res.ID, "ablate-")
	path := "BENCH_" + name + ".json"
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
