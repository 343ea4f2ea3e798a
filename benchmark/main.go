// Command benchmark is the repository's one end-to-end and per-layer
// benchmark for Mocha as composed: four closed-loop workloads over the
// simulated network, an untraced pass that gives the end-to-end numbers,
// and a traced pass that gives the per-layer ones. BENCHMARK.json at the
// repository root names its command, workloads, metrics and bounds;
// README.md in this directory explains how to read the results.
//
// It is a module of its own; run.sh builds it and runs it from the
// repository root:
//
//	bash benchmark/run.sh -workload local_ctl -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -out run1.json          # every workload, both modes
//	bash benchmark/run.sh -compare run1.json run2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
	"time"
)

// passConfig is how long a pass measures and warms up and how often it
// repeats set-up. The smoke test shrinks all three.
type passConfig struct {
	run, warm time.Duration
	setups    int
	// microScale multiplies the micro measurements' iteration counts.
	microScale float64
}

// metricValue is one reported number, as the last line of standard
// output carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload in one mode.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Delay     string                 `json:"injected_delay"`
	RunS      float64                `json:"run_s"`
	WarmS     float64                `json:"warm_s"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	firstErr  error
}

// provenance says what produced a result file.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	WallS      float64 `json:"wall_s"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Results    []result   `json:"results"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed for the simulated network, lock choice, write offsets and read/write mix")
		seconds      = flag.Int("seconds", 15, "measured seconds per run")
		trace        = flag.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
		out          = flag.String("out", "", "write every result and the provenance block to this JSON file")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans to this JSON file (one workload)")
		compare      = flag.Bool("compare", false, "compare two -out files by BENCHMARK.json's directions and bounds: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *workloadName != "all" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []*workload{w}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace is 0, 1 or both, not %q", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *traceOut != "" && len(selected) != 1 {
		fatal(fmt.Errorf("-trace-out needs one -workload"))
	}
	cfg := passConfig{run: time.Duration(*seconds) * time.Second, warm: steadyWarm, setups: setupRepeats, microScale: 1}

	started := time.Now()
	var file resultFile
	failed := false
	for _, w := range selected {
		for _, traced := range modes {
			res, err := runWorkload(w, *seed, cfg, traced, *traceOut)
			if err != nil {
				fatal(err)
			}
			if !res.Correct {
				failed = true
				fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %v\n", w.name, res.Failed, res.Attempted, res.firstErr)
			}
			file.Results = append(file.Results, res)
		}
	}
	file.Provenance = newProvenance(*seed, time.Since(started))
	printResults(os.Stderr, file)
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatal(err)
		}
	}
	// One line per run, the last line of standard output: the form the
	// driver reads.
	for _, res := range file.Results {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs one workload in one mode. Untraced: set-up repeated,
// the whole window measured, end-to-end metrics. Traced: a third of the
// window goes to an untraced reference pass (the base of
// obs.trace_overhead_ratio and the mocha.* numbers), the rest to the
// traced pass, and the micro measurements follow.
func runWorkload(w *workload, seed int64, cfg passConfig, traced bool, traceOut string) (result, error) {
	res := result{Workload: w.name, Delay: w.delay, RunS: cfg.run.Seconds(), WarmS: cfg.warm.Seconds()}
	var (
		values map[string]float64
		defs   []metricDef
	)
	if !traced {
		r, err := runPass(w, seed, cfg.run, cfg.warm, nil, cfg.setups)
		if err == nil {
			err = r.tailErr
		}
		if err != nil {
			return res, err
		}
		values, defs = endToEndMetrics(r), endToEnd
		res.add(r)
	} else {
		res.Trace = 1
		refRun := cfg.run / 3
		ref, err := runPass(w, seed, refRun, cfg.warm, nil, 1)
		if err != nil {
			return res, err
		}
		tr := newTracer()
		r, err := runPass(w, seed, cfg.run-refRun, cfg.warm, tr, 1)
		if err != nil {
			return res, err
		}
		micro, err := microLayers(cfg.microScale, tr.rec.Events())
		if err != nil {
			return res, err
		}
		values, defs = layerMetrics(ref, r, tr.rec.Dropped(), micro), perLayer
		res.add(ref)
		res.add(r)
		if breaks := values["core.lease_breaks"]; breaks < float64(len(r.recovery)) {
			return res, fmt.Errorf("%s: %d holder crashes recovered but only %.0f leases broken", w.name, len(r.recovery), breaks)
		}
		if ratio := values["core.phase_sum_ratio"]; ratio < 0.9 || ratio > 1.1 {
			fmt.Fprintf(os.Stderr, "%s: warning: acquire phases sum to %.2f of the acquire total\n", w.name, ratio)
		}
		if traceOut != "" {
			if err := tr.writeTrace(traceOut, w.name, seed); err != nil {
				return res, err
			}
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return res, fmt.Errorf("%s: %d metrics measured, %d named", w.name, len(values), len(defs))
	}
	return res, nil
}

func (r *result) add(p *passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

func newProvenance(seed int64, wall time.Duration) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		WallS:      wall.Seconds(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResults prints every metric by name with its unit: end-to-end
// metrics one row per workload, per-layer metrics one row per metric with
// a column per workload.
func printResults(out *os.File, file resultFile) {
	p := file.Provenance
	fmt.Fprintf(out, "commit %s (dirty %v)  %s %s/%s  nproc %d  GOMAXPROCS %d  seed %d  wall %.1fs\n",
		p.Commit, p.Dirty, p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.Seed, p.WallS)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	var untraced, traced []result
	for _, r := range file.Results {
		if r.Trace == 0 {
			untraced = append(untraced, r)
		} else {
			traced = append(traced, r)
		}
		fmt.Fprintf(out, "%s trace=%d: run %.0fs, warm-up %.0fs, injected delay: %s\n", r.Workload, r.Trace, r.RunS, r.WarmS, r.Delay)
	}
	if len(untraced) > 0 {
		fmt.Fprint(tw, "workload\t")
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "%s [%s]\t", d.name, d.unit)
		}
		fmt.Fprintln(tw, "attempted\tfailed\t")
		for _, r := range untraced {
			fmt.Fprintf(tw, "%s\t", r.Workload)
			for _, d := range endToEnd {
				fmt.Fprintf(tw, "%.4g\t", r.Metrics[d.name].Value)
			}
			fmt.Fprintf(tw, "%d\t%d\t\n", r.Attempted, r.Failed)
		}
		fmt.Fprintln(tw)
	}
	if len(traced) > 0 {
		fmt.Fprint(tw, "per-layer metric\t")
		for _, r := range traced {
			fmt.Fprintf(tw, "%s\t", r.Workload)
		}
		fmt.Fprintln(tw)
		for _, d := range perLayer {
			fmt.Fprintf(tw, "%s [%s]\t", d.name, d.unit)
			for _, r := range traced {
				fmt.Fprintf(tw, "%.4g\t", r.Metrics[d.name].Value)
			}
			fmt.Fprintln(tw)
		}
	}
	_ = tw.Flush()
}
