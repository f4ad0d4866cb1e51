// Command bench is the repository's benchmark: four fixed workloads (three
// of them in BENCHMARK.json) against an in-process coupling server reached
// over loopback TCP, driven by a closed loop that acts again only when the
// group's floor is free. See README.md
// for every metric and workload, and ../BENCHMARK.json for the contract a
// driver runs it under:
//
//	go run -C bench cosoft/bench --workload g4x32 --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics of one workload (with --trace 1 also the
// layer probes and a traced run, and reports the per-layer metrics), ending
// in one JSON line. Without --workload all four run, which with -out gives a
// result file that
//
//	go run -C bench cosoft/bench -compare a.json b.json
//
// compares metric by metric against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: g8x3, g4x32, g8x3-logged, statesync or all")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs (payload lengths, board values)")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 = also run the layer probes and the traced run, and report the per-layer metrics")
		out          = flag.String("out", "", "write the results of this run to this JSON file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric got worse")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(manifest()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		run = []workload{w}
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	// Two CPUs is what the load model is stated for: two shard loops, and
	// enough groups to keep two CPUs busy. Pinning it keeps runs on bigger
	// machines comparable to the recorded ones.
	runtime.GOMAXPROCS(2)

	dir := "out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	o := options{
		seed:     *seed,
		warmup:   time.Second,
		slices:   20,
		window:   time.Duration(*seconds * float64(time.Second)),
		setups:   100,
		setupFor: time.Second,
		reopens:  3,
		trace:    *trace != 0,
		dir:      dir,
	}
	file := resultFile{Fingerprint: fingerprint(o)}
	printFingerprint(file.Fingerprint)
	failed := false
	for _, w := range run {
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		file.Workloads = append(file.Workloads, res)
		printResult(res, o.trace)
		failed = failed || !res.Correct
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Workloads   []*result         `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric the run measured, by name with its unit,
// then the problems found, then the one-line JSON verdict a driver reads:
// the end-to-end metrics, or with traced set the per-layer ones.
func printResult(res *result, traced bool) {
	fmt.Printf("\nworkload %s\n", res.Workload)
	for _, m := range endToEnd {
		fmt.Printf("  %-40s %14.4f %-6s (bound %.0f%%, slices spread %.1f%%)\n",
			m.Name, res.Metrics[m.Name], m.Unit, m.Bound*100, spread(res.Slices[m.Name])*100)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	fmt.Printf("  %-40s %14.6f share (%d of %d)\n", "failed_share",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{res.Metrics[m.Name], m.Unit} // a metric that does not apply reads 0
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}
