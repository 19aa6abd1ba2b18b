// Command bench is the repository's benchmark: four long-run workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// attributes work to the layers (packages) underneath. See README.md.
//
// One run, as BENCHMARK.json's command makes it:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload once, with every metric printed by name:
//
//	bench -all -seed <n> [-trace 1]
//
// Self-agreement over N sets of runs, failing when a spread exceeds its bound:
//
//	bench -all -repeat N -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// The program runs from the checkout root (run.sh sees to it).
const contractFile = "BENCHMARK.json"

// outDir receives traces, goroutine dumps and the durable workload's data.
var outDir = filepath.Join("bench", "out")

func main() {
	var (
		workload = flag.String("workload", "", "workload to run once: "+fmt.Sprint(workloadNames))
		all      = flag.Bool("all", false, "run every workload")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of each workload's measured phase")
		trace    = flag.Int("trace", 0, "1: record spans, run the layer probes, report the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "with -all: run the set this many times")
		check    = flag.Bool("check", false, "with -repeat: fail if an end-to-end spread exceeds its bound in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	printEnv(*seed)
	base := config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Sizes: fullSizes, OutDir: outDir}

	switch {
	case *workload != "" && !*all:
		base.Workload = *workload
		res := runWorkload(base)
		printResult(res)
		line, err := contractLine(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.correct() {
			os.Exit(1)
		}
	case *all:
		ok := runAll(base, *repeat, *check)
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printEnv records what the numbers were measured on.
func printEnv(seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s workers=%d\n",
		seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, workers())
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// printResult prints every metric of a run by name, with its unit.
func printResult(r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("## %s seed=%d %s: attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.correct())
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Printf("%-36s %16.6g %s\n", name, r.Metrics[name], unitOf(name))
	}
	for _, name := range sortedKeys(r.Counts) {
		fmt.Printf("count   %-28s %16d\n", name, r.Counts[name])
	}
	for _, name := range sortedKeys(r.Samples) {
		fmt.Printf("samples %-28s %16d\n", name, r.Samples[name])
	}
	for _, n := range r.Notes {
		fmt.Printf("note    %s\n", n)
	}
	if r.TracePath != "" {
		fmt.Printf("trace   %s\n", r.TracePath)
	}
}

// contractLine renders the one JSON object the benchmark contract reads from
// the last line of standard output.
func contractLine(r *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = mv{Value: v, Unit: unitOf(name)}
	}
	return json.Marshal(line)
}

// runAll runs every workload repeat times (untraced, and traced too when
// asked), prints each run, and with more than one set prints — and with check
// enforces — how well the sets agree.
func runAll(base config, repeat int, check bool) bool {
	ok := true
	// values[workload][metric] holds one value per set.
	values := map[string]map[string][]float64{}
	for set := 0; set < repeat; set++ {
		for _, w := range workloadNames {
			cfg := base
			cfg.Workload = w
			cfg.Trace = false
			res := runWorkload(cfg)
			printResult(res)
			ok = ok && res.correct()
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w][name] = append(values[w][name], v)
			}
			debug.FreeOSMemory()
			if base.Trace {
				cfg.Trace = true
				res := runWorkload(cfg)
				printResult(res)
				ok = ok && res.correct()
				debug.FreeOSMemory()
			}
		}
	}
	if repeat < 2 {
		return ok
	}
	limit := map[string]float64{}
	if check {
		var err error
		if limit, err = readBounds(contractFile); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return false
		}
	}
	fmt.Printf("## agreement over %d sets (spread = (q3-q1)/median)\n", repeat)
	fmt.Printf("%-18s %-26s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadNames {
		for _, name := range sortedKeys(values[w]) {
			q1, q2, q3 := quartiles(values[w][name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := ""
			if b, has := limit[name]; has && name != "setup_s" && spread > b {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Printf("%-18s %-26s %12.5g %12.5g %12.5g %8.4f %8.3f %s\n",
				w, name, q1, q2, q3, spread, limit[name], verdict)
		}
	}
	return ok
}

// readBounds loads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
