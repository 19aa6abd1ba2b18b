package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// toyConfig runs a workload at toy size, its measured phase bounded by an
// operation count so that input-derived counts do not depend on the machine.
func toyConfig(t *testing.T, workload string, trace bool) config {
	ops := map[string]int{"tpch_stream": 12, "graph_interactive": 30, "wire_datalog": 30, "durable_spill": 4}
	if testing.Short() {
		ops = map[string]int{"tpch_stream": 4, "graph_interactive": 10, "wire_datalog": 10, "durable_spill": 2}
	}
	return config{Workload: workload, Seed: 7, Seconds: 5, Trace: trace, Sizes: toySizes,
		MaxOps: ops[workload], OutDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkContractLine validates the JSON object a run prints last.
func checkContractLine(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	buf, err := contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf, &line); err != nil {
		t.Fatalf("contract line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("contract line has %d keys, want exactly 4", len(line))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, *m.Value)
		}
	}
}

// TestSmoke runs all four workloads at toy size, untraced and traced, checks
// the oracles, and validates what each run would print.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := runWorkload(toyConfig(t, w, false))
			if !res.correct() {
				t.Fatalf("failed=%d notes=%v", res.Failed, res.Notes)
			}
			if res.Attempted < 1 {
				t.Errorf("attempted = %d", res.Attempted)
			}
			checkContractLine(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			if testing.Short() {
				return
			}
			res = runWorkload(toyConfig(t, w, true))
			if !res.correct() {
				t.Fatalf("traced: failed=%d notes=%v", res.Failed, res.Notes)
			}
			checkContractLine(t, res, perLayer)
			if res.TracePath == "" {
				t.Fatal("traced run wrote no trace")
			}
			buf, err := os.ReadFile(res.TracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(buf, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Error("trace file holds no spans")
			}
			if f := res.Metrics["bench.trace_overhead_frac"]; f <= 0 || f > 0.05 {
				t.Errorf("bench.trace_overhead_frac = %v, want in (0, 0.05]", f)
			}
		})
	}
}

// TestSeedDeterminism: the same seed gives the same inputs, so every
// input-derived count agrees between two runs.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("second run of every workload")
	}
	for _, w := range workloadNames {
		a := runWorkload(toyConfig(t, w, false))
		b := runWorkload(toyConfig(t, w, false))
		if !a.correct() || !b.correct() {
			t.Fatalf("%s: notes %v / %v", w, a.Notes, b.Notes)
		}
		if len(a.Counts) == 0 || !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Errorf("%s: counts differ between two runs of one seed:\n%v\n%v", w, a.Counts, b.Counts)
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d vs %d", w, a.Attempted, b.Attempted)
		}
	}
}

// TestBenchmarkJSON: the contract file at the repository root names the same
// workloads and metrics, with units and directions, as this program reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("too many entries: %d workloads, %d end-to-end, %d per-layer",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	var e2e, layer []metricDef
	hasSetup := false
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower")
	}
	for _, d := range append(append([]metricDef(nil), e2e...), layer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from the program's list:\n%v\n%v", layer, perLayer)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{4, 1})
	if q1 != 0.25 || q2 != 2.5 || q3 != 4.75 {
		t.Errorf("quartiles(1,4) = %v %v %v, want 0.25 2.5 4.75", q1, q2, q3)
	}
}
