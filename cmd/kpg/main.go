// Command kpg regenerates the tables and figures of the paper's evaluation.
//
// Usage:
//
//	kpg <experiment> [-workers N] [-scale F]
//
// where experiment is one of: fig4a fig4b fig4c fig5a fig5b fig5c fig6a
// fig6b fig6c fig6d fig6e fig6f table2 table3 table4 table5 table6 table7
// table10 table11 all. Sizes are laptop-scale; shapes (who wins, scaling
// slopes) are the reproduction target, not absolute numbers.
//
// kpg serve (with -nodes, -edges, -churn, -rounds) runs the live
// query-installation server: queries arrive at a running, churning edges
// arrangement and report install-to-first-result latencies for the shared
// versus rebuilt configurations.
//
// kpg -workers W -peers a:p0,b:p1,... -process N serve runs one process of
// the cluster scenario (internal/cluster): W workers sharded evenly across
// the listed processes, exchanging data partitions and progress deltas over
// a TCP mesh (internal/mesh). Every process runs the same command line apart
// from its -process rank; the run streams a deterministic churn workload,
// installs a transitive-closure query against the shared edges arrangement,
// and rank 0 prints a RESULT line bit-identical to a single-process run's
// (scripts/peer_smoke.sh asserts exactly that). Losing a peer exits with
// status 3 and a "peer loss" error.
//
// kpg serve -data-dir <dir> without -peers is the one-process cluster: the
// edges arrangement logs every sealed batch to a write-ahead log under
// <dir>, checkpointing every -checkpoint-every rounds. Restarted with
// -recover, it rebuilds the arrangement from the logged batches (no source
// replay), resumes the churn from the recovered epoch, and prints a RESULT
// line identical to an uninterrupted run's — after SIGKILL mid-stream, or
// after finishing and being resumed with more rounds
// (scripts/crash_recovery_check.sh asserts both). -max-lag and -spill-bytes
// are one-process flags: a -peers list of several processes rejects them.
//
// kpg serve -listen <addr> serves the wire protocol instead of a built-in
// scenario: external clients drive the "edges" source and attach live
// queries over the network. kpg client (install, uninstall, update,
// advance, sync, list, watch; server chosen with -addr) is the matching
// command-line client; internal/net documents the protocol and the query
// grammar. Combine -listen with -data-dir for a durable networked server
// that checkpoints in the background.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/graphs"
	"repro/internal/graspan"
	"repro/internal/harness"
	"repro/internal/tpch"
)

var (
	workers = flag.Int("workers", runtime.NumCPU(), "maximum worker count")
	scale   = flag.Float64("scale", 0.01, "TPC-H scale factor")
)

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: kpg <experiment>  (fig4a..fig6f, table2..table11, serve, client, bench, all)")
		os.Exit(2)
	}
	name := flag.Arg(0)
	runners := map[string]func(){
		"fig4a": fig4a, "fig4b": fig4b, "fig4c": fig4c,
		"fig5a": fig5a, "fig5b": fig5b, "fig5c": fig5c,
		"fig6a": fig6a, "fig6b": fig6b, "fig6c": fig6c,
		"fig6d": fig6d, "fig6e": fig6e, "fig6f": fig6f,
		"table2": table2, "table3": table3, "table4": table4,
		"table5": table5, "table6": table6, "table7": table7,
		"table10": table10, "table11": table11,
		"serve": serve, "bench": bench, "client": client,
	}
	if name == "all" {
		for _, n := range []string{"fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
			"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
			"table2", "table3", "table4", "table5", "table6", "table7", "table10", "table11"} {
			fmt.Printf("== %s ==\n", n)
			runners[n]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		os.Exit(2)
	}
	run()
}

func clampWorkers(w int) int {
	if *workers < w {
		return *workers
	}
	return w
}

// fig4a: absolute TPC-H streaming throughput in three configurations.
func fig4a() {
	d := tpch.Generate(*scale, 42)
	n := len(d.Orders)
	t := &harness.Table{Header: []string{"query", "w=1 b=1", "w=1 b=all", fmt.Sprintf("w=%d b=all", *workers)}}
	small := n / 20
	for q := 1; q <= 22; q++ {
		r1 := experiments.TPCHStream(d, q, 1, 1, small)
		r2 := experiments.TPCHStream(d, q, 1, n, n)
		r3 := experiments.TPCHStream(d, q, *workers, n, n)
		t.Add(fmt.Sprintf("Q%02d", q),
			experiments.FmtRate(r1.TuplesPerSec()),
			experiments.FmtRate(r2.TuplesPerSec()),
			experiments.FmtRate(r3.TuplesPerSec()))
	}
	t.Write(os.Stdout)
}

// fig4b: relative throughput versus physical batch size, one worker.
func fig4b() {
	d := tpch.Generate(*scale, 42)
	n := len(d.Orders)
	batches := []int{1, 10, 100, 1000, n}
	t := &harness.Table{Header: []string{"query", "b=1", "b=10", "b=100", "b=1000", "b=all"}}
	for q := 1; q <= 22; q++ {
		row := []any{fmt.Sprintf("Q%02d", q)}
		var base float64
		for i, b := range batches {
			total := n
			if b == 1 {
				total = n / 20
			}
			r := experiments.TPCHStream(d, q, 1, b, total)
			rate := r.TuplesPerSec()
			if i == 0 {
				base = rate
				row = append(row, "1.0x")
			} else {
				row = append(row, fmt.Sprintf("%.1fx", rate/base))
			}
		}
		t.Add(row...)
	}
	t.Write(os.Stdout)
}

// fig4c: relative throughput versus workers, fixed large batch.
func fig4c() {
	d := tpch.Generate(*scale, 42)
	n := len(d.Orders)
	ws := []int{1, 2, 4, 8}
	hdr := []string{"query"}
	for _, w := range ws {
		hdr = append(hdr, fmt.Sprintf("w=%d", w))
	}
	t := &harness.Table{Header: hdr}
	for q := 1; q <= 22; q++ {
		row := []any{fmt.Sprintf("Q%02d", q)}
		var base float64
		for i, w := range ws {
			if w > *workers {
				row = append(row, "-")
				continue
			}
			r := experiments.TPCHStream(d, q, w, n, n)
			rate := r.TuplesPerSec()
			if i == 0 {
				base = rate
				row = append(row, "1.0x")
			} else {
				row = append(row, fmt.Sprintf("%.1fx", rate/base))
			}
		}
		t.Add(row...)
	}
	t.Write(os.Stdout)
}

func fig5(shared bool) experiments.InteractiveResult {
	return experiments.InteractiveRun(clampWorkers(4), 100000, 320000, 2000, 50, shared)
}

func fig5a() {
	r := fig5(true)
	t := &harness.Table{Header: []string{"class", "tail latencies"}}
	t.Add("look-up", r.Lookup.CCDFRow())
	t.Add("1-hop", r.OneHop.CCDFRow())
	t.Add("2-hop", r.TwoHop.CCDFRow())
	t.Add("4-path", r.Path.CCDFRow())
	t.Write(os.Stdout)
}

func fig5b() {
	t := &harness.Table{Header: []string{"config", "mix tail latencies (4-path probe)"}}
	for _, shared := range []bool{true, false} {
		r := fig5(shared)
		label := "not shared"
		if shared {
			label = "shared"
		}
		t.Add(label, r.Path.CCDFRow())
	}
	t.Write(os.Stdout)
}

func fig5c() {
	t := &harness.Table{Header: []string{"config", "heap start", "heap end"}}
	for _, shared := range []bool{true, false} {
		r := fig5(shared)
		label := "not shared"
		if shared {
			label = "shared"
		}
		t.Add(label, fmt.Sprintf("%.1f MB", r.HeapStartMB), fmt.Sprintf("%.1f MB", r.HeapEndMB))
	}
	t.Write(os.Stdout)
}

func fig6a() {
	t := &harness.Table{Header: []string{"rate", "tail latencies (w=1)"}}
	for _, rate := range []int{31250, 62500, 125000, 250000, 500000, 1000000} {
		r := experiments.ArrangeLoad(1, uint64(rate*10), rate, 200, 0)
		t.Add(fmt.Sprint(rate), r.Rec.CCDFRow())
	}
	t.Write(os.Stdout)
}

func fig6b() {
	t := &harness.Table{Header: []string{"workers", "tail latencies (fixed load)"}}
	for _, w := range []int{1, 2, 4, 8} {
		if w > *workers {
			break
		}
		r := experiments.ArrangeLoad(w, 1000000, 1000000, 200, 0)
		t.Add(fmt.Sprint(w), r.Rec.CCDFRow())
	}
	t.Write(os.Stdout)
}

func fig6c() {
	t := &harness.Table{Header: []string{"workers", "tail latencies (scaled load)"}}
	for _, w := range []int{1, 2, 4, 8} {
		if w > *workers {
			break
		}
		r := experiments.ArrangeLoad(w, uint64(250000*w*4), 250000*w, 200, 0)
		t.Add(fmt.Sprint(w), r.Rec.CCDFRow())
	}
	t.Write(os.Stdout)
}

func fig6d() {
	t := &harness.Table{Header: []string{"workers", "batch formation", "trace maintenance", "count"}}
	for _, w := range []int{1, 2, 4, 8} {
		if w > *workers {
			break
		}
		rs := experiments.ArrangeThroughput(w, 50, 10000)
		t.Add(fmt.Sprint(w),
			experiments.FmtRate(rs[0].RecordsPerSec),
			experiments.FmtRate(rs[1].RecordsPerSec),
			experiments.FmtRate(rs[2].RecordsPerSec))
	}
	t.Write(os.Stdout)
}

func fig6e() {
	t := &harness.Table{Header: []string{"config", "tail latencies"}}
	for _, w := range []int{1, clampWorkers(4)} {
		out := experiments.MergeLevels(w, 1000000, 500000, 200)
		for _, name := range []string{"eager", "default", "lazy"} {
			t.Add(fmt.Sprintf("w=%d %s", w, name), out[name].CCDFRow())
		}
	}
	t.Write(os.Stdout)
}

func fig6f() {
	out := experiments.JoinProportionality(clampWorkers(2), 1000000, []int{0, 4, 8, 12, 16}, 5)
	t := &harness.Table{Header: []string{"2^k keys", "median install+run"}}
	for _, k := range []int{0, 4, 8, 12, 16} {
		t.Add(fmt.Sprintf("2^%d", k), out[k].Median().Round(time.Microsecond))
	}
	t.Write(os.Stdout)
}

func table2() {
	t := &harness.Table{Header: []string{"query", "graph", "median", "max", "full"}}
	cases := []struct {
		name  string
		edges []graphs.Edge
	}{
		{"tree-7", graphs.Tree(2, 7)},
		{"grid-30", graphs.Grid(30)},
		{"gnp1", graphs.Random(1000, 5000, 1)},
	}
	w := clampWorkers(4)
	for _, q := range []string{"tcfrom", "tcto", "sgfrom"} {
		for _, cse := range cases {
			if q == "sgfrom" && cse.name == "gnp1" {
				continue // sg on dense random graphs explodes; the paper's gnp sg also degrades
			}
			rec := experiments.DatalogInteractive(q, cse.edges, w, 20)
			full := experiments.DatalogFull(map[string]string{"tcfrom": "tc", "tcto": "tc", "sgfrom": "sg"}[q], cse.edges, w)
			t.Add(q, cse.name, rec.Median().Round(time.Microsecond),
				rec.Max().Round(time.Microsecond), full.Round(time.Millisecond))
		}
	}
	t.Write(os.Stdout)
}

func table3() {
	t := &harness.Table{Header: []string{"graph size", "full", "removal median", "removal max"}}
	for _, n := range []uint64{2000, 8000} {
		prog := graspan.Generate(n, 3)
		r := experiments.GraspanDataflow(prog, clampWorkers(2), 20)
		t.Add(fmt.Sprint(n), r.Full.Round(time.Millisecond),
			r.Rec.Median().Round(time.Microsecond), r.Rec.Max().Round(time.Microsecond))
	}
	t.Write(os.Stdout)
}

func table4() {
	prog := graspan.Generate(120, 3)
	t := &harness.Table{Header: []string{"variant", "elapsed"}}
	t.Add("base", experiments.GraspanPointsTo(prog, 1, graspan.PointsToOptions{}).Round(time.Millisecond))
	t.Add("Opt", experiments.GraspanPointsTo(prog, 1, graspan.PointsToOptions{Optimized: true}).Round(time.Millisecond))
	t.Add("NoS", experiments.GraspanPointsTo(prog, 1, graspan.PointsToOptions{Optimized: true, NoSharing: true}).Round(time.Millisecond))
	t.Write(os.Stdout)
}

func table5() {
	d := tpch.Generate(*scale, 42)
	n := len(d.Orders)
	batch := 1000
	t := &harness.Table{Header: []string{"query", "w=1 rate", fmt.Sprintf("w=%d rate", *workers)}}
	for q := 1; q <= 22; q++ {
		r1 := experiments.TPCHStream(d, q, 1, batch, n)
		r2 := experiments.TPCHStream(d, q, *workers, batch, n)
		t.Add(fmt.Sprintf("Q%02d", q),
			experiments.FmtRate(r1.TuplesPerSec()), experiments.FmtRate(r2.TuplesPerSec()))
	}
	t.Write(os.Stdout)
}

func table6() {
	d := tpch.Generate(*scale, 42)
	t := &harness.Table{Header: []string{"query", "K-Pg (1 core)", "re-evaluation oracle"}}
	for q := 1; q <= 22; q++ {
		kpg := experiments.TPCHBatch(d, q, 1)
		orc := experiments.TPCHOracleElapsed(d, q)
		t.Add(fmt.Sprintf("Q%02d", q), kpg.Round(time.Millisecond), orc.Round(time.Millisecond))
	}
	t.Write(os.Stdout)
}

func table7() {
	t := &harness.Table{Header: []string{"graph", "w", "index-f", "reach", "bfs", "index-r", "wcc"}}
	cases := []struct {
		name string
		n, m uint64
	}{
		{"small (48k/680k)", 48000, 680000},
		{"medium (150k/1.2M)", 150000, 1200000},
	}
	for _, cse := range cases {
		edges := graphs.Random(cse.n, cse.m, 7)
		ba, bh, wu, wh := experiments.GraphBaselines(edges)
		t.Add(cse.name+" single-thread", 1, "-", ba.Round(time.Millisecond), ba.Round(time.Millisecond), "-", wu.Round(time.Millisecond))
		t.Add(cse.name+" w/hash map", 1, "-", bh.Round(time.Millisecond), bh.Round(time.Millisecond), "-", wh.Round(time.Millisecond))
		for _, w := range []int{1, 2, 4, 8} {
			if w > *workers {
				break
			}
			r := experiments.GraphTasks(edges, w)
			t.Add(cse.name+" K-Pg", w, r.IndexFwd.Round(time.Millisecond),
				r.Reach.Round(time.Millisecond), r.BFS.Round(time.Millisecond),
				r.IndexRev.Round(time.Millisecond), r.WCC.Round(time.Millisecond))
		}
	}
	t.Write(os.Stdout)
}

func table10() {
	t := &harness.Table{Header: []string{"batch", "look-up", "one-hop", "two-hop", "four-path"}}
	for _, batch := range []int{1, 10, 100, 1000} {
		out := experiments.QueryBatchLatency(clampWorkers(4), 100000, 640000, batch)
		t.Add(fmt.Sprint(batch),
			out["look-up"].Round(time.Microsecond), out["one-hop"].Round(time.Microsecond),
			out["two-hop"].Round(time.Microsecond), out["four-path"].Round(time.Microsecond))
	}
	t.Write(os.Stdout)
}

func table11() {
	t := &harness.Table{Header: []string{"task", "graph", "w=1", "w=2", "w=4"}}
	cases := []struct {
		name  string
		edges []graphs.Edge
	}{
		{"tree", graphs.Tree(2, 9)},
		{"grid", graphs.Grid(40)},
		{"gnp", graphs.Random(1200, 6000, 1)},
	}
	for _, task := range []string{"tc", "sg"} {
		for _, cse := range cases {
			if task == "sg" && cse.name == "gnp" {
				continue
			}
			row := []any{task, cse.name}
			for _, w := range []int{1, 2, 4} {
				if w > *workers {
					row = append(row, "-")
					continue
				}
				row = append(row, experiments.DatalogFull(task, cse.edges, w).Round(time.Millisecond))
			}
			t.Add(row...)
		}
	}
	t.Write(os.Stdout)
}
