// datalog: top-down (magic-set) Datalog evaluation from §6.3 — interactive
// tc(x, ?) queries answered in milliseconds against maintained indices,
// versus full bottom-up evaluation: two Datalog programs over one edge index.
//
// Run with: go run ./examples/datalog
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/timely"
)

// count builds src over the arranged relations, adding its net change to n.
func count(src string, arranged map[string]*core.Arranged[uint64, uint64], n *atomic.Int64) *timely.Probe {
	prog, err := plan.ParseDatalog(src)
	if err != nil {
		panic(err) // the programs are constants: an error is a bug
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		panic(err)
	}
	out, err := plan.Build(root, plan.Env{Source: func(rel string) (*core.Arranged[uint64, uint64], error) { return arranged[rel], nil }})
	if err != nil {
		panic(err)
	}
	dd.Inspect(out, func(_, _ uint64, _ lattice.Time, d int64) { n.Add(d) })
	return dd.Probe(out)
}

func main() {
	edges := graphs.Tree(3, 8) // 3-ary tree of depth 8
	fmt.Printf("graph: %d edges\n", len(edges))

	var facts, answers atomic.Int64
	timely.Execute(2, func(w *timely.Worker) {
		var ein, sin *dd.InputCollection[uint64, uint64]
		var full, from *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			e, ec := dd.NewInput[uint64, uint64](g)
			s, sc := dd.NewInput[uint64, uint64](g)
			ein, sin = e, s
			arranged := map[string]*core.Arranged[uint64, uint64]{
				"edges": dd.Arrange(ec, core.U64(), "edges"),
				"seeds": dd.Arrange(sc, core.U64(), "seeds"),
			}
			full = count(datalog.TCSrc, arranged, &facts)
			from = count(datalog.TCFromSrc, arranged, &answers)
		})
		defer w.Drain()
		defer func() { ein.Close(); sin.Close() }()
		if w.Index() != 0 {
			return
		}
		sync := func(epoch uint64) {
			ein.AdvanceTo(epoch + 1)
			sin.AdvanceTo(epoch + 1)
			w.StepUntil(func() bool { return full.Done(lattice.Ts(epoch)) && from.Done(lattice.Ts(epoch)) })
		}

		// Full bottom-up transitive closure, for comparison.
		start := time.Now()
		graphs.EdgesInput(ein, edges)
		sync(0)
		fmt.Printf("bottom-up tc: %d facts in %v\n", facts.Load(), time.Since(start).Round(time.Millisecond))

		// Interactive tc(x, ?) against the maintained index.
		for i, seed := range []uint64{0, 1, 40, 1000} {
			before := answers.Load()
			t0 := time.Now()
			sin.Insert(seed, seed)
			sync(uint64(i + 1))
			fmt.Printf("tc(%d, ?): %d answers in %v\n",
				seed, answers.Load()-before, time.Since(t0).Round(time.Microsecond))
		}
	})
}
