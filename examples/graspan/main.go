// graspan: the paper's §6.4 program-analysis workload — null propagation,
// the Datalog program graspan.ReachSrc, over a synthetic program graph, kept
// up to date as null assignments are removed: the Table 3 experiment.
//
// Run with: go run ./examples/graspan
package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/graspan"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/timely"
)

func main() {
	prog := graspan.Generate(5000, 3)
	fmt.Printf("synthetic program graph: %d assign edges, %d null sources\n",
		len(prog.Assign), len(prog.Nulls))
	parsed, perr := plan.ParseDatalog(graspan.ReachSrc)
	root, _, err := plan.Compile(parsed)
	if err := errors.Join(perr, err); err != nil {
		panic(err)
	}
	var pairs atomic.Int64
	timely.Execute(2, func(w *timely.Worker) {
		var ain, nin *dd.InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			rels := map[string]dd.Collection[uint64, uint64]{}
			ain, rels["assign"] = dd.NewInput[uint64, uint64](g)
			nin, rels["nulls"] = dd.NewInput[uint64, uint64](g)
			out, err := plan.Build(root, plan.Env{Source: func(rel string) (*core.Arranged[uint64, uint64], error) {
				return dd.Arrange(rels[rel], core.U64(), rel), nil
			}})
			if err != nil {
				panic(err)
			}
			dd.Inspect(out, func(_, _ uint64, _ lattice.Time, d int64) { pairs.Add(d) })
			probe = dd.Probe(out)
		})
		defer w.Drain()
		defer func() { ain.Close(); nin.Close() }()
		if w.Index() != 0 {
			return
		}
		sync := func(epoch uint64) {
			ain.AdvanceTo(epoch + 1)
			nin.AdvanceTo(epoch + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(epoch)) })
		}
		graphs.EdgesInput(ain, prog.Assign)
		for _, s := range prog.Nulls {
			nin.Insert(s, s)
		}
		start := time.Now()
		sync(0)
		fmt.Printf("full analysis: %d (point, source) facts in %v\n",
			pairs.Load(), time.Since(start).Round(time.Millisecond))
		for i := 0; i < 5 && i < len(prog.Nulls); i++ {
			t0 := time.Now()
			nin.Remove(prog.Nulls[i], prog.Nulls[i])
			sync(uint64(i + 1))
			fmt.Printf("removed null source %d: corrected to %d facts in %v\n",
				prog.Nulls[i], pairs.Load(), time.Since(t0).Round(time.Microsecond))
		}
	})
}
