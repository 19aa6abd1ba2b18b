package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// TestSumCoreOverImportTakesNoHandle: a linear aggregate over an imported
// arrangement reads the batch stream only. The shared trace has as many live
// handles after the aggregate is installed and running as before — a
// ReduceCore over the same import takes one — so it can never hold the
// trace's compaction back.
func TestSumCoreOverImportTakesNoHandle(t *testing.T) {
	fnOut := core.Funcs[uint64, int64]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: func(a, b int64) bool { return a < b },
		HashK: core.Mix64,
	}
	add := func(acc *int64, v uint64, d core.Diff) { *acc += int64(v) * d }
	timely.Execute(1, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, uint64]
		var arr *core.Arranged[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			input, c := dd.NewInput[uint64, uint64](g)
			in = input
			arr = dd.Arrange(c, core.U64(), "base")
			probe = timely.NewProbe(arr.Stream)
		})
		for e := uint64(0); e < 4; e++ {
			in.Insert(e%2, 10+e)
			in.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
		}
		before := arr.Agent.LiveHandles()

		sums := &dd.View[uint64, int64]{}
		var qprobe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			imported := core.ImportOpts(g, arr.Agent, "import", core.ImportOptions{Snapshot: true})
			out := dd.SumCore(imported, fnOut, "sum", add)
			dd.Watch(out, sums)
			qprobe = dd.Probe(out)
		})
		if n := arr.Agent.LiveHandles(); n != before {
			t.Errorf("installing SumCore over the import took the trace from %d live handles to %d", before, n)
		}
		in.Insert(0, 100)
		in.AdvanceTo(5)
		w.StepUntil(func() bool { return qprobe.Done(lattice.Ts(4)) })
		if n := arr.Agent.LiveHandles(); n != before {
			t.Errorf("a running SumCore over the import holds %d live handles, want %d", n, before)
		}
		want := map[dd.Record[uint64, int64]]core.Diff{{Key: 0, Val: 10 + 12 + 100}: 1, {Key: 1, Val: 11 + 13}: 1}
		got := sums.Snapshot()
		if len(got) != len(want) {
			t.Errorf("sums over the import: got %v, want %v", got, want)
		}
		for r, d := range want {
			if got[r] != d {
				t.Errorf("sums over the import: got %v, want %v", got, want)
			}
		}

		// The control: the generic shell over the same import does take one.
		w.Dataflow(func(g *timely.Graph) {
			imported := core.ImportOpts(g, arr.Agent, "import-ref", core.ImportOptions{Snapshot: true})
			dd.CountCore(imported)
		})
		if n := arr.Agent.LiveHandles(); n != before+1 {
			t.Errorf("ReduceCore over the import: %d live handles, want %d", n, before+1)
		}
		in.Close()
		w.Drain()
	})
}
