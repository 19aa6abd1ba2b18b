package harness

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// The import view contract: a dataflow that imports a trace late — as views
// over whatever runs the spine happens to hold — computes, at every epoch
// from its arrival on, what a dataflow fed the whole history computes.

// importShape is the state of the base trace when the late dataflow arrives.
// Every shape holds merged runs (the first half of the prefix merges freely)
// followed by one unmerged run per epoch (a reader then holds merges back),
// with records inserted in one run and retracted in a later one.
type importShape struct {
	name    string
	merging bool // a merge is under way, part-done, at the import
	spill   bool // a cold tier with room for nothing: a finished run is on disk, a merge's inputs were
}

var importShapes = []importShape{
	{name: "resident"},
	{name: "merging", merging: true},
	{name: "spilled", spill: true},
	{name: "spilled-merging", spill: true, merging: true},
}

func TestImportViewsMatchFromScratch(t *testing.T) {
	const epochs, prefix = 12, 8
	r := rand.New(rand.NewSource(21))
	ha := RandomHistory(r, epochs, 40, 6, 12, 0.4)
	hb := RandomHistory(r, epochs, 10, 6, 4, 0.3)
	mapf := func(k, v uint64) (uint64, uint64) { return v % 5, k + v }
	for _, shape := range importShapes {
		for _, workers := range oracleWorkers {
			tag := fmt.Sprintf("%s/w%d", shape.name, workers)
			got := runLateImport(t, tag, workers, shape, ha, hb, prefix, mapf)
			for e := prefix; e < epochs; e++ {
				at := lattice.Ts(uint64(e))
				na, nb := NetAt(ha, uint64(e)), NetAt(hb, uint64(e))
				wantCount, wantDistinct := countDistinctOracle(na)
				diffMaps(t, tag+"/map", e, got.mapped.At(at), mapOracle(na, mapf))
				diffMaps(t, tag+"/join", e, got.joined.At(at), joinOracle(na, nb))
				diffMaps(t, tag+"/count", e, got.counted.At(at), wantCount)
				diffMaps(t, tag+"/distinct", e, got.distinct.At(at), wantDistinct)
			}
		}
	}
}

// lateOutputs are the captured outputs of the four late operators.
type lateOutputs struct {
	mapped   dd.Captured[uint64, uint64]
	joined   dd.Captured[uint64, uint64]
	counted  dd.Captured[uint64, int64]
	distinct dd.Captured[uint64, uint64]
}

// runLateImport arranges ha, and after prefix epochs brings the trace into
// the given shape and installs a second dataflow that imports it into map,
// join (against hb), count and distinct. Both dataflows then run on to the
// end of the histories, the merges held back until then released.
func runLateImport(t *testing.T, tag string, workers int, shape importShape,
	ha, hb History, prefix int, mapf func(k, v uint64) (uint64, uint64)) *lateOutputs {

	out := &lateOutputs{}
	dir := t.TempDir()
	var runs, cold, spilled, merging atomic.Int64
	timely.Execute(workers, func(w *timely.Worker) {
		var opt core.ArrangeOptions
		if shape.spill {
			st, err := block.Open(filepath.Join(dir, fmt.Sprint(w.Index())), core.U64(), nil, wal.U64Codec(),
				block.StoreOptions{BlockUpdates: 8})
			if err != nil {
				t.Errorf("%s: open block store: %v", tag, err)
				return
			}
			opt.Spill = &core.SpillOptions{MaxResidentBytes: 1, Store: st}
		}
		var inA, inB *dd.InputCollection[uint64, uint64]
		var arr *core.Arranged[uint64, uint64]
		var probes []*timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			ic, c := dd.NewInput[uint64, uint64](g)
			inA = ic
			arr = dd.ArrangeOpts(c, core.U64(), "base", opt)
			probes = append(probes, timely.NewProbe(arr.Stream))
		})
		var pin *core.Handle[uint64, uint64]
		epoch := func(e int) {
			if w.Index() == 0 {
				ha.sendEpoch(inA, e)
				if inB != nil {
					hb.sendEpoch(inB, e)
				}
			}
			inA.AdvanceTo(uint64(e) + 1)
			if inB != nil {
				inB.AdvanceTo(uint64(e) + 1)
			}
			w.StepUntil(func() bool {
				for _, p := range probes {
					if !p.Done(lattice.Ts(uint64(e))) {
						return false
					}
				}
				return true
			})
			if pin != nil {
				pin.SetLogical(arr.Agent.Upper())
			}
		}
		for e := 0; e < prefix; e++ {
			if e == prefix/2 {
				pin = arr.Agent.NewHandle()
				pin.SetPhysical(lattice.MinFrontier(1))
			}
			epoch(e)
		}

		sp := arr.Agent.Spine()
		if shape.merging {
			// Let the held-back merges start, and do a few steps of them.
			pin.SetPhysical(arr.Agent.Upper())
			sp.Work(1)
			sp.Work(3)
		}
		for _, r := range arr.Agent.Runs() {
			runs.Add(1)
			if _, resident := r.(*core.Batch[uint64, uint64]); !resident {
				cold.Add(1)
			}
		}
		spilled.Add(int64(sp.RunsSpilled))
		merging.Add(int64(sp.MergesStarted - sp.MergesCompleted))

		w.Dataflow(func(g *timely.Graph) {
			imported := core.ImportOpts(g, arr.Agent, "import", core.ImportOptions{Snapshot: true})
			mapped := dd.Map(dd.Flatten(imported), mapf)
			dd.Capture(mapped, &out.mapped)
			ib, cb := dd.NewInput[uint64, uint64](g)
			inB = ib
			joined := dd.JoinCore(imported, dd.Arrange(cb, core.U64(), "other"), "join",
				func(k, v1, v2 uint64) (uint64, uint64) { return k, v1*joinEnc + v2 })
			dd.Capture(joined, &out.joined)
			counted := dd.CountCore(imported)
			dd.Capture(counted, &out.counted)
			distinct := dd.Flatten(dd.DistinctCore(imported))
			dd.Capture(distinct, &out.distinct)
			probes = append(probes, dd.Probe(mapped), dd.Probe(joined), dd.Probe(counted), dd.Probe(distinct))
		})
		// The join's other input catches up on its own history first.
		if w.Index() == 0 {
			var past []core.Update[uint64, uint64]
			for _, op := range hb.Ops {
				if op.Epoch < uint64(prefix) {
					past = append(past, core.Update[uint64, uint64]{
						Key: op.Key, Val: op.Val, Time: lattice.Ts(op.Epoch), Diff: op.Diff})
				}
			}
			inB.SendSlice(past)
		}
		for e := prefix; e < ha.Epochs; e++ {
			epoch(e)
			if e == prefix {
				// From here on merges retire the runs the views alias.
				pin.Drop()
				pin = nil
			}
		}
		inA.Close()
		inB.Close()
		w.Drain()
	})
	// The shape is what the test says it is (summed over the workers).
	if n := runs.Load(); n < int64(prefix/2) {
		t.Fatalf("%s: import saw %d runs, want at least the %d unmerged ones", tag, n, prefix/2)
	}
	// (A merge loads its inputs, so a merging spine may hold no cold run.)
	if !shape.merging && shape.spill != (cold.Load() > 0) {
		t.Fatalf("%s: import saw %d cold runs", tag, cold.Load())
	}
	if shape.spill != (spilled.Load() > 0) {
		t.Fatalf("%s: %d runs were spilled before the import", tag, spilled.Load())
	}
	if shape.merging != (merging.Load() > 0) {
		t.Fatalf("%s: import saw %d merges in progress", tag, merging.Load())
	}
	return out
}
