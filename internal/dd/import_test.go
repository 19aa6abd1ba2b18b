package dd

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// importWorkload is a deterministic update history with heavy cancellation:
// churn keys are inserted at one epoch and removed at the next, while keep
// keys survive. The live collection at the end is much smaller than the
// history.
func importWorkload(churn, keep int, epochs uint64) []core.Update[uint64, uint64] {
	var upds []core.Update[uint64, uint64]
	for e := uint64(0); e < epochs; e++ {
		for k := 0; k < churn; k++ {
			key := uint64(1000 + k)
			upds = append(upds, core.Update[uint64, uint64]{Key: key, Val: e, Time: lattice.Ts(e), Diff: 1})
			if e+1 < epochs {
				upds = append(upds, core.Update[uint64, uint64]{Key: key, Val: e, Time: lattice.Ts(e + 1), Diff: -1})
			}
		}
	}
	for k := 0; k < keep; k++ {
		upds = append(upds, core.Update[uint64, uint64]{Key: uint64(k), Val: uint64(k), Time: lattice.Ts(0), Diff: 1})
	}
	return upds
}

// accumulate reduces updates to the net collection at time t.
func accumulate(upds []core.Update[uint64, uint64], t lattice.Time) map[[2]uint64]core.Diff {
	out := make(map[[2]uint64]core.Diff)
	for _, u := range upds {
		if !u.Time.LessEqual(t) {
			continue
		}
		k := [2]uint64{u.Key, u.Val}
		out[k] += u.Diff
		if out[k] == 0 {
			delete(out, k)
		}
	}
	return out
}

// TestLateImportSnapshotMatchesFromScratch pre-populates an arrangement
// (whose compaction frontier follows the sealed epochs), then imports it
// into a brand-new dataflow with snapshot replay. The replayed collection
// must accumulate to exactly the same consolidated collection as a
// from-scratch arrangement of the full history — while replaying no more
// than the trace holds: the import shares the runs as they stand, and
// keeping them the size of the live collection is the spine's job
// (harness/tracesize_test.go holds it to that).
func TestLateImportSnapshotMatchesFromScratch(t *testing.T) {
	const epochs = uint64(6)
	workload := importWorkload(40, 10, epochs)
	final := lattice.Ts(epochs)
	want := accumulate(workload, final)

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			captured := &Captured[uint64, uint64]{}
			var replayed atomic.Int64 // raw updates emitted by the snapshot replay
			var held atomic.Int64     // updates the trace held when it was imported
			timely.Execute(workers, func(w *timely.Worker) {
				var in *InputCollection[uint64, uint64]
				var arr *core.Arranged[uint64, uint64]
				var probe *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					input, c := NewInput[uint64, uint64](g)
					in = input
					arr = Arrange(c, core.U64(), "base")
					probe = timely.NewProbe(arr.Stream)
				})
				if w.Index() == 0 {
					in.SendSlice(workload)
				}
				in.AdvanceTo(epochs)
				w.StepUntil(func() bool { return probe.Done(lattice.Ts(epochs - 1)) })

				// The late arrival: a new dataflow importing the trace via
				// snapshot replay.
				held.Add(int64(arr.Agent.Spine().UpdateCount()))
				var qprobe *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					imported := core.ImportOpts(g, arr.Agent, "import",
						core.ImportOptions{Snapshot: true})
					flat := Flatten(imported)
					counted := Map(flat, func(k, v uint64) (uint64, uint64) {
						replayed.Add(1)
						return k, v
					})
					Capture(counted, captured)
					qprobe = Probe(counted)
				})
				w.StepUntil(func() bool { return qprobe.Done(lattice.Ts(epochs - 1)) })
				in.Close()
				w.Drain()
			})

			got := make(map[[2]uint64]core.Diff)
			for _, u := range captured.Updates() {
				if !u.Time.LessEqual(final) {
					t.Fatalf("replayed update at %v beyond final time %v", u.Time, final)
				}
				k := [2]uint64{u.Key, u.Val}
				got[k] += u.Diff
				if got[k] == 0 {
					delete(got, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("snapshot import: %d records, want %d", len(got), len(want))
			}
			for k, d := range want {
				if got[k] != d {
					t.Fatalf("snapshot import: record %v has diff %d, want %d", k, got[k], d)
				}
			}
			if n := replayed.Load(); n > held.Load() {
				t.Fatalf("snapshot replayed %d raw updates, the trace held %d", n, held.Load())
			}
		})
	}
}

// TestRawImportStillReplaysHistory pins the default Import behaviour: raw
// historical batches flow through unchanged (same accumulation, original
// times preserved below the compaction frontier).
func TestRawImportStillReplaysHistory(t *testing.T) {
	const epochs = uint64(4)
	workload := importWorkload(5, 5, epochs)
	final := lattice.Ts(epochs)
	want := accumulate(workload, final)

	captured := &Captured[uint64, uint64]{}
	timely.Execute(2, func(w *timely.Worker) {
		var in *InputCollection[uint64, uint64]
		var arr *core.Arranged[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			input, c := NewInput[uint64, uint64](g)
			in = input
			arr = Arrange(c, core.U64(), "base")
			probe = timely.NewProbe(arr.Stream)
		})
		if w.Index() == 0 {
			in.SendSlice(workload)
		}
		in.AdvanceTo(epochs)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(epochs - 1)) })

		var qprobe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			imported := core.ImportOpts(g, arr.Agent, "import", core.ImportOptions{})
			flat := Flatten(imported)
			Capture(flat, captured)
			qprobe = Probe(flat)
		})
		w.StepUntil(func() bool { return qprobe.Done(lattice.Ts(epochs - 1)) })
		in.Close()
		w.Drain()
	})

	got := make(map[[2]uint64]core.Diff)
	for _, u := range captured.Updates() {
		k := [2]uint64{u.Key, u.Val}
		got[k] += u.Diff
		if got[k] == 0 {
			delete(got, k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("raw import: %d records, want %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("raw import: record %v has diff %d, want %d", k, got[k], d)
		}
	}
}
