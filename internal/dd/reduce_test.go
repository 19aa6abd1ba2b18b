package dd

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// distinctKeys is n updates at epoch 0, one per key.
func distinctKeys(n int) []core.Update[uint64, uint64] {
	upds := make([]core.Update[uint64, uint64], n)
	for i := range upds {
		upds[i] = core.Update[uint64, uint64]{Key: uint64(i), Val: 1, Diff: 1}
	}
	return upds
}

// TestReduceWorklistAllocsIndependentOfKeys: a reduce's worklist is one
// sorted vector, so a schedule that evaluates n keys allocates the same
// handful of objects (each growing vector doubles its way up) whatever n is.
// Arrange, the traces' merges and the sealed batches are counted too; none
// allocates per key. Measured on go1.24/amd64: 205 objects at 10 000 keys and
// 236 at 100 000. A worklist that kept an inner map (and an index slice of
// emitted corrections) per key allocated about 3 objects per key: 30 516 and
// 301 536. Once the epoch is complete the reduce holds no worklist capacity.
func TestReduceWorklistAllocsIndependentOfKeys(t *testing.T) {
	var mallocs [2]uint64
	for i, n := range []int{10_000, 100_000} {
		upds := distinctKeys(n)
		timely.Execute(1, func(w *timely.Worker) {
			var in *InputCollection[uint64, uint64]
			var probe *timely.Probe
			var st *reduceState[uint64, uint64, uint64]
			var out *core.Arranged[uint64, uint64]
			w.Dataflow(func(g *timely.Graph) {
				ic, c := NewInput[uint64, uint64](g)
				in = ic
				out, st = reduceCore(Arrange(c, core.U64(), "arrange"), core.U64(), "Distinct", distinct[uint64, uint64])
				probe = timely.NewProbe(out.Stream)
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in.SendSlice(upds)
			in.AdvanceTo(1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
			runtime.ReadMemStats(&after)
			mallocs[i] = after.Mallocs - before.Mallocs

			got := 0
			for _, r := range out.Agent.Runs() {
				got += r.Len()
			}
			if got != n {
				t.Errorf("n=%d: the output trace holds %d updates, want %d", n, got, n)
			}
			if c := st.worklistCap(); c != 0 {
				t.Errorf("n=%d: the reduce holds worklist capacity %d after its epoch completed", n, c)
			}
			in.Close()
			w.Drain()
		})
	}
	t.Logf("allocations: %d at 10 000 keys, %d at 100 000", mallocs[0], mallocs[1])
	if d := int64(mallocs[1]) - int64(mallocs[0]); d < -256 || d > 256 {
		t.Errorf("evaluating 100 000 keys allocated %d objects, 10 000 keys %d: the worklist costs per key",
			mallocs[1], mallocs[0])
	}
}

// BenchmarkReduceInstall is a reduce's install over a loaded epoch: build
// the dataflow on 2 workers, send 100 000 distinct keys at epoch 0, and step
// until it is complete. It reports keys/s next to allocs/op and B/op, for
// DistinctCore (the reduce under SemiJoin) and CountCore.
func BenchmarkReduceInstall(b *testing.B) {
	const n = 100_000
	for _, op := range []struct {
		name  string
		build func(*core.Arranged[uint64, uint64]) *timely.Stream[core.Update[uint64, int64]]
	}{
		{"Distinct", func(a *core.Arranged[uint64, uint64]) *timely.Stream[core.Update[uint64, int64]] {
			return Map(Flatten(DistinctCore(a)), func(k, v uint64) (uint64, int64) { return k, int64(v) }).S
		}},
		{"Count", func(a *core.Arranged[uint64, uint64]) *timely.Stream[core.Update[uint64, int64]] {
			return CountCore(a).S
		}},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				upds := distinctKeys(n)
				b.StartTimer()
				timely.Execute(2, func(w *timely.Worker) {
					var in *InputCollection[uint64, uint64]
					var probe *timely.Probe
					w.Dataflow(func(g *timely.Graph) {
						ic, c := NewInput[uint64, uint64](g)
						in = ic
						probe = timely.NewProbe(op.build(Arrange(c, core.U64(), "arrange")))
					})
					if w.Index() == 0 {
						in.SendSlice(upds)
					}
					in.AdvanceTo(1)
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
					in.Close()
					w.Drain()
				})
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}
