package dd

import (
	"runtime"
	"sync/atomic"
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

// TestReduceDuplicateOutputValues: a reducer may list an output value more
// than once; the multiplicities add. Here every key's output is (0, +1)
// twice. A change to the key's input that leaves the reducer's output as it
// was must leave the operator's output as it was too: comparing each listed
// (0, +1) on its own against the whole current output retracted both.
func TestReduceDuplicateOutputValues(t *testing.T) {
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			return Reduce(c, core.U64(), core.U64(), "twice",
				func(_ uint64, _ []ValDiff[uint64], out *[]ValDiff[uint64]) {
					*out = append(*out, ValDiff[uint64]{Val: 0, Diff: 1}, ValDiff[uint64]{Val: 0, Diff: 1})
				})
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			in.Insert(1, 5)
			step(0)
			in.Insert(1, 7)
			step(1)
			in.Remove(1, 5)
			step(2)
		})
	for e := uint64(0); e < 3; e++ {
		if acc := cap.At(lattice.Ts(e)); acc[[2]any{uint64(1), uint64(0)}] != 2 || len(acc) != 1 {
			t.Errorf("epoch %d: got %v, want {(1,0): 2}", e, acc)
		}
	}
}

// wideKey runs a reduce with Distinct's reducer and output functions fnOut
// on 1 worker over one key holding the values 0..n-1, loaded at epoch 0.
// Once that epoch is complete it calls loaded, then runs epochs 1..epochs,
// where step feeds epoch e.
func wideKey(n, epochs int, fnOut core.Funcs[uint64, uint64], loaded func(),
	step func(in *InputCollection[uint64, uint64], e uint64)) {

	timely.Execute(1, func(w *timely.Worker) {
		var in *InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			ic, c := NewInput[uint64, uint64](g)
			in = ic
			probe = timely.NewProbe(ReduceCore(Arrange(c, core.U64(), "arrange"), fnOut, "Distinct",
				distinct[uint64, uint64]).Stream)
		})
		for v := uint64(0); v < uint64(n); v++ {
			in.Insert(0, v)
		}
		in.AdvanceTo(1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
		loaded()
		for e := uint64(1); e <= uint64(epochs); e++ {
			step(in, e)
			in.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
		}
		in.Close()
		w.Drain()
	})
}

// TestReduceWideKeyComparisons: evaluating a key reads its input and output
// as of the time once each, sorts what the reducer wants and merges it with
// what the operator has, so an epoch that changes one value of a key
// holding n values compares output values O(n log n) times (the output
// trace's merges are linear too). The count covers that epoch only. Holding
// each wanted value against the whole current output took about n²
// comparisons: ≈ 256× from 1 000 to 16 000 values, where n log n is ≈ 22×.
func TestReduceWideKeyComparisons(t *testing.T) {
	var calls atomic.Int64
	fnOut := core.U64()
	fnOut.LessV = func(a, b uint64) bool { calls.Add(1); return a < b }
	var counts [2]int64
	for i, n := range []int{1_000, 16_000} {
		wideKey(n, 1, fnOut, func() { calls.Store(0) },
			func(in *InputCollection[uint64, uint64], _ uint64) {
				in.Remove(0, uint64(n/2))
				in.Insert(0, uint64(n))
			})
		counts[i] = calls.Load()
	}
	t.Logf("output value comparisons in the changing epoch: %d at 1 000 values, %d at 16 000", counts[0], counts[1])
	if counts[0] == 0 || counts[1] >= 40*counts[0] {
		t.Errorf("changing one value of a 16 000-value key compared %d times, of a 1 000-value key %d: "+
			"want under 40×", counts[1], counts[0])
	}
}

// BenchmarkReduceWideKey is the epoch cost of a reduce over one wide key:
// Distinct's reducer over one key holding 16 000 values, 1 worker, each
// epoch adding one value.
func BenchmarkReduceWideKey(b *testing.B) {
	const n = 16_000
	wideKey(n, b.N, core.U64(), b.ResetTimer, func(in *InputCollection[uint64, uint64], e uint64) {
		in.Insert(0, n+e)
	})
}

// TestReduceOutputSinceFollowsLaggingReader: a reduce's output trace may
// compact only behind the meet of its readers. A join reads DistinctCore(X)
// while its other input Y lags at epoch 0; X gains one record per epoch and
// the reduce seals eight batches, idle steps giving its trace time to merge
// them. When Y finally sends a record at epoch 0, the join must still see
// each X record at its own epoch: e+1 pairs as of epoch e. A batch sealed
// with the reduce's own handle as its Since let the merges advance every
// time to 7, the reduce's own frontier, so each pair landed at epoch 7.
// Plain Arrange(X) in the reduce's place is the control.
func TestReduceOutputSinceFollowsLaggingReader(t *testing.T) {
	const epochs = 8
	for _, tc := range []struct {
		name    string
		reduced bool
	}{{"Arrange", false}, {"DistinctCore", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cap := &Captured[uint64, uint64]{}
			timely.Execute(1, func(w *timely.Worker) {
				var inX, inY *InputCollection[uint64, uint64]
				var xProbe, probe *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					ix, x := NewInput[uint64, uint64](g)
					iy, y := NewInput[uint64, uint64](g)
					inX, inY = ix, iy
					ax := Arrange(x, core.U64(), "X")
					if tc.reduced {
						ax = DistinctCore(ax)
					}
					xProbe = timely.NewProbe(ax.Stream)
					out := JoinCore(Arrange(y, core.U64(), "Y"), ax, "join",
						func(k, vy, vx uint64) (uint64, uint64) { return vy, vx })
					Capture(out, cap)
					probe = Probe(out)
				})
				for e := uint64(0); e < epochs; e++ {
					inX.Insert(1, 100+e)
					inX.AdvanceTo(e + 1)
					w.StepUntil(func() bool { return xProbe.Done(lattice.Ts(e)) })
					for i := 0; i < 50; i++ {
						w.Step()
					}
				}
				inY.Insert(1, 7)
				for e := uint64(0); e < epochs; e++ {
					inY.AdvanceTo(e + 1)
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
				}
				inX.Close()
				inY.Close()
				w.Drain()
			})
			for e := uint64(0); e < epochs; e++ {
				if got := len(cap.At(lattice.Ts(e))); got != int(e)+1 {
					t.Errorf("as of epoch %d the join holds %d pairs, want %d", e, got, e+1)
				}
			}
		})
	}
}
