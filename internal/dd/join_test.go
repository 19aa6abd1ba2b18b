package dd

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// TestJoinValueGranularSuspension forces a single key whose join product
// (300×300 pairs, plus satellites) exceeds joinFuel several times over, so
// the operator must suspend mid-key at value boundaries and resume by
// galloping back with SeekVal. The output must be the exact cross product —
// nothing lost at suspension points, nothing emitted twice on resume — and
// keys after the skewed one must still be matched.
func TestJoinValueGranularSuspension(t *testing.T) {
	const n = 300 // n*n = 90000 > joinFuel (65536)
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			left := Filter(c, func(k, v uint64) bool { return v < 100000 })
			right := Filter(c, func(k, v uint64) bool { return v >= 100000 })
			return Join(left, core.U64(), right, core.U64(), "skewed",
				func(k, v1, v2 uint64) (uint64, uint64) {
					return k, v1*1000000 + (v2 - 100000)
				})
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			// Key 0 is the skewed key; values have gaps so the resume seek
			// gallops over non-trivial distances.
			for i := uint64(0); i < n; i++ {
				in.Insert(0, 3+7*i)
				in.Insert(0, 100000+13*i)
			}
			// Satellite keys after the skewed one.
			for k := uint64(1); k <= 5; k++ {
				for i := uint64(0); i < 4; i++ {
					in.Insert(k, 10+i)
					in.Insert(k, 100000+i)
				}
			}
			step(0)
			// A second epoch extends the skewed key on one side: only the new
			// pairs may appear, each exactly once.
			in.Insert(0, 3+7*n)
			step(1)
		})

	acc := cap.At(lattice.Ts(1))
	want := n*(n+1) + 5*4*4
	if len(acc) != want {
		t.Fatalf("join produced %d distinct pairs, want %d", len(acc), want)
	}
	for rec, d := range acc {
		if d != 1 {
			t.Fatalf("pair %v has multiplicity %d, want 1", rec, d)
		}
	}
}

// TestJoinResumeAfterKeyVanishes pins the resume bookkeeping: a task
// suspended mid-key holds a resume value of that key; if the key's history
// cancels out of the trace before the next schedule (legitimate under
// compaction), the stale resume value must not constrain later keys — every
// value of the next matched key still pairs.
func TestJoinResumeAfterKeyVanishes(t *testing.T) {
	fn := core.U64()
	spine := core.NewSpine[uint64, uint64](fn, core.MergeDefault)
	h := spine.NewHandle()
	var traceUpds []core.Update[uint64, uint64]
	for v := uint64(1); v <= 5; v++ {
		traceUpds = append(traceUpds, core.Update[uint64, uint64]{
			Key: 20, Val: v, Time: lattice.Ts(0), Diff: 1,
		})
	}
	spine.Append(core.BuildBatch(fn, traceUpds, lattice.MinFrontier(1),
		lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1)))

	// The batch under match: key 10 (which the trace no longer has — its
	// history "cancelled" before this schedule) and key 20.
	var batchUpds []core.Update[uint64, uint64]
	for v := uint64(100); v < 103; v++ {
		batchUpds = append(batchUpds, core.Update[uint64, uint64]{
			Key: 10, Val: v, Time: lattice.Ts(0), Diff: 1,
		})
	}
	for v := uint64(1); v <= 5; v++ {
		batchUpds = append(batchUpds, core.Update[uint64, uint64]{
			Key: 20, Val: v + 50, Time: lattice.Ts(0), Diff: 1,
		})
	}
	bt := core.BuildBatch(fn, batchUpds, lattice.MinFrontier(1),
		lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1))

	// Suspended mid key 10 with a resume value that orders above every value
	// of key 20.
	task := &joinTask[uint64, uint64]{
		batch:   bt,
		snap:    lattice.NewFrontier(lattice.Ts(5)),
		ki:      0,
		resume:  102,
		resumed: true,
	}
	pairs := 0
	_, _ = matchBatch(fn, fn, task, h, 0, 0, 1<<20, nil,
		func(k, vx uint64, tx lattice.Time, dx core.Diff, vy uint64, ty lattice.Time, dy core.Diff) {
			if k != 20 {
				t.Fatalf("paired key %d, want only 20", k)
			}
			pairs++
		})
	if pairs != 5*5 {
		t.Fatalf("key 20 paired %d times, want 25 (stale resume value skipped values)", pairs)
	}
	if task.ki != bt.NumKeys() {
		t.Fatalf("task not completed: ki=%d", task.ki)
	}
}

// joinChurn is one side's script for BenchmarkJoinCore: per epoch, the
// updates that side sends. Epoch 0 loads vals values under each of keys
// keys; every later epoch retracts churn random live records and inserts as
// many fresh ones, each under the retracted record's key.
func joinChurn(r *rand.Rand, keys, vals, churn, epochs int) [][]core.Update[uint64, uint64] {
	script := make([][]core.Update[uint64, uint64], epochs)
	var live [][2]uint64
	next := uint64(0)
	for k := 0; k < keys; k++ {
		for v := 0; v < vals; v++ {
			live = append(live, [2]uint64{uint64(k), next})
			script[0] = append(script[0], core.Update[uint64, uint64]{Key: uint64(k), Val: next, Diff: 1})
			next++
		}
	}
	for e := 1; e < epochs; e++ {
		t := lattice.Ts(uint64(e))
		for i := 0; i < churn; i++ {
			j := r.Intn(len(live))
			k := live[j][0]
			script[e] = append(script[e],
				core.Update[uint64, uint64]{Key: k, Val: live[j][1], Time: t, Diff: -1},
				core.Update[uint64, uint64]{Key: k, Val: next, Time: t, Diff: 1})
			live[j][1] = next
			next++
		}
	}
	return script
}

// BenchmarkJoinCore is a join of two u64/u64 arrangements on 1 worker: both
// sides load 4 values under each of 2 000 keys, then 50 epochs each retract
// and insert 400 records per side. It reports output pairs/s next to B/op
// and allocs/op; every update a join emits is one pair.
func BenchmarkJoinCore(b *testing.B) {
	const keys, vals, churn, epochs = 2_000, 4, 400, 51
	r := rand.New(rand.NewSource(1))
	sa := joinChurn(r, keys, vals, churn, epochs)
	sb := joinChurn(r, keys, vals, churn, epochs)
	b.ReportAllocs()
	b.ResetTimer()
	pairs := 0
	for i := 0; i < b.N; i++ {
		timely.Execute(1, func(w *timely.Worker) {
			var ia, ib *InputCollection[uint64, uint64]
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				ca, a := NewInput[uint64, uint64](g)
				cb, c := NewInput[uint64, uint64](g)
				ia, ib = ca, cb
				out := JoinCore(Arrange(a, core.U64(), "a"), Arrange(c, core.U64(), "b"), "join",
					func(k, v1, v2 uint64) (uint64, uint64) { return v1, v2 })
				Inspect(out, func(uint64, uint64, lattice.Time, core.Diff) { pairs++ })
				probe = Probe(out)
			})
			for e := 0; e < epochs; e++ {
				ia.SendSlice(sa[e])
				ib.SendSlice(sb[e])
				ia.AdvanceTo(uint64(e + 1))
				ib.AdvanceTo(uint64(e + 1))
				w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
			}
			ia.Close()
			ib.Close()
			w.Drain()
		})
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
}

// TestJoinComparisonsFollowDelta: matching a delta of d keys against a
// trace of n keys gallops both ways (§5.3.1), so its key comparisons grow
// as d·log(n/d), not as n. The delta's keys are spread evenly over the
// trace's, each found there; the count covers matchBatch alone, not
// building either side. A trace cursor that stepped key by key would
// compare about n times at every d.
func TestJoinComparisonsFollowDelta(t *testing.T) {
	var calls int
	counted := core.U64()
	counted.LessK = func(a, b uint64) bool { calls++; return a < b }
	for _, n := range []int{10_000, 1_000_000} {
		var traceUpds []core.Update[uint64, uint64]
		for i := range n {
			traceUpds = append(traceUpds, core.Update[uint64, uint64]{Key: 2 * uint64(i), Val: 1, Time: lattice.Ts(0), Diff: 1})
		}
		spine := core.NewSpine(counted, core.MergeDefault)
		h := spine.NewHandle()
		spine.Append(core.BuildBatch(core.U64(), traceUpds, lattice.MinFrontier(1),
			lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1)))
		for _, d := range []int{1, 10, 100} {
			var deltaUpds []core.Update[uint64, uint64]
			for j := range d {
				k := 2 * uint64(j*(n/d)+n/(2*d))
				deltaUpds = append(deltaUpds, core.Update[uint64, uint64]{Key: k, Val: 2, Time: lattice.Ts(1), Diff: 1})
			}
			task := &joinTask[uint64, uint64]{
				batch: core.BuildBatch(core.U64(), deltaUpds, lattice.NewFrontier(lattice.Ts(1)),
					lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1)),
				snap: lattice.NewFrontier(lattice.Ts(1)),
			}
			pairs := 0
			calls = 0
			matchBatch(counted, counted, task, h, 0, 0, 1<<30, nil,
				func(uint64, uint64, lattice.Time, core.Diff, uint64, lattice.Time, core.Diff) { pairs++ })
			if pairs != d {
				t.Fatalf("n=%d d=%d: %d pairs, want %d", n, d, pairs, d)
			}
			bound := 4 * d * (bits.Len(uint(n/d)) + 1)
			t.Logf("n=%d d=%d: %d key comparisons (bound %d)", n, d, calls, bound)
			if calls > bound {
				t.Errorf("a %d-key delta against a %d-key trace compared keys %d times, want ≤ 4·d·(⌊log₂(n/d)⌋+2) = %d",
					d, n, calls, bound)
			}
		}
	}
}
