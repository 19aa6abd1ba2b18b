package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/timely"
)

// accumulate sums diffs for (k, v) at times ≤ t across a set of updates.
func accumulate(upds []Update[uint64, uint64], k, v uint64, t lattice.Time) Diff {
	var acc Diff
	for _, u := range upds {
		if u.Key == k && u.Val == v && u.Time.LessEqual(t) {
			acc += u.Diff
		}
	}
	return acc
}

// spineAccumulate sums diffs for (k, v) at times ≤ t via a trace cursor.
func spineAccumulate(h *Handle[uint64, uint64], k, v uint64, t lattice.Time) Diff {
	c := h.Cursor()
	var acc Diff
	if !c.SeekKey(k) {
		return 0
	}
	c.ForUpdates(k, func(cv uint64, ct lattice.Time, d Diff) {
		if cv == v && ct.LessEqual(t) {
			acc += d
		}
	})
	return acc
}

func TestSpineAppendAndCursor(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeDefault)
	h := s.NewHandle()
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 10; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		upds := []Update[uint64, uint64]{
			u64upd(epoch%3, epoch, lattice.Ts(epoch), 1),
		}
		s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	if got := spineAccumulate(h, 0, 0, lattice.Ts(9)); got != 1 {
		t.Fatalf("accumulate(0,0) = %d", got)
	}
	if got := spineAccumulate(h, 1, 4, lattice.Ts(3)); got != 0 {
		t.Fatalf("future update visible at t=3: %d", got)
	}
	if got := spineAccumulate(h, 1, 4, lattice.Ts(4)); got != 1 {
		t.Fatalf("accumulate(1,4)@4 = %d", got)
	}
}

func TestSpineMergesBoundBatchCount(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeEager)
	_ = s.NewHandle()
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 200; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		upds := []Update[uint64, uint64]{
			u64upd(epoch, epoch, lattice.Ts(epoch), 1),
		}
		s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	for s.Work(1 << 20) {
	}
	if n := s.BatchCount(); n > 12 {
		t.Fatalf("eager spine kept %d batches for 200 inserts (want O(log n))", n)
	}
}

// TestSpineMergeWorkIsLogarithmic: merging amortizes to a constant factor
// per update per level. One worker arranges 2¹⁶ one-tuple seals, spending
// the arrangement's own maintenance fuel, with a reader's handle following
// each seal; at every power of two N, the tuples the spine's merges have
// written per tuple sealed stay within log₂N + 2, the runs a cursor reads
// within ⌈log₂N⌉ + 2, and both counts repeat exactly on a second run. A
// spine that merged each seal into its largest run would write about N/2
// tuples per seal.
func TestSpineMergeWorkIsLogarithmic(t *testing.T) {
	type reading struct{ merged, runs int }
	run := func() []reading {
		var out []reading
		timely.Execute(1, func(w *timely.Worker) {
			var input *timely.Input[Update[uint64, uint64]]
			var probe *timely.Probe
			var arr *Arranged[uint64, uint64]
			w.Dataflow(func(g *timely.Graph) {
				in, s := timely.NewInput[Update[uint64, uint64]](g)
				input = in
				arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
				probe = timely.NewProbe(arr.Stream)
			})
			h := arr.Agent.NewHandle()
			spine := arr.Agent.Spine()
			for i := uint64(1); i <= 1<<16; i++ {
				input.Send(u64upd(i, i, lattice.Ts(i-1), 1))
				input.AdvanceTo(i)
				w.StepUntil(func() bool { return probe.Done(lattice.Ts(i - 1)) })
				upper := lattice.NewFrontier(lattice.Ts(i))
				h.SetLogical(upper)
				h.SetPhysical(upper)
				if i&(i-1) == 0 {
					out = append(out, reading{spine.UpdatesMerged, spine.BatchCount()})
				}
			}
			input.Close()
			h.Drop()
			w.Drain()
		})
		return out
	}
	// The runs share nothing, so the second goes beside the first: under
	// -race the pair costs one run's wall time wherever GOMAXPROCS ≥ 2.
	var second []reading
	done := make(chan struct{})
	go func() { second = run(); close(done) }()
	first := run()
	<-done
	for lg, r := range first {
		n := 1 << lg
		t.Logf("N=%d: %d tuples merged (%.2f per seal), %d runs", n, r.merged, float64(r.merged)/float64(n), r.runs)
		if r.merged > (lg+2)*n {
			t.Errorf("after %d seals the merges wrote %d tuples, want ≤ (log₂N + 2)·N = %d", n, r.merged, (lg+2)*n)
		}
		if r.runs > lg+2 {
			t.Errorf("after %d seals a cursor reads %d runs, want ≤ ⌈log₂N⌉ + 2 = %d", n, r.runs, lg+2)
		}
	}
	if !slices.Equal(first, second) {
		t.Errorf("two identical runs counted differently:\n%v\n%v", first, second)
	}
}

func TestSpineMergePreservesAccumulation(t *testing.T) {
	fn := U64()
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		coef := []int{MergeLazy, MergeDefault, MergeEager}[trial%3]
		s := NewSpine[uint64, uint64](fn, coef)
		h := s.NewHandle()
		var all []Update[uint64, uint64]
		lower := lattice.MinFrontier(1)
		for epoch := uint64(0); epoch < 30; epoch++ {
			upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
			var upds []Update[uint64, uint64]
			for n := 0; n < r.Intn(20); n++ {
				u := u64upd(uint64(r.Intn(10)), uint64(r.Intn(3)),
					lattice.Ts(epoch), int64(r.Intn(5)-2))
				if u.Diff == 0 {
					u.Diff = 1
				}
				upds = append(upds, u)
				all = append(all, u)
			}
			s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(1)))
			lower = upper
		}
		for s.Work(1 << 20) {
		}
		at := lattice.Ts(uint64(r.Intn(31)))
		for k := uint64(0); k < 10; k++ {
			for v := uint64(0); v < 3; v++ {
				want := accumulate(all, k, v, at)
				got := spineAccumulate(h, k, v, at)
				if got != want {
					t.Fatalf("coef=%d (k=%d,v=%d)@%v: got %d want %d", coef, k, v, at, got, want)
				}
			}
		}
	}
}

// TestSpineCompactionConsolidates: with the reader's logical frontier
// advanced, merged updates at indistinguishable times consolidate, and
// accumulations at times in advance of the frontier are preserved.
func TestSpineCompactionConsolidates(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeEager)
	h := s.NewHandle()
	var all []Update[uint64, uint64]
	lower := lattice.MinFrontier(1)
	// One update per epoch for the same (key, val): without compaction the
	// trace holds 100 updates; compacted to frontier 100 they all coalesce.
	for epoch := uint64(0); epoch < 100; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		u := u64upd(7, 7, lattice.Ts(epoch), 1)
		all = append(all, u)
		s.Append(BuildBatch(fn, []Update[uint64, uint64]{u}, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	h.SetLogical(lattice.NewFrontier(lattice.Ts(100)))
	s.Recompact()
	if n := s.UpdateCount(); n > 2 {
		t.Fatalf("compaction left %d updates, want <= 2", n)
	}
	if got := spineAccumulate(h, 7, 7, lattice.Ts(100)); got != 100 {
		t.Fatalf("accumulation after compaction = %d, want 100", got)
	}
}

// TestSpineNoReadersDiscards: with every handle dropped, merges discard all
// updates (empty logical frontier = nothing observable).
func TestSpineNoReadersDiscards(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeEager)
	h := s.NewHandle()
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 50; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		u := u64upd(epoch, 0, lattice.Ts(epoch), 1)
		s.Append(BuildBatch(fn, []Update[uint64, uint64]{u}, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	h.Drop()
	s.Recompact()
	if n := s.UpdateCount(); n != 0 {
		t.Fatalf("dropped-handles spine still holds %d updates", n)
	}
}

// TestPhysicalFrontierBlocksMerges: a reader's physical frontier prevents
// merging across it, so CursorThrough cuts remain available.
func TestPhysicalFrontierBlocksMerges(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeEager)
	h := s.NewHandle()
	cut := lattice.NewFrontier(lattice.Ts(3))
	h.SetPhysical(cut)
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 10; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		u := u64upd(epoch, 0, lattice.Ts(epoch), 1)
		s.Append(BuildBatch(fn, []Update[uint64, uint64]{u}, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	for s.Work(1 << 20) {
	}
	// The cursor through the cut must see exactly updates at times < 3.
	c := h.CursorThrough(cut)
	n := 0
	for k := uint64(0); k < 10; k++ {
		if c.SeekKey(k) {
			c.ForUpdates(k, func(v uint64, tm lattice.Time, d Diff) { n++ })
		}
	}
	if n != 3 {
		t.Fatalf("cursor through %v saw %d updates, want 3", cut, n)
	}
	// After advancing the physical frontier, everything merges.
	h.SetPhysical(lattice.Frontier{})
	s.Append(EmptyBatch[uint64, uint64](lower, lattice.NewFrontier(lattice.Ts(11)), lattice.MinFrontier(1)))
	for s.Work(1 << 20) {
	}
	if n := s.BatchCount(); n > 4 {
		t.Fatalf("unconstrained spine kept %d batches", n)
	}
}

// TestSpineDepth2: product-order times inside an iteration scope.
func TestSpineDepth2(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeDefault)
	s.SetUpperDepth(2)
	h := s.NewHandle()
	var all []Update[uint64, uint64]
	lower := lattice.MinFrontier(2)
	r := rand.New(rand.NewSource(3))
	for round := uint64(0); round < 20; round++ {
		upper := lattice.NewFrontier(lattice.Ts(0, round+1))
		var upds []Update[uint64, uint64]
		for n := 0; n < 1+r.Intn(5); n++ {
			u := u64upd(uint64(r.Intn(5)), uint64(r.Intn(2)), lattice.Ts(0, round), int64(1+r.Intn(3)))
			upds = append(upds, u)
			all = append(all, u)
		}
		s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(2)))
		lower = upper
	}
	for s.Work(1 << 20) {
	}
	at := lattice.Ts(0, 12)
	for k := uint64(0); k < 5; k++ {
		for v := uint64(0); v < 2; v++ {
			if got, want := spineAccumulate(h, k, v, at), accumulate(all, k, v, at); got != want {
				t.Fatalf("(k=%d,v=%d): got %d want %d", k, v, got, want)
			}
		}
	}
}

func TestTraceCursorAlternatingSeek(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeLazy)
	h := s.NewHandle()
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 5; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		var upds []Update[uint64, uint64]
		for k := uint64(0); k < 100; k += 5 {
			upds = append(upds, u64upd(k+epoch, k, lattice.Ts(epoch), 1))
		}
		s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	c := h.Cursor()
	// Forward-only seeks in increasing key order.
	prev := -1
	for k := uint64(0); k < 110; k += 7 {
		c.SeekKey(k)
		if pk, ok := c.PeekKey(); ok {
			if int(pk) < prev {
				t.Fatalf("cursor moved backwards: %d after %d", pk, prev)
			}
			if pk < k {
				t.Fatalf("peek %d below seek %d", pk, k)
			}
			prev = int(pk)
		}
	}
}

// TestMergeNeverRegressesSince: a merge consolidates behind the readers'
// frontier joined with its inputs' own Since. Here the only reader that
// advanced the frontier goes away and a fresh one takes its place at the
// minimum (no live handle remembers the old frontier); the next merge must
// keep the inputs' compaction rather than claim the minimum over times that
// have already moved past the merged upper — which used to panic in the
// batch builder.
func TestMergeNeverRegressesSince(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeEager)
	h := s.NewHandle()
	lower := lattice.MinFrontier(1)
	push := func(epoch uint64) {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		s.Append(BuildBatch(fn, []Update[uint64, uint64]{u64upd(1, epoch, lattice.Ts(epoch), 1)},
			lower, upper, lattice.MinFrontier(1)))
		lower = upper
	}
	// The reader runs ahead of the sealed upper, so the first merge stores
	// times (5) beyond its own upper (2).
	h.SetLogical(lattice.NewFrontier(lattice.Ts(5)))
	push(0)
	push(1)
	h.Drop()
	late := s.NewHandle()
	if !late.Logical().Equal(lattice.MinFrontier(1)) {
		t.Fatalf("a handle on a trace with no live reader starts at %v, want the minimum", late.Logical())
	}
	push(2)
	push(3)
	for s.Work(1 << 30) {
	}
	first := s.Runs()[0]
	if _, upper, since := first.Bounds(); upper.LessEqual(lattice.Ts(2)) || since.LessEqual(lattice.Ts(4)) {
		t.Fatalf("oldest run [.., %v) has since %v: want the compacted pair merged onwards, still at 5", upper, since)
	}
	if got := spineAccumulate(late, 1, 0, lattice.Ts(5)); got != 1 {
		t.Fatalf("accumulate(1,0)@5 = %d, want 1", got)
	}
}

// TestHandleStartsAtCompactionFrontier: a reader attaching to a trace other
// readers have already advanced starts where they are, and cannot move the
// frontier back from there.
func TestHandleStartsAtCompactionFrontier(t *testing.T) {
	s := NewSpine[uint64, uint64](U64(), MergeDefault)
	h := s.NewHandle()
	h.SetLogical(lattice.NewFrontier(lattice.Ts(7)))
	late := s.NewHandle()
	if want := lattice.NewFrontier(lattice.Ts(7)); !late.Logical().Equal(want) {
		t.Fatalf("late handle starts at %v, want %v", late.Logical(), want)
	}
	late.SetLogical(lattice.NewFrontier(lattice.Ts(3)))
	if want := lattice.NewFrontier(lattice.Ts(7)); !s.logicalFrontier().Equal(want) {
		t.Fatalf("a lagging request moved the frontier back to %v", s.logicalFrontier())
	}
}

// BenchmarkSpineMergeResident appends a chain of 2 000 epochs of 450 u64/u64
// updates each to a resident spine the way the arrange operator does: the
// reader's logical frontier follows the epochs, and each append's fuel is
// followed by one idle schedule's (maintenanceFuel × idleFuelFactor). Fresh
// keys grow with the epoch, so merges interleave nothing; uniform keys fall
// anywhere in a 2^20-key space. It reports merged tuples per second and the
// final spine's ApproxBytes per update.
func BenchmarkSpineMergeResident(b *testing.B) {
	const epochs, perEpoch = 2000, 450
	for _, shape := range []string{"fresh", "uniform"} {
		b.Run(shape, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			batches := make([]*Batch[uint64, uint64], epochs)
			for e := range batches {
				upds := make([]Update[uint64, uint64], perEpoch)
				for i := range upds {
					k := uint64(e*perEpoch + i)
					if shape == "uniform" {
						k = uint64(r.Intn(1 << 20))
					}
					upds[i] = Update[uint64, uint64]{Key: k, Val: r.Uint64(), Time: lattice.Ts(uint64(e)), Diff: 1}
				}
				batches[e] = BuildBatch(U64(), upds, lattice.NewFrontier(lattice.Ts(uint64(e))),
					lattice.NewFrontier(lattice.Ts(uint64(e+1))), lattice.MinFrontier(1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var s *Spine[uint64, uint64]
			for i := 0; i < b.N; i++ {
				s = NewSpine(U64(), MergeDefault)
				h := s.NewHandle()
				for _, bt := range batches {
					h.SetLogical(bt.Upper)
					s.Append(bt)
					s.Work(maintenanceFuel * idleFuelFactor)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*epochs*perEpoch/b.Elapsed().Seconds(), "tuples/s")
			bytes := int64(0)
			for _, r := range s.Runs() {
				bytes += approxBytes(r)
			}
			b.ReportMetric(float64(bytes)/float64(s.UpdateCount()), "bytes/upd")
		})
	}
}
