package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/lattice"
)

// A stored update's history entry is a two-word time and a diff: batches,
// builders, spines and the decoded-block cache all hold these.
func TestTimeDiffIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(TimeDiff{}); got != 24 {
		t.Fatalf("Sizeof(TimeDiff) = %d, want 24", got)
	}
}

func u64upd(k, v uint64, t lattice.Time, d Diff) Update[uint64, uint64] {
	return Update[uint64, uint64]{Key: k, Val: v, Time: t, Diff: d}
}

func TestBuildBatchBasics(t *testing.T) {
	fn := U64()
	upds := []Update[uint64, uint64]{
		u64upd(2, 20, lattice.Ts(0), 1),
		u64upd(1, 10, lattice.Ts(0), 1),
		u64upd(1, 10, lattice.Ts(1), -1),
		u64upd(1, 11, lattice.Ts(0), 2),
	}
	b := BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
	if b.Len() != 4 || b.NumKeys() != 2 {
		t.Fatalf("len=%d keys=%d", b.Len(), b.NumKeys())
	}
	if b.Keys[0] != 1 || b.Keys[1] != 2 {
		t.Fatalf("keys not sorted: %v", b.Keys)
	}
	// key 1 has vals 10 (two times) and 11.
	lo, hi := b.ValRange(0)
	if hi-lo != 2 || b.Vals.At(lo) != 10 || b.Vals.At(lo+1) != 11 {
		t.Fatalf("vals of key 1: %v, %v", b.Vals.At(lo), b.Vals.At(lo+1))
	}
	ul, uh := b.UpdRange(lo)
	if uh-ul != 2 {
		t.Fatalf("val 10 must have 2 updates")
	}
}

func TestBuildBatchCoalesces(t *testing.T) {
	fn := U64()
	upds := []Update[uint64, uint64]{
		u64upd(1, 10, lattice.Ts(0), 1),
		u64upd(1, 10, lattice.Ts(0), 1),
		u64upd(1, 10, lattice.Ts(0), -2), // cancels entirely
		u64upd(2, 20, lattice.Ts(1), 3),
		u64upd(2, 20, lattice.Ts(1), -1), // 2 remains
	}
	b := BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
	if b.Len() != 1 || b.NumKeys() != 1 || b.Keys[0] != 2 {
		t.Fatalf("coalescing failed: len=%d keys=%v", b.Len(), b.Keys)
	}
	if b.Diffs[0] != 2 {
		t.Fatalf("diff = %d", b.Diffs[0])
	}
}

// TestBuildBatchAllocsIndependentOfSize: BuildBatch counts its keys and
// values before it builds, so each column is made once at its exact size,
// whatever the batch's size, in the row layout and the columnar one alike.
// Growing the columns by append allocates once per doubling: 52 objects at
// 1 000 updates and 116 at 100 000 in the row layout, 100 and 228 columnar.
func TestBuildBatchAllocsIndependentOfSize(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		fn := fnWide(columnar)
		var allocs [2]float64
		for i, n := range []int{1_000, 100_000} {
			upds := make([]Update[uint64, wideVal], n)
			for j := range upds {
				// Four updates per value, three values per key.
				k, v := uint64(j/12), uint64(j/4%3)
				upds[j] = Update[uint64, wideVal]{Key: k, Val: wideVal{A: v, B: int64(k)}, Time: lattice.Ts(uint64(j % 4)), Diff: 1}
			}
			var b *Batch[uint64, wideVal]
			allocs[i] = testing.AllocsPerRun(3, func() {
				b = BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(4)), lattice.MinFrontier(1))
			})
			if b.Len() != n || b.NumKeys() != (n+11)/12 || b.Vals.Len() != (n+3)/4 {
				t.Fatalf("columnar=%v n=%d: built %d updates, %d keys, %d values", columnar, n, b.Len(), b.NumKeys(), b.Vals.Len())
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("columnar=%v: BuildBatch allocates %v objects at 1 000 updates, %v at 100 000", columnar, allocs[0], allocs[1])
		}
	}
}

func TestBatchBoundsChecked(t *testing.T) {
	fn := U64()
	defer func() {
		if recover() == nil {
			t.Fatalf("update beyond upper must panic")
		}
	}()
	BuildBatch(fn, []Update[uint64, uint64]{u64upd(1, 1, lattice.Ts(5), 1)},
		lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
}

func TestBatchForKeyAndSeek(t *testing.T) {
	fn := U64()
	var upds []Update[uint64, uint64]
	for k := uint64(0); k < 100; k += 2 {
		upds = append(upds, u64upd(k, k*10, lattice.Ts(0), int64(k+1)))
	}
	b := BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1))
	count := 0
	b.ForKey(fn, 42, func(v uint64, tm lattice.Time, d Diff) {
		count++
		if v != 420 || d != 43 {
			t.Fatalf("wrong val/diff: %d %d", v, d)
		}
	})
	if count != 1 {
		t.Fatalf("key 42 visited %d times", count)
	}
	b.ForKey(fn, 43, func(v uint64, tm lattice.Time, d Diff) {
		t.Fatalf("key 43 must be absent")
	})
	if ki := b.SeekKey(fn, 43, 0); b.Keys[ki] != 44 {
		t.Fatalf("seek 43 landed on %d", b.Keys[ki])
	}

	// On an as-of view ForKey presents the advanced times, as ForEach does.
	view := b.viewAsOf(lattice.NewFrontier(lattice.Ts(7)))
	count = 0
	view.ForKey(fn, 42, func(v uint64, tm lattice.Time, d Diff) {
		count++
		if tm != lattice.Ts(7) {
			t.Fatalf("view shows key 42 at %v, want the as-of time %v", tm, lattice.Ts(7))
		}
	})
	if count != 1 {
		t.Fatalf("view visited key 42 %d times", count)
	}
}

// randAntichain returns an antichain of one or two random times of the given
// depth with coordinates in [lo, hi]; at depth 1 it is a single time.
func randAntichain(r *rand.Rand, depth int, lo, hi uint64) lattice.Frontier {
	var f lattice.Frontier
	for n := 1 + r.Intn(2); n > 0; n-- {
		c := make([]uint64, depth)
		for i := range c {
			c[i] = lo + uint64(r.Int63n(int64(hi-lo+1)))
		}
		f.Insert(lattice.Ts(c...))
	}
	return f
}

// TestAsOfViewMatchesCompact: every as-of view presents each update at
// rep_AsOf of its stored time, whether viewAsOf made it one-time — a
// one-time run's view at the advance of its time, or a multi-time run's
// view proved from its bounds — or advances each stored time as it reads.
// Random runs cover depth-1 and depth-2 times, multi-element frontiers,
// runs compacted to a since past their upper, and as-of times below the
// upper or the since, so both one-time paths and every case that must stay
// off the proved one are reached.
func TestAsOfViewMatchesCompact(t *testing.T) {
	fn := U64()
	r := rand.New(rand.NewSource(11))
	const bound = 8
	proved, shared, ahead := 0, 0, 0
	for iter := 0; iter < 4000; iter++ {
		depth := 1 + r.Intn(2)
		upper := randAntichain(r, depth, 1, bound)
		since := lattice.MinFrontier(depth)
		if r.Intn(3) > 0 {
			since = randAntichain(r, depth, 0, bound+2)
		}
		var upds []Update[uint64, uint64]
		for n := r.Intn(20); len(upds) < n; {
			c := make([]uint64, depth)
			for i := range c {
				c[i] = uint64(r.Intn(bound))
			}
			tm := lattice.Ts(c...)
			if upper.LessEqual(tm) {
				continue
			}
			tm, _ = lattice.Compact(tm, since)
			upds = append(upds, u64upd(uint64(r.Intn(4)), uint64(r.Intn(3)), tm, int64(r.Intn(5)-2)))
		}
		b := BuildBatch(fn, upds, lattice.MinFrontier(depth), upper, since)
		asOf := randAntichain(r, depth, 0, bound+2)
		view := b.viewAsOf(asOf)
		a := asOf.Elements()[0]
		switch {
		case len(b.Times) > 0 && len(view.Times) == 0:
			proved++
		case len(b.Times) > 0:
			shared++
			if &view.Times[0] != &b.Times[0] {
				t.Fatalf("a view as of %v copies its run's time column", asOf)
			}
		case !b.Empty() && view.Time != a:
			ahead++
		}

		want := make([]lattice.Time, b.Len())
		var wantMins lattice.Frontier
		for ui := range b.Diffs {
			want[ui], _ = lattice.Compact(b.UpdTime(ui), asOf)
			wantMins.Insert(want[ui])
		}
		desc := func() string {
			return fmt.Sprintf("run [%v, %v) since %v, times %v (one time %v), as of %v", b.Lower, b.Upper, b.Since, b.Times, b.Time, asOf)
		}
		for ui := range b.Diffs {
			if got := view.UpdTime(ui); got != want[ui] {
				t.Fatalf("%s: UpdTime(%d) = %v, want %v", desc(), ui, got, want[ui])
			}
		}
		ui := 0
		view.ForEach(func(_, _ uint64, tm lattice.Time, d Diff) {
			if tm != want[ui] || d != b.Diffs[ui] {
				t.Fatalf("%s: ForEach update %d at %v (diff %d), want %v (diff %d)", desc(), ui, tm, d, want[ui], b.Diffs[ui])
			}
			ui++
		})
		for ki, k := range b.Keys {
			ui := int(b.ValOff[b.KeyOff[ki]])
			view.ForKey(fn, k, func(_ uint64, tm lattice.Time, _ Diff) {
				if tm != want[ui] {
					t.Fatalf("%s: ForKey(%d) update %d at %v, want %v", desc(), k, ui, tm, want[ui])
				}
				ui++
			})
		}
		if got := lattice.NewFrontier(view.MinTimes()...); !got.Equal(wantMins) {
			t.Fatalf("%s: MinTimes %v, want %v", desc(), got, wantMins)
		}
	}
	// The draw must reach the proved path, multi-time views that share
	// their run's time column, and one-time runs whose view presents a
	// time past the as-of element.
	t.Logf("%d proved one-time views, %d sharing views, %d one-time runs presented past a", proved, shared, ahead)
	if proved < 100 || shared < 100 || ahead < 100 {
		t.Fatal("the draw is too narrow")
	}

	// The since guard. At depth 1 a valid run compacted to a since past a
	// is itself one-time, so the draw never reaches it: a run whose upper
	// is ≤ a but whose since is past a is assembled by hand, and its view
	// as of {a} must keep presenting its own times.
	asOf, upper, since := lattice.NewFrontier(lattice.Ts(4)), lattice.NewFrontier(lattice.Ts(3)), lattice.NewFrontier(lattice.Ts(5))
	if oneTimeAsOf(asOf, upper, since) {
		t.Fatal("oneTimeAsOf proves a run compacted past the as-of element one-time")
	}
	b := BuildBatch(fn, []Update[uint64, uint64]{u64upd(1, 1, lattice.Ts(5), 1), u64upd(1, 2, lattice.Ts(6), 1)},
		lattice.MinFrontier(1), upper, since)
	view := b.viewAsOf(asOf)
	if len(view.Times) == 0 || view.UpdTime(0) != lattice.Ts(5) || view.UpdTime(1) != lattice.Ts(6) {
		t.Fatalf("a run at times 5 and 6 compacted to {5} reads as of {4} at %v and %v", view.UpdTime(0), view.UpdTime(1))
	}
}

func TestEmptyBatch(t *testing.T) {
	b := EmptyBatch[uint64, uint64](lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(3)), lattice.MinFrontier(1))
	if !b.Empty() || b.Len() != 0 || len(b.MinTimes()) != 0 {
		t.Fatalf("empty batch malformed")
	}
}

func TestTupleCursorRoundTrip(t *testing.T) {
	fn := U64()
	r := rand.New(rand.NewSource(9))
	var upds []Update[uint64, uint64]
	for i := 0; i < 500; i++ {
		upds = append(upds, u64upd(uint64(r.Intn(50)), uint64(r.Intn(5)),
			lattice.Ts(uint64(r.Intn(4))), int64(r.Intn(5)+1)))
	}
	b := BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(4)), lattice.MinFrontier(1))
	c := newTupleCursor(b)
	var got []Update[uint64, uint64]
	for c.valid() {
		got = append(got, Update[uint64, uint64]{
			Key:  b.Keys[c.ki],
			Val:  b.Vals.At(c.vi),
			Time: b.UpdTime(c.ui),
			Diff: b.Diffs[c.ui],
		})
		c.next()
	}
	if len(got) != b.Len() {
		t.Fatalf("cursor yielded %d of %d", len(got), b.Len())
	}
	i := 0
	b.ForEach(func(k, v uint64, tm lattice.Time, d Diff) {
		u := got[i]
		if u.Key != k || u.Val != v || u.Time != tm || u.Diff != d {
			t.Fatalf("tuple %d mismatch: %+v vs (%d,%d,%v,%d)", i, u, k, v, tm, d)
		}
		i++
	})
}

func TestMinTimesAntichain(t *testing.T) {
	fn := U64()
	upds := []Update[uint64, uint64]{
		u64upd(1, 1, lattice.Ts(3), 1),
		u64upd(2, 2, lattice.Ts(1), 1),
		u64upd(3, 3, lattice.Ts(2), 1),
	}
	b := BuildBatch(fn, upds, lattice.NewFrontier(lattice.Ts(1)), lattice.NewFrontier(lattice.Ts(4)), lattice.MinFrontier(1))
	mt := b.MinTimes()
	if len(mt) != 1 || mt[0] != lattice.Ts(1) {
		t.Fatalf("MinTimes = %v", mt)
	}
}

// TestIntrosortOrdersAsSortFunc: the ordered kernels' sort leaves random,
// sorted, reversed, few-valued and all-equal inputs in the order
// slices.SortFunc gives them, and so does its heapsort fallback, which the
// depth-0 run takes at once. Sizes straddle the insertion-sort cutoff.
func TestIntrosortOrdersAsSortFunc(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cmpUpd := func(a, b Update[uint64, uint64]) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Val, b.Val); c != 0 {
			return c
		}
		return a.Time.TotalCmp(b.Time)
	}
	inputs := map[string]func(i, n int) Update[uint64, uint64]{
		"random": func(int, int) Update[uint64, uint64] {
			return Update[uint64, uint64]{Key: uint64(r.Intn(50)), Val: uint64(r.Intn(4)), Time: lattice.Ts(uint64(r.Intn(3)), uint64(r.Intn(3)))}
		},
		"sorted": func(i, _ int) Update[uint64, uint64] {
			return Update[uint64, uint64]{Key: uint64(i), Time: lattice.Ts(0, 0)}
		},
		"reversed": func(i, n int) Update[uint64, uint64] {
			return Update[uint64, uint64]{Key: uint64(n - i), Time: lattice.Ts(0, 0)}
		},
		"few": func(int, int) Update[uint64, uint64] {
			return Update[uint64, uint64]{Key: uint64(r.Intn(2)), Time: lattice.Ts(0, uint64(r.Intn(2)))}
		},
		"equal": func(int, int) Update[uint64, uint64] { return Update[uint64, uint64]{Key: 7, Time: lattice.Ts(1, 1)} },
	}
	for name, gen := range inputs {
		for _, n := range []int{0, 1, 11, 12, 13, 100, 1000} {
			upds := make([]Update[uint64, uint64], n)
			for i := range upds {
				upds[i] = gen(i, n)
			}
			want := slices.Clone(upds)
			slices.SortFunc(want, cmpUpd)
			for _, depth := range []int{0, 2 * bits.Len(uint(n))} {
				got := slices.Clone(upds)
				introsort(got, depth)
				if slices.CompareFunc(got, want, cmpUpd) != 0 {
					t.Fatalf("%s, %d updates, depth %d: out of order", name, n, depth)
				}
			}
		}
	}
}
