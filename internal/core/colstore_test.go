package core

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
)

// wideVal is the test Columnar type: a mixed-signedness six-field struct
// standing in for the TPC-H tuples.
type wideVal struct {
	A uint64
	B int64
	C bool
	D int64
	E int64
	F int64
}

func lessWide(a, b wideVal) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.C != b.C {
		return !a.C
	}
	if a.D != b.D {
		return a.D < b.D
	}
	if a.E != b.E {
		return a.E < b.E
	}
	return a.F < b.F
}

func (wideVal) ColWidth() int { return 6 }

func (v wideVal) AppendWords(dst []uint64) []uint64 {
	c := uint64(0)
	if v.C {
		c = 1
	}
	return append(dst, v.A, uint64(v.B), c, uint64(v.D), uint64(v.E), uint64(v.F))
}

func (wideVal) FromWords(w []uint64) wideVal {
	return wideVal{A: w[0], B: int64(w[1]), C: w[2] != 0, D: int64(w[3]),
		E: int64(w[4]), F: int64(w[5])}
}

func (wideVal) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	for c := 0; c < 6; c++ {
		x, y := a[c][i], b[c][j]
		if x == y {
			continue
		}
		if c == 0 || c == 2 { // A and C (bool) compare unsigned
			if x < y {
				return -1
			}
			return 1
		}
		if int64(x) < int64(y) {
			return -1
		}
		return 1
	}
	return 0
}

func fnWide(columnar bool) Funcs[uint64, wideVal] {
	f := Funcs[uint64, wideVal]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: lessWide,
		HashK: Mix64,
	}
	if columnar {
		f.NewStore = NewColumnarStore[wideVal]()
	}
	return f
}

func randWide(r *rand.Rand) wideVal {
	return wideVal{
		A: uint64(r.Intn(4)),
		B: int64(r.Intn(5) - 2),
		C: r.Intn(2) == 1,
		D: int64(r.Intn(3) - 1),
		E: int64(r.Intn(100) - 50),
		F: int64(r.Int63()) - (1 << 62),
	}
}

// TestColumnarLessAgrees: LessCols must order stored values exactly as the
// type's LessV orders materialized ones.
func TestColumnarLessAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	fn := fnWide(true)
	s := fn.newStore(0)
	var vals []wideVal
	for i := 0; i < 200; i++ {
		v := randWide(r)
		vals = append(vals, v)
		s.Append(v)
	}
	for i := range vals {
		if got := s.At(i); got != vals[i] {
			t.Fatalf("At(%d) = %+v, want %+v (words round-trip broken)", i, got, vals[i])
		}
	}
	for n := 0; n < 2000; n++ {
		i, j := r.Intn(len(vals)), r.Intn(len(vals))
		want := lessWide(vals[i], vals[j])
		if got := s.Less(lessWide, i, &s, j); got != want {
			t.Fatalf("Less(%d, %d) = %v, want %v for %+v vs %+v", i, j, got, want, vals[i], vals[j])
		}
	}
}

// TestValStoreSeekGE: galloping seeks on both layouts agree with a linear
// scan, from every starting position.
func TestValStoreSeekGE(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, columnar := range []bool{false, true} {
		fn := fnWide(columnar)
		s := fn.newStore(0)
		var vals []wideVal
		for i := 0; i < 120; i++ {
			v := randWide(r)
			vals = append(vals, v)
		}
		// Sorted distinct, as within a key's value range.
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && lessWide(vals[j], vals[j-1]); j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		dedup := vals[:0]
		for i, v := range vals {
			if i == 0 || lessWide(dedup[len(dedup)-1], v) {
				dedup = append(dedup, v)
			}
		}
		vals = dedup
		for _, v := range vals {
			s.Append(v)
		}
		for n := 0; n < 500; n++ {
			probe := randWide(r)
			if r.Intn(2) == 0 && len(vals) > 0 {
				probe = vals[r.Intn(len(vals))] // exact hits too
			}
			from := r.Intn(len(vals) + 1)
			want := from
			for want < len(vals) && lessWide(vals[want], probe) {
				want++
			}
			if got := s.SeekGE(lessWide, probe, from, len(vals)); got != want {
				t.Fatalf("columnar=%v SeekGE(%+v, from=%d) = %d, want %d",
					columnar, probe, from, got, want)
			}
		}
	}
}

// TestBatchSeekVal: the batch-level value seek mirrors SeekKey within a
// key's value range, on both layouts.
func TestBatchSeekVal(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		fn := fnWide(columnar)
		var upds []Update[uint64, wideVal]
		for k := uint64(0); k < 3; k++ {
			for i := 0; i < 40; i++ {
				upds = append(upds, Update[uint64, wideVal]{
					Key: k, Val: wideVal{A: 2, E: int64(i * 7)}, Time: lattice.Ts(0), Diff: 1,
				})
			}
		}
		b := BuildBatch(fn, upds, lattice.MinFrontier(1),
			lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1))
		ki := b.SeekKey(fn, 1, 0)
		lo, hi := b.ValRange(ki)
		for probe := 0; probe < 300; probe += 3 {
			v := wideVal{A: 2, E: int64(probe)}
			want := lo
			for want < hi && lessWide(b.Vals.At(want), v) {
				want++
			}
			if got := b.SeekVal(fn, v, lo, hi); got != want {
				t.Fatalf("columnar=%v SeekVal(E=%d) = %d, want %d", columnar, probe, got, want)
			}
		}
	}
}

// collectBatches flattens a spine's visible contents into update tuples in
// storage order.
func collectSpine(s *Spine[uint64, wideVal]) []Update[uint64, wideVal] {
	var out []Update[uint64, wideVal]
	for _, b := range s.Runs() {
		b.ForEach(func(k uint64, v wideVal, tm lattice.Time, d Diff) {
			out = append(out, Update[uint64, wideVal]{Key: k, Val: v, Time: tm, Diff: d})
		})
	}
	return out
}

// TestColumnarSliceSpineOracle drives identical random histories — appends,
// fueled maintenance, reader frontier advances, recompactions — through a
// columnar-backed and a slice-backed spine and asserts they remain
// observationally identical: same visible tuples in the same order, same
// ordered cursor walks, same accumulations.
func TestColumnarSliceSpineOracle(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		coef := []int{MergeLazy, MergeDefault, MergeEager}[trial%3]
		fnC, fnS := fnWide(true), fnWide(false)
		sc := NewSpine[uint64, wideVal](fnC, coef)
		ss := NewSpine[uint64, wideVal](fnS, coef)
		hc := sc.NewHandle()
		hs := ss.NewHandle()
		lower := lattice.MinFrontier(1)
		var observeAfter uint64
		for epoch := uint64(0); epoch < 30; epoch++ {
			upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
			var upds []Update[uint64, wideVal]
			for n := 0; n < r.Intn(10); n++ {
				u := Update[uint64, wideVal]{
					Key: uint64(r.Intn(5)), Val: randWide(r),
					Time: lattice.Ts(epoch), Diff: int64(r.Intn(5) - 2),
				}
				if u.Diff == 0 {
					continue
				}
				upds = append(upds, u)
				if r.Intn(2) == 0 {
					// Insert a retraction of the same tuple later in the
					// epoch so consolidation has cancellations to chew on.
					u.Diff = -u.Diff
					upds = append(upds, u)
				}
			}
			cupds := append([]Update[uint64, wideVal](nil), upds...)
			sc.Append(BuildBatch(fnC, cupds, lower.Clone(), upper.Clone(), hc.Logical().Clone()))
			ss.Append(BuildBatch(fnS, upds, lower.Clone(), upper.Clone(), hs.Logical().Clone()))
			lower = upper
			switch r.Intn(4) {
			case 0:
				fuel := r.Intn(200)
				sc.Work(fuel)
				ss.Work(fuel)
			case 1:
				if epoch > observeAfter {
					observeAfter = epoch
					f := lattice.NewFrontier(lattice.Ts(epoch))
					hc.SetLogical(f)
					hs.SetLogical(f)
				}
			case 2:
				sc.Recompact()
				ss.Recompact()
			}
			gc, gs := collectSpine(sc), collectSpine(ss)
			if len(gc) != len(gs) {
				t.Fatalf("trial %d epoch %d: columnar %d tuples, slice %d",
					trial, epoch, len(gc), len(gs))
			}
			for i := range gc {
				if gc[i] != gs[i] {
					t.Fatalf("trial %d epoch %d tuple %d: columnar %+v, slice %+v",
						trial, epoch, i, gc[i], gs[i])
				}
			}
		}
		// Ordered cursor walks agree per key, as do accumulations at probes.
		cc, cs := hc.Cursor(), hs.Cursor()
		for k := uint64(0); k < 5; k++ {
			type vtd struct {
				v wideVal
				t lattice.Time
				d Diff
			}
			var wc, ws []vtd
			if cc.SeekKey(k) {
				cc.ForUpdatesOrdered(k, func(v wideVal, tm lattice.Time, d Diff) {
					wc = append(wc, vtd{v, tm, d})
				})
			}
			if cs.SeekKey(k) {
				cs.ForUpdatesOrdered(k, func(v wideVal, tm lattice.Time, d Diff) {
					ws = append(ws, vtd{v, tm, d})
				})
			}
			if len(wc) != len(ws) {
				t.Fatalf("trial %d key %d: ordered walks differ in length %d vs %d",
					trial, k, len(wc), len(ws))
			}
			for i := range wc {
				if wc[i] != ws[i] {
					t.Fatalf("trial %d key %d pos %d: %+v vs %+v", trial, k, i, wc[i], ws[i])
				}
			}
			cc.SkipKey(k)
			cs.SkipKey(k)
		}
	}
}
