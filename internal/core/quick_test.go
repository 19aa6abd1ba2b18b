package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
)

// TestQuickBatchAccumulation: for arbitrary update multisets, the built
// batch accumulates every (key, val) at every time exactly like the raw
// updates.
func TestQuickBatchAccumulation(t *testing.T) {
	fn := U64()
	f := func(raw []struct {
		K, V uint8
		T    uint8
		D    int8
	}) bool {
		upds := make([]Update[uint64, uint64], 0, len(raw))
		for _, r := range raw {
			if r.D == 0 {
				continue
			}
			upds = append(upds, Update[uint64, uint64]{
				Key: uint64(r.K % 8), Val: uint64(r.V % 4),
				Time: lattice.Ts(uint64(r.T % 6)), Diff: int64(r.D),
			})
		}
		all := append([]Update[uint64, uint64](nil), upds...)
		b := BuildBatch(fn, upds, lattice.MinFrontier(1),
			lattice.NewFrontier(lattice.Ts(6)), lattice.MinFrontier(1))
		for k := uint64(0); k < 8; k++ {
			for v := uint64(0); v < 4; v++ {
				for ti := uint64(0); ti < 6; ti++ {
					at := lattice.Ts(ti)
					var want, got Diff
					for _, u := range all {
						if u.Key == k && u.Val == v && u.Time.LessEqual(at) {
							want += u.Diff
						}
					}
					b.ForKey(fn, k, func(bv uint64, bt lattice.Time, d Diff) {
						if bv == v && bt.LessEqual(at) {
							got += d
						}
					})
					if want != got {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBatchSorted: batches are key-sorted with strictly increasing keys
// and val-sorted within keys.
func TestQuickBatchSorted(t *testing.T) {
	fn := U64()
	f := func(raw []uint16) bool {
		upds := make([]Update[uint64, uint64], len(raw))
		for i, r := range raw {
			upds[i] = Update[uint64, uint64]{
				Key: uint64(r >> 8), Val: uint64(r & 0xff),
				Time: lattice.Ts(0), Diff: 1,
			}
		}
		b := BuildBatch(fn, upds, lattice.MinFrontier(1),
			lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1))
		for i := 1; i < len(b.Keys); i++ {
			if !fn.LessK(b.Keys[i-1], b.Keys[i]) {
				return false
			}
		}
		for ki := 0; ki < b.NumKeys(); ki++ {
			lo, hi := b.ValRange(ki)
			for vi := lo + 1; vi < hi; vi++ {
				if !b.Vals.Less(fn.LessV, vi-1, &b.Vals, vi) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpineRandomOps: a randomized sequence of appends, fueled work, handle
// frontier advances, and recompactions always preserves accumulation at
// observable times, for every merge coefficient.
func TestSpineRandomOps(t *testing.T) {
	fn := U64()
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		coef := []int{MergeLazy, MergeDefault, MergeEager}[trial%3]
		s := NewSpine[uint64, uint64](fn, coef)
		h := s.NewHandle()
		var all []Update[uint64, uint64]
		lower := lattice.MinFrontier(1)
		var observeAfter uint64 // logical frontier position
		for epoch := uint64(0); epoch < 40; epoch++ {
			upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
			var upds []Update[uint64, uint64]
			for n := 0; n < r.Intn(8); n++ {
				u := u64upd(uint64(r.Intn(6)), uint64(r.Intn(3)),
					lattice.Ts(epoch), int64(r.Intn(7)-3))
				if u.Diff == 0 {
					continue
				}
				upds = append(upds, u)
				all = append(all, u)
			}
			s.Append(BuildBatch(fn, upds, lower, upper, h.Logical().Clone()))
			lower = upper
			switch r.Intn(4) {
			case 0:
				s.Work(r.Intn(200))
			case 1:
				// Advance the reader's logical frontier (only forward).
				if epoch > observeAfter {
					observeAfter = epoch
					h.SetLogical(lattice.NewFrontier(lattice.Ts(epoch)))
				}
			case 2:
				s.Recompact()
			}
		}
		// Observe at times in advance of the reader frontier.
		for probe := observeAfter; probe <= 40; probe += 3 {
			at := lattice.Ts(probe)
			for k := uint64(0); k < 6; k++ {
				for v := uint64(0); v < 3; v++ {
					want := accumulate(all, k, v, at)
					got := spineAccumulate(h, k, v, at)
					if want != got {
						t.Fatalf("trial %d coef %d (k=%d v=%d)@%v: got %d want %d",
							trial, coef, k, v, at, got, want)
					}
				}
			}
		}
	}
}

// TestQuickCompactFrontierProject: ProjectFrontier of a shifted frontier is
// the identity, and ShiftTime round-trips through Leave.
func TestQuickCompactFrontierProject(t *testing.T) {
	f := func(a, b uint8, n uint8) bool {
		shift := int(n%2) + 1
		tm := lattice.Ts(uint64(a), uint64(b))
		shifted := ShiftTime(tm, shift)
		if shifted.Depth() != tm.Depth()+shift {
			return false
		}
		back := shifted
		for i := 0; i < shift; i++ {
			back = back.Leave()
		}
		if back != tm {
			return false
		}
		fr := lattice.NewFrontier(tm)
		var sf lattice.Frontier
		for _, e := range fr.Elements() {
			sf.Insert(ShiftTime(e, shift))
		}
		return ProjectFrontier(sf, shift).Equal(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSpineBatchContiguity: visible batches always tile time contiguously
// (each upper equals the next lower), under any maintenance schedule.
func TestSpineBatchContiguity(t *testing.T) {
	fn := U64()
	r := rand.New(rand.NewSource(77))
	s := NewSpine[uint64, uint64](fn, MergeDefault)
	_ = s.NewHandle()
	lower := lattice.MinFrontier(1)
	for epoch := uint64(0); epoch < 60; epoch++ {
		upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
		var upds []Update[uint64, uint64]
		for n := 0; n < r.Intn(5); n++ {
			upds = append(upds, u64upd(uint64(r.Intn(10)), 0, lattice.Ts(epoch), 1))
		}
		s.Append(BuildBatch(fn, upds, lower, upper, lattice.MinFrontier(1)))
		lower = upper
		s.Work(r.Intn(100))
		vis := s.Runs()
		for i := 1; i < len(vis); i++ {
			_, prevUpper, _ := vis[i-1].Bounds()
			lower, _, _ := vis[i].Bounds()
			if !prevUpper.Equal(lower) {
				t.Fatalf("epoch %d: batch %d upper %v != batch %d lower %v",
					epoch, i-1, prevUpper, i, lower)
			}
		}
	}
}

// TestHandleDroppedExcludedFromFrontiers: dropped handles no longer
// constrain compaction.
func TestHandleDroppedExcludedFromFrontiers(t *testing.T) {
	fn := U64()
	s := NewSpine[uint64, uint64](fn, MergeDefault)
	h1 := s.NewHandle()
	h2 := s.NewHandle()
	h2.SetLogical(lattice.NewFrontier(lattice.Ts(100)))
	if got := s.logicalFrontier(); !got.LessEqual(lattice.Ts(0)) {
		t.Fatalf("h1 at minimum must hold compaction back: %v", got)
	}
	h1.Drop()
	if got := s.logicalFrontier(); got.LessEqual(lattice.Ts(50)) {
		t.Fatalf("after dropping h1, frontier should be h2's: %v", got)
	}
}
