package wal

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
)

// TestOneTimeFormDecoded: a batch record decodes to the batch that was
// logged, in the same form — Times empty exactly when the batch is
// non-empty and every update is at one time — whether it was built at one
// time or several, at depth 1 or 2, with or without retractions.
func TestOneTimeFormDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	var oneTime, several int
	for iter := 0; iter < 500; iter++ {
		depth := 1 + r.Intn(2)
		one, retract := r.Intn(2) == 0, r.Intn(2) == 0
		var upds []core.Update[uint64, uint64]
		for n := r.Intn(40); n > 0; n-- {
			tm := []uint64{uint64(r.Intn(2)), uint64(r.Intn(3))}[:depth]
			if one {
				tm = []uint64{1, 0}[:depth]
			}
			d := int64(1 + r.Intn(2))
			if retract && r.Intn(3) == 0 {
				d = -d
			}
			upds = append(upds, core.Update[uint64, uint64]{Key: uint64(r.Intn(8)), Val: uint64(r.Intn(4)), Time: lattice.Ts(tm...), Diff: d})
		}
		min := lattice.MinFrontier(depth)
		upper := lattice.NewFrontier(lattice.Ts([]uint64{2, 0}[:depth]...))
		b := core.BuildBatch(core.U64(), upds, min, upper, min)

		got, err := u64Batches.readBatch(NewDec(u64Batches.encodeBatch(nil, b)))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("iter %d: decoded\n%+v\nlogged\n%+v", iter, got, b)
		}
		times := map[lattice.Time]bool{}
		got.ForEach(func(_, _ uint64, tm lattice.Time, _ core.Diff) { times[tm] = true })
		switch {
		case len(times) == 1 && len(got.Times) == 0:
			oneTime++
		case len(times) > 1 && len(got.Times) == got.Len():
			several++
		case len(times) > 0:
			t.Fatalf("iter %d: %d distinct times, %d stored for %d updates", iter, len(times), len(got.Times), got.Len())
		}
	}
	if oneTime < 100 || several < 100 {
		t.Fatalf("%d one-time and %d multi-time batches: the draw is too narrow", oneTime, several)
	}
}
