package block

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

type u64upd = core.Update[uint64, uint64]

// checkDecodedForm checks that b presents exactly want and stores one time
// exactly when it is non-empty and presents one, and then holds exactly one
// update per value: the form core's constructors emit (core's
// TestOneTimeFormAcrossConstructors), held here for the block decoder.
func checkDecodedForm(t *testing.T, what string, b *core.Batch[uint64, uint64], want []u64upd) {
	t.Helper()
	var got []u64upd
	b.ForEach(func(k, v uint64, tm lattice.Time, d core.Diff) {
		got = append(got, u64upd{Key: k, Val: v, Time: tm, Diff: d})
	})
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s presents\n%v\nwant\n%v", what, got, want)
	}
	oneTime := len(got) > 0
	for _, u := range got {
		oneTime = oneTime && u.Time == got[0].Time
	}
	switch {
	case len(b.Times) != 0 && len(b.Times) != len(b.Diffs):
		t.Fatalf("%s holds %d times for %d diffs", what, len(b.Times), len(b.Diffs))
	case (len(b.Times) == 0) != oneTime && len(got) > 0:
		t.Fatalf("%s stores %d times, presents one time: %v", what, len(b.Times), oneTime)
	case oneTime && len(b.Vals) != b.Len():
		t.Fatalf("%s is one-time with %d updates for %d values", what, b.Len(), len(b.Vals))
	}
}

// randFormRuns draws a chain of u64/u64 runs, run i over epochs [2i, 2i+2):
// times at depth 1, 2 or 3, with or without retractions, with one time per
// run or several.
func randFormRuns(r *rand.Rand) (depth int, runs [][]u64upd) {
	depth = 1 + r.Intn(3)
	oneTime, retract := r.Intn(2) == 0, r.Intn(2) == 0
	for i := 1 + r.Intn(4); i > 0; i-- {
		e := 2 * uint64(len(runs))
		var upds []u64upd
		for n := 1 + r.Intn(60); n > 0; n-- {
			tm := []uint64{e + uint64(r.Intn(2)), uint64(r.Intn(3)), uint64(r.Intn(2))}[:depth]
			if oneTime {
				tm = []uint64{e, 0, 0}[:depth]
			}
			d := int64(1 + r.Intn(2))
			if retract && r.Intn(3) == 0 {
				d = -d
			}
			upds = append(upds, u64upd{Key: uint64(r.Intn(12)), Val: uint64(r.Intn(4)), Time: lattice.Ts(tm...), Diff: d})
		}
		runs = append(runs, upds)
	}
	return depth, runs
}

// depthFrontier returns {(e, 0, ...)} at depth.
func depthFrontier(depth int, e uint64) lattice.Frontier {
	return lattice.NewFrontier(lattice.Ts([]uint64{e, 0, 0}[:depth]...))
}

// explicitForm is runs' updates with every time advanced to since,
// consolidated and sorted.
func explicitForm(since lattice.Frontier, runs ...[]u64upd) []u64upd {
	var all []u64upd
	for _, run := range runs {
		for _, u := range run {
			u.Time, _ = lattice.Compact(u.Time, since)
			all = append(all, u)
		}
	}
	return core.SortUpdates(core.U64(), all)
}

// checkColdForm checks every segment of the cold run r and its Unspill
// against want, the run's explicit form.
func checkColdForm(t *testing.T, what string, st *Store[uint64, uint64], r core.BatchReader[uint64, uint64], want []u64upd) {
	t.Helper()
	off := 0
	for i := 0; ; i++ {
		seg, err := st.Segment(r, i)
		if err != nil {
			t.Fatal(err)
		}
		if seg == nil {
			break
		}
		if off+seg.Len() > len(want) {
			t.Fatalf("%s: segment %d runs past the run's %d updates", what, i, len(want))
		}
		checkDecodedForm(t, fmt.Sprintf("%s segment %d", what, i), seg, want[off:off+seg.Len()])
		off += seg.Len()
	}
	if off != len(want) {
		t.Fatalf("%s: segments hold %d of %d updates", what, off, len(want))
	}
	b, err := st.Unspill(r)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodedForm(t, what+" unspilled", b, want)
}

// TestOneTimeFormDecoded: a spilled run read back by Segment and by
// Unspill, and the cold output of a streaming merge, present the explicit
// form of their updates and store one time exactly when they present one.
// Eight-update blocks split runs, so a block of a run with several times
// can hold one time, and a whole run's time column is made on the block
// where a second time first appears. Each run is also logged to a shard
// log: the batch payload is one encoding, so the replayed batch, the
// unspilled run and the original are one batch, down to the Times column a
// one-time batch leaves empty.
func TestOneTimeFormDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	fn := core.U64()
	var oneTime, several, cold int
	for iter := 0; iter < 300; iter++ {
		depth, runs := randFormRuns(r)
		st, err := Open[uint64, uint64](t.TempDir(), fn, nil, wal.U64Codec(), StoreOptions{BlockUpdates: 8})
		if err != nil {
			t.Fatal(err)
		}
		logDir := t.TempDir()
		lg, _, err := wal.OpenShard[uint64, uint64](logDir, wal.U64Codec(), wal.U64Codec(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		desc := fmt.Sprintf("iter %d (depth %d)", iter, depth)
		min := lattice.MinFrontier(depth)
		var logged, unspilled []*core.Batch[uint64, uint64]
		for i, run := range runs {
			upds := append([]u64upd(nil), run...)
			b := core.BuildBatch(fn, upds, depthFrontier(depth, 2*uint64(i)), depthFrontier(depth, 2*uint64(i)+2), min)
			if len(b.Times) == 0 {
				oneTime++
			} else {
				several++
			}
			if err := lg.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
			cold, err := st.Spill(b)
			if err != nil {
				t.Fatal(err)
			}
			checkColdForm(t, fmt.Sprintf("%s run %d", desc, i), st, cold, explicitForm(min, run))
			u, err := st.Unspill(cold)
			if err != nil {
				t.Fatal(err)
			}
			logged, unspilled = append(logged, b), append(unspilled, u)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		lg, replay, err := wal.OpenShard[uint64, uint64](logDir, wal.U64Codec(), wal.U64Codec(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if len(replay.Batches) != len(logged) {
			t.Fatalf("%s: replayed %d of %d logged runs", desc, len(replay.Batches), len(logged))
		}
		for i, b := range logged {
			if !reflect.DeepEqual(replay.Batches[i], b) {
				t.Fatalf("%s run %d: replayed\n%+v\nlogged\n%+v", desc, i, replay.Batches[i], b)
			}
			if !reflect.DeepEqual(unspilled[i], b) {
				t.Fatalf("%s run %d: unspilled\n%+v\nspilled\n%+v", desc, i, unspilled[i], b)
			}
		}

		// A spine that spills everything: merges read cold inputs and stream
		// their output to disk.
		s := core.NewSpine(fn, core.MergeDefault)
		s.SetUpperDepth(depth)
		s.SetSpill(st, 0)
		since := depthFrontier(depth, uint64(r.Intn(2*len(runs)+2)))
		s.NewHandle().SetLogical(since)
		for i, run := range runs {
			upds := append([]u64upd(nil), run...)
			s.Append(core.BuildBatch(fn, upds, depthFrontier(depth, 2*uint64(i)), depthFrontier(depth, 2*uint64(i)+2), min))
		}
		s.Recompact()
		want := explicitForm(since, runs...)
		merged := s.Runs()[0]
		if b, resident := merged.(*core.Batch[uint64, uint64]); resident {
			checkDecodedForm(t, desc+" merged", b, want)
		} else {
			cold++
			checkColdForm(t, desc+" merged", st, merged, want)
		}
	}
	t.Logf("%d one-time runs, %d with several times, %d recompacted to a cold run", oneTime, several, cold)
	if oneTime < 100 || several < 100 || cold < 100 {
		t.Fatal("the draw is too narrow")
	}
}
