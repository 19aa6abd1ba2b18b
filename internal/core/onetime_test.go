package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/lattice"
)

// formChain is a random chain of runs drawn for the one-time property
// tests: depth-1 or depth-2 times, with or without retractions, with one
// time per run or several. Run i covers epochs [2i, 2i+2).
type formChain struct {
	depth int
	runs  [][]Update[uint64, uint64]
}

func randFormChain(r *rand.Rand) formChain {
	c := formChain{depth: 1 + r.Intn(2)}
	oneTime, retract := r.Intn(2) == 0, r.Intn(2) == 0
	for i := 1 + r.Intn(4); i > 0; i-- {
		e := 2 * uint64(len(c.runs))
		var upds []Update[uint64, uint64]
		for n := 1 + r.Intn(40); n > 0; n-- {
			tm := []uint64{e + uint64(r.Intn(2)), uint64(r.Intn(3))}[:c.depth]
			if oneTime {
				tm = []uint64{e, 0}[:c.depth]
			}
			d := int64(1 + r.Intn(2))
			if retract && r.Intn(3) == 0 {
				d = -d
			}
			upds = append(upds, u64upd(uint64(r.Intn(6)), uint64(r.Intn(4)), lattice.Ts(tm...), d))
		}
		c.runs = append(c.runs, upds)
	}
	return c
}

// frontier returns the depth's frontier {(e, 0, ...)}.
func (c formChain) frontier(e uint64) lattice.Frontier {
	return lattice.NewFrontier(lattice.Ts([]uint64{e, 0}[:c.depth]...))
}

// batch builds run i.
func (c formChain) batch(i int) *Batch[uint64, uint64] {
	upds := append([]Update[uint64, uint64](nil), c.runs[i]...)
	return BuildBatch(U64(), upds, c.frontier(2*uint64(i)), c.frontier(2*uint64(i)+2), lattice.MinFrontier(c.depth))
}

// explicit is the explicit form of runs' updates as of since: each time
// advanced to since, consolidated and sorted.
func explicit(since lattice.Frontier, runs ...[]Update[uint64, uint64]) []Update[uint64, uint64] {
	var all []Update[uint64, uint64]
	for _, run := range runs {
		for _, u := range run {
			u.Time, _ = lattice.Compact(u.Time, since)
			all = append(all, u)
		}
	}
	return SortUpdates(U64(), all)
}

// presented lists the (key, value, time, diff) sequence b presents.
func presented(b *Batch[uint64, uint64]) []Update[uint64, uint64] {
	var got []Update[uint64, uint64]
	b.ForEach(func(k, v uint64, t lattice.Time, d Diff) {
		got = append(got, Update[uint64, uint64]{Key: k, Val: v, Time: t, Diff: d})
	})
	return got
}

// checkForm checks that b presents exactly want and holds its times in the
// form its constructor must emit: Times empty exactly when b is non-empty
// and every presented time is equal, and then exactly one update per value.
// A view (consolidated false) neither consolidates nor scans its times, so
// for it only "Times empty ⇒ one time" holds.
func checkForm(t *testing.T, what string, b *Batch[uint64, uint64], want []Update[uint64, uint64], consolidated bool) {
	t.Helper()
	got := presented(b)
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
	case len(b.Times) == 0 && len(got) > 0 && !oneTime:
		t.Fatalf("%s stores one time but presents several: %v", what, got)
	case consolidated && len(b.Times) > 0 && oneTime:
		t.Fatalf("%s stores %d copies of its one time %v", what, len(b.Times), got[0].Time)
	case consolidated && len(b.Times) == 0 && b.Vals.Len() != b.Len():
		t.Fatalf("%s is one-time with %d updates for %d values", what, b.Len(), b.Vals.Len())
	}
}

// mergedChain appends the chain's runs to a spine whose one reader holds
// its logical frontier at since, recompacts it and returns the one run
// left.
func mergedChain(c formChain, since lattice.Frontier) *Batch[uint64, uint64] {
	s := NewSpine(U64(), MergeDefault)
	s.SetUpperDepth(c.depth)
	s.NewHandle().SetLogical(since)
	for i := range c.runs {
		s.Append(c.batch(i))
	}
	s.Recompact()
	return s.Runs()[0].(*Batch[uint64, uint64])
}

// TestOneTimeFormAcrossConstructors: BuildBatch, a resident merge and an
// as-of view each present the explicit form of their updates, and store one
// time exactly when they present one. The block decoders, the streaming
// merge and the WAL decoder are held to the same checks in their packages.
func TestOneTimeFormAcrossConstructors(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	var oneTime, several, proved int
	for iter := 0; iter < 2000; iter++ {
		c := randFormChain(r)
		end := 2 * uint64(len(c.runs))
		desc := fmt.Sprintf("iter %d (depth %d, %d runs)", iter, c.depth, len(c.runs))
		for i := range c.runs {
			b := c.batch(i)
			checkForm(t, desc+": BuildBatch", b, explicit(lattice.MinFrontier(c.depth), c.runs[i]), true)
			if len(b.Times) == 0 {
				oneTime++
			} else {
				several++
			}
		}
		since := c.frontier(uint64(r.Intn(int(end) + 2)))
		checkForm(t, desc+": merge as of "+fmt.Sprint(since), mergedChain(c, since), explicit(since, c.runs...), true)

		b := c.batch(r.Intn(len(c.runs)))
		asOf := c.frontier(uint64(r.Intn(int(end) + 2)))
		view := b.viewAsOf(asOf)
		var want []Update[uint64, uint64]
		for _, u := range presented(b) {
			u.Time, _ = lattice.Compact(u.Time, asOf)
			want = append(want, u)
		}
		checkForm(t, desc+": view as of "+fmt.Sprint(asOf), view, want, false)
		if len(b.Times) > 0 && oneTimeAsOf(asOf, b.Upper, b.Since) {
			proved++
			if len(view.Times) != 0 {
				t.Fatalf("%s: view as of %v of a run proved one-time keeps its times", desc, asOf)
			}
		}
	}
	t.Logf("%d one-time runs, %d with several times, %d proved views", oneTime, several, proved)
	if oneTime < 500 || several < 500 || proved < 100 {
		t.Fatal("the draw is too narrow")
	}
}

// TestOneTimeBatchHistoryBytes: a one-time batch's history costs a diff per
// update; a batch with two times also stores a time per update.
func TestOneTimeBatchHistoryBytes(t *testing.T) {
	const n = 1000
	build := func(times int) *Batch[uint64, uint64] {
		upds := make([]Update[uint64, uint64], n)
		for i := range upds {
			upds[i] = u64upd(uint64(i), 0, lattice.Ts(uint64(i%times)), 1)
		}
		return BuildBatch(U64(), upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
	}
	// Keys (8 B each), their offsets and the values' (4 B each) and the
	// values (8 B each) are what the batch holds besides its history.
	structure := int64(n*8 + (n+1)*4 + (n+1)*4 + n*8)
	for _, c := range []struct {
		times   int
		history int64
	}{{1, 8}, {2, 24}} {
		b := build(c.times)
		if got := (b.ApproxBytes() - structure) / n; got != c.history {
			t.Errorf("%d time(s): %d B of history per update, want %d", c.times, got, c.history)
		}
	}
	if unsafe.Sizeof(Diff(0)) != 8 || unsafe.Sizeof(lattice.Time{}) != 16 {
		t.Fatal("a diff is not 8 bytes or a time not 16")
	}
}
