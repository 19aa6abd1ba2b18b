package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/lattice"
)

// Batch is an immutable, indexed batch of update triples: the unit of data
// in arranged streams and the building block of traces. Updates are stored
// column-wise, grouped by key, then by value, each value carrying its
// (time, diff) history.
//
// A history is two columns: Diffs, one per update, and Times. When every
// update of the batch is at one time — the common case once logical
// compaction has advanced a run's times to the readers' frontier — Times is
// empty and the batch stores that time once, in Time; otherwise Times holds
// one time per update and Time is zero. Read a time through UpdTime. Every
// constructor (BuildBatch, the merge builder, the block and WAL decoders)
// emits the one-time form whenever its times are all equal, so a one-time
// batch holds exactly one update per value.
//
// Lower and Upper delimit the times the batch is responsible for: it
// contains exactly the updates at times in advance of Lower and not in
// advance of Upper. Since records the compaction frontier the times have
// been advanced to (times are exact for readers at or beyond Since). A batch
// sequence with matching upper/lower frontiers is self-describing (§4.1).
//
// A batch with a non-empty AsOf is an as-of view (viewAsOf): it shares every
// column with the trace run it was taken from and presents that run's times
// advanced to AsOf. A view that presents one time is a one-time batch at
// that time; otherwise it shares the run's Times and the stream-side read
// paths — ForEach, ForKey, UpdTime, MinTimes — apply the advance as they
// read. A view travels on an arranged stream and nowhere else: it is never
// appended to a spine, logged or spilled.
type Batch[K, V any] struct {
	Lower, Upper, Since lattice.Frontier
	AsOf                lattice.Frontier

	Keys   []K
	KeyOff []int32 // len(Keys)+1; value range of key i is Vals[KeyOff[i]:KeyOff[i+1]]
	Vals   []V
	ValOff []int32 // len(Vals)+1; history of value j is Diffs[ValOff[j]:ValOff[j+1]]
	Diffs  []Diff
	Times  []lattice.Time // len(Diffs), or empty when every update is at Time
	Time   lattice.Time

	// minTimes caches MinTimes, computed once at construction (builders and
	// decoders stream the times anyway; SetMinTimes). Nil for
	// hand-assembled batches, which fall back to computing per call.
	minTimes []lattice.Time
}

// Len returns the number of update triples in the batch.
func (b *Batch[K, V]) Len() int { return len(b.Diffs) }

// Empty reports whether the batch carries no updates.
func (b *Batch[K, V]) Empty() bool { return len(b.Diffs) == 0 }

// NumKeys returns the number of distinct keys.
func (b *Batch[K, V]) NumKeys() int { return len(b.Keys) }

// ValRange returns the value index range for key index ki.
func (b *Batch[K, V]) ValRange(ki int) (int, int) {
	return int(b.KeyOff[ki]), int(b.KeyOff[ki+1])
}

// UpdRange returns the update index range for value index vi.
func (b *Batch[K, V]) UpdRange(vi int) (int, int) {
	return int(b.ValOff[vi]), int(b.ValOff[vi+1])
}

// SeekKey returns the index of the first key ≥ k at or after index from:
// a gallop over the keys.
func (b *Batch[K, V]) SeekKey(fn Funcs[K, V], k K, from int) int {
	return gallop(b.Keys, fn.LessK, k, from)
}

// SeekVal returns the index of the first value ≥ v within the half-open
// value index range [from, hi) — typically one key's ValRange: a gallop
// over the values, as SeekKey is over the keys.
func (b *Batch[K, V]) SeekVal(fn Funcs[K, V], v V, from, hi int) int {
	return gallop(b.Vals[:hi], fn.LessV, v, from)
}

// gallop returns the index of the first element of the sorted s that is
// ≥ x at or after index from. It probes exponentially growing steps from
// from before binary-searching the final window, so a forward-only cursor
// pays O(log distance) per seek rather than O(log remaining) — the access
// pattern of merge joins over sorted immutable runs.
func gallop[T any](s []T, less func(a, b T) bool, x T, from int) int {
	n := len(s)
	if from >= n || !less(s[from], x) {
		return from
	}
	// Invariant: s[from+bound/2] < x. Grow bound until the probe lands at
	// or beyond x (or past the end).
	bound := 1
	for from+bound < n && less(s[from+bound], x) {
		bound <<= 1
	}
	lo := from + bound/2 + 1
	hi := min(from+bound+1, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ForKey invokes f for every (val, time, diff) of key k, if present, with the
// times the batch presents (UpdTime), like ForEach.
func (b *Batch[K, V]) ForKey(fn Funcs[K, V], k K, f func(v V, t lattice.Time, d Diff)) {
	ki := b.SeekKey(fn, k, 0)
	if ki >= len(b.Keys) || !fn.EqK(b.Keys[ki], k) {
		return
	}
	lo, hi := b.ValRange(ki)
	for vi := lo; vi < hi; vi++ {
		v := b.Vals[vi]
		ul, uh := b.UpdRange(vi)
		for ui := ul; ui < uh; ui++ {
			f(v, b.UpdTime(ui), b.Diffs[ui])
		}
	}
}

// ForEach invokes f for every update triple in the batch, in (key, val,
// time) order.
func (b *Batch[K, V]) ForEach(f func(k K, v V, t lattice.Time, d Diff)) {
	for ki, k := range b.Keys {
		lo, hi := b.ValRange(ki)
		for vi := lo; vi < hi; vi++ {
			v := b.Vals[vi]
			ul, uh := b.UpdRange(vi)
			for ui := ul; ui < uh; ui++ {
				f(k, v, b.UpdTime(ui), b.Diffs[ui])
			}
		}
	}
}

// UpdTime returns the time of update ui as the batch presents it: the one
// time of a one-time batch, else the stored time, advanced to AsOf on a view.
func (b *Batch[K, V]) UpdTime(ui int) lattice.Time {
	if len(b.Times) == 0 {
		return b.Time
	}
	t := b.Times[ui]
	if !b.AsOf.Empty() {
		t, _ = lattice.Compact(t, b.AsOf)
	}
	return t
}

// viewAsOf returns a view of b as of the non-empty frontier asOf: a new batch
// header over b's own columns, with Since and AsOf set to asOf. Nothing is
// copied, sorted or consolidated — the cost is independent of b.Len() — so
// updates whose advanced times coincide stay separate entries that accumulate
// as one; consolidating them is the job of the trace's merges. The view's
// minimal times are the advance of b's: rep is monotone, so every advanced
// time is in advance of the advance of some minimal time.
//
// Often the view presents a single time, and then it is a one-time batch:
// a one-time run's view is one-time at rep(Time), at any depth. A run with
// several times is one-time as of asOf when oneTimeAsOf proves it from the
// run's bounds.
func (b *Batch[K, V]) viewAsOf(asOf lattice.Frontier) *Batch[K, V] {
	v := *b
	v.Since, v.AsOf = asOf, asOf
	switch {
	case b.Empty():
		return &v
	case len(b.Times) == 0:
		v.Time, _ = lattice.Compact(b.Time, asOf)
	case oneTimeAsOf(asOf, b.Upper, b.Since):
		v.Times, v.Time = nil, asOf.Elements()[0]
	}
	if len(v.Times) == 0 {
		v.minTimes = []lattice.Time{v.Time}
		return &v
	}
	var mins lattice.Frontier
	for _, t := range b.MinTimes() {
		rep, _ := lattice.Compact(t, asOf)
		mins.Insert(rep)
	}
	v.minTimes = mins.Elements()
	return &v
}

// oneTimeAsOf reports whether every time of a run framed by upper and
// since advances to the one element of f. It decides in constant time: with
// depth-1 times, f = {a}, upper = {u} and since = {s}, every stored time is
// below u or was advanced to s, so when u ≤ a and s ≤ a each is at most a
// and advances to exactly a (rep_{a}(t) = t ∨ a). Snapshot and merge
// frontiers join every run's since, but s ≤ a is checked, not assumed.
func oneTimeAsOf(f, upper, since lattice.Frontier) bool {
	if f.Len() != 1 || upper.Len() != 1 || since.Len() != 1 {
		return false
	}
	a := f.Elements()[0]
	return a.Depth() == 1 && upper.Elements()[0].LessEqual(a) && since.Elements()[0].LessEqual(a)
}

// MinTimes returns the antichain of minimal update times in the batch: the
// stamp its message carries in arranged streams. Constructed batches carry
// the answer precomputed; hand-assembled ones compute it per call.
func (b *Batch[K, V]) MinTimes() []lattice.Time {
	if b.minTimes != nil || b.Empty() {
		return b.minTimes
	}
	return b.computeMinTimes()
}

// SetMinTimes installs a MinTimes cache its caller computed: the batch
// payload decoder folds every time into the antichain as it decodes it (a
// block file's reader also cross-checks the result against the file's
// stored stats), so a second walk over the updates would only repeat the
// work. ts must be exactly the antichain of minimal update times.
func (b *Batch[K, V]) SetMinTimes(ts []lattice.Time) {
	b.minTimes = ts
}

// computeMinTimes finds the minimal antichain of the update times. A
// one-time batch answers at once; depth-1 times are totally ordered, so the
// common multi-time case is a single min scan with one small allocation
// instead of antichain insertion per update.
func (b *Batch[K, V]) computeMinTimes() []lattice.Time {
	if b.Empty() {
		return nil
	}
	if len(b.Times) == 0 {
		return []lattice.Time{b.Time}
	}
	if b.Times[0].Depth() == 1 {
		min := b.Times[0]
		for _, t := range b.Times[1:] {
			if t.TotalLess(min) {
				min = t
			}
		}
		return []lattice.Time{min}
	}
	var f lattice.Frontier
	for _, t := range b.Times {
		f.Insert(t)
	}
	return f.Elements()
}

// AppendUpd appends one update to the history columns, keeping the one-time
// form while every time is equal: the first time is stored once, and Times
// is made — backfilled with that time, at Diffs' capacity, in the storage
// an emptied Times still holds — only when a second distinct time arrives.
// A constructor that sizes Diffs' capacity to its update count so makes at
// most one time-column allocation, and a builder that empties its columns
// to reuse them (a streaming merge's flush) makes none after the first.
func (b *Batch[K, V]) AppendUpd(t lattice.Time, d Diff) {
	switch {
	case len(b.Times) > 0:
		b.Times = append(b.Times, t)
	case len(b.Diffs) == 0:
		b.Time = t
	case t != b.Time:
		b.Times = slices.Grow(b.Times[:0], cap(b.Diffs))[:len(b.Diffs)]
		for i := range b.Times {
			b.Times[i] = b.Time
		}
		b.Times = append(b.Times, t)
		b.Time = lattice.Time{}
	}
	b.Diffs = append(b.Diffs, d)
}

// SortUpdates sorts updates by (key, val, time-total-order) and coalesces
// entries with equal (key, val, time), dropping zero diffs. It returns the
// consolidated prefix.
//
// Funcs with kernels (Ordered, OrderedKey: u64 keys and values) sort in
// their kernel with every comparison inline (kernels.go): there the
// comparisons are the cost, and an Update of a few words moves cheaply.
// Every other Funcs sorts with sort.Slice: each comparison calls LessK and
// LessV anyway, and for wide values (TPC-H rows) its reflection swapper,
// which moves elements in place, beats slices.SortFunc's copies through
// temporaries.
func SortUpdates[K, V any](fn Funcs[K, V], upds []Update[K, V]) []Update[K, V] {
	if k := fn.kernels(); k != nil {
		return k.sortUpdates(upds)
	}
	sort.Slice(upds, func(i, j int) bool {
		return updLess(fn, &upds[i], &upds[j])
	})
	return coalesceSorted(fn, upds)
}

// updLess orders updates by (key, val, time-total-order).
func updLess[K, V any](fn Funcs[K, V], a, b *Update[K, V]) bool {
	if fn.LessK(a.Key, b.Key) {
		return true
	}
	if fn.LessK(b.Key, a.Key) {
		return false
	}
	if fn.LessV(a.Val, b.Val) {
		return true
	}
	if fn.LessV(b.Val, a.Val) {
		return false
	}
	return a.Time.TotalLess(b.Time)
}

// coalesceSorted merges equal (key, val, time) runs of a sorted slice,
// dropping zeros; it writes in place and returns the shortened slice.
func coalesceSorted[K, V any](fn Funcs[K, V], upds []Update[K, V]) []Update[K, V] {
	out := 0
	for i := 0; i < len(upds); {
		j := i + 1
		acc := upds[i].Diff
		for j < len(upds) && fn.EqK(upds[i].Key, upds[j].Key) &&
			fn.EqV(upds[i].Val, upds[j].Val) && upds[i].Time == upds[j].Time {
			acc += upds[j].Diff
			j++
		}
		if acc != 0 {
			upds[out] = upds[i]
			upds[out].Diff = acc
			out++
		}
		i = j
	}
	return upds[:out]
}

// BuildBatch consolidates updates (sorting them in place) and assembles the
// batch's columns. The updates must all be at times in advance of
// lower and not in advance of upper; this is checked.
//
// A counting pass over the sorted updates finds the distinct keys and
// values first, so every column is made once at its exact size instead of
// doubling its way up.
func BuildBatch[K, V any](fn Funcs[K, V], upds []Update[K, V],
	lower, upper, since lattice.Frontier) *Batch[K, V] {

	upds = SortUpdates(fn, upds)
	// opens reports what update i opens: a key and its first value (2), a
	// value under the same key (1), or neither (0). Sorted, a key or value
	// starts wherever it is greater than its predecessor's, so one Less
	// decides each boundary.
	opens := func(i int) int {
		switch {
		case i == 0 || fn.LessK(upds[i-1].Key, upds[i].Key):
			return 2
		case fn.LessV(upds[i-1].Val, upds[i].Val):
			return 1
		}
		return 0
	}
	nk, nv := 0, 0
	for i := range upds {
		switch opens(i) {
		case 2:
			nk++
			nv++
		case 1:
			nv++
		}
	}
	b := &Batch[K, V]{
		Lower: lower, Upper: upper, Since: since,
		Keys:   make([]K, 0, nk),
		KeyOff: make([]int32, 1, nk+1),
		Vals:   make([]V, 0, nv),
		ValOff: make([]int32, 1, nv+1),
		Diffs:  make([]Diff, 0, len(upds)),
	}
	// Times compacted toward a non-minimal since may legitimately land at or
	// beyond upper, so the upper containment check only applies to
	// uncompacted batches.
	checkUpper := sinceIsMinimal(since)
	for i := range upds {
		u := &upds[i]
		if !lower.LessEqual(u.Time) && !lower.Empty() {
			panic(fmt.Sprintf("core: update time %v not in advance of batch lower %v", u.Time, lower))
		}
		if checkUpper && upper.LessEqual(u.Time) {
			panic(fmt.Sprintf("core: update time %v in advance of batch upper %v", u.Time, upper))
		}
		opened := opens(i)
		if opened == 2 {
			b.Keys = append(b.Keys, u.Key)
			b.KeyOff = append(b.KeyOff, b.KeyOff[len(b.KeyOff)-1])
		}
		if opened > 0 {
			b.Vals = append(b.Vals, u.Val)
			b.ValOff = append(b.ValOff, b.ValOff[len(b.ValOff)-1])
			b.KeyOff[len(b.KeyOff)-1]++
		}
		b.AppendUpd(u.Time, u.Diff)
		b.ValOff[len(b.ValOff)-1]++
	}
	b.minTimes = b.computeMinTimes()
	return b
}

// sinceIsMinimal reports whether a compaction frontier is the minimum of its
// depth (no compaction has occurred).
func sinceIsMinimal(f lattice.Frontier) bool {
	if f.Len() != 1 {
		return false
	}
	t := f.Elements()[0]
	for i := 0; i < t.Depth(); i++ {
		if t.Coord(i) != 0 {
			return false
		}
	}
	return true
}

// EmptyBatch builds a batch with no updates covering [lower, upper).
func EmptyBatch[K, V any](lower, upper, since lattice.Frontier) *Batch[K, V] {
	return &Batch[K, V]{
		Lower: lower, Upper: upper, Since: since,
		KeyOff: []int32{0}, ValOff: []int32{0},
	}
}

// tupleCursor iterates a batch's updates as flat (key, val, time, diff)
// tuples in storage order, tracking the enclosing key and value indices.
type tupleCursor[K, V any] struct {
	b      *Batch[K, V]
	ki, vi int
	ui     int
}

func newTupleCursor[K, V any](b *Batch[K, V]) tupleCursor[K, V] {
	c := tupleCursor[K, V]{b: b}
	c.skipEmpty()
	return c
}

func (c *tupleCursor[K, V]) valid() bool { return c.ui < len(c.b.Diffs) }

func (c *tupleCursor[K, V]) next() {
	c.ui++
	c.skipEmpty()
}

// skipEmpty advances ki/vi so they enclose ui, skipping keys or values whose
// ranges are empty (possible only for malformed batches, but cheap to guard).
func (c *tupleCursor[K, V]) skipEmpty() {
	for c.vi < len(c.b.Vals) && int(c.b.ValOff[c.vi+1]) <= c.ui {
		c.vi++
	}
	for c.ki < len(c.b.Keys) && int(c.b.KeyOff[c.ki+1]) <= c.vi {
		c.ki++
	}
}
