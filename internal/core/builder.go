package core

import (
	"fmt"
	"sort"

	"repro/internal/lattice"
)

// batchBuilder assembles a batch directly in its columnar representation from
// update tuples arriving in (key, val, time-total-order) order — the emission
// order of k-way merges over sorted batches. Spine merges feed it one tuple
// at a time and it groups, coalesces, and bulk-copies in place, replacing the
// old materialize-into-[]Update-then-BuildBatch path that copied every wide
// tuple twice and re-sorted an already sorted sequence.
//
// Values copy lazily: an open group holds only a (store, index) reference
// into its source batch, and the value moves — through ValStore.AppendRange,
// column-by-column for columnar layouts — only once its coalesced history
// turns out non-empty. Churn that cancels below the compaction frontier is
// compared and dropped without ever copying the wide tuple.
//
// The merge order also makes group detection one-sided: the open group's key
// and value are ≤ every later tuple's, so a single LessK/Less decides "same
// group or new" (equality needs no second compare).
//
// A builder with an output writer streams: each time a closed key brings the
// assembled columns to the writer's block size, they go to the writer as one
// key-aligned block and are reused for the next, so the output is never
// resident whole — the block split is the one Spill applies to a whole batch.
type batchBuilder[K, V any] struct {
	fn                  Funcs[K, V]
	kern                kernels[K, V] // fn's kernels, or nil
	b                   *Batch[K, V]  // the output, or its open block when streaming
	lower, upper, since lattice.Frontier

	out      RunWriter[K, V] // nil: the output stays resident
	flushAt  int             // out's block size
	flushed  bool            // some block has gone to out
	maxBlock int64           // largest block handed to out (ApproxBytes)

	openKey  bool
	openVal  bool
	keyVals  int          // value groups kept under the open key
	srcVals  *ValStore[V] // pending value: source store ...
	srcVi    int          // ... and index (copied only if the group survives)
	tds      []TimeDiff   // pending history of the open value
	unsorted bool         // compaction reordered the pending history
}

// newBatchBuilder starts the output of a merge framed by (lower, upper,
// since). With out nil the output is assembled resident, sized for capHint
// updates; otherwise it streams to out a block at a time.
func newBatchBuilder[K, V any](fn Funcs[K, V], lower, upper, since lattice.Frontier,
	capHint int, out RunWriter[K, V]) *batchBuilder[K, V] {

	bl := &batchBuilder[K, V]{fn: fn, kern: fn.kernels(), lower: lower, upper: upper, since: since, out: out}
	if out != nil {
		bl.flushAt = out.BlockUpdates()
		capHint = bl.flushAt
	}
	b := &Batch[K, V]{
		KeyOff: []int32{0},
		ValOff: []int32{0},
	}
	b.Vals = fn.newStore(capHint)
	if capHint > 0 {
		b.Diffs = make([]Diff, 0, capHint)
	}
	bl.b = b
	return bl
}

// push appends one update whose key and value live at (ki, vi) of src.
// Tuples must arrive in nondecreasing (key, val) order; times within one
// (key, val) group may arrive out of total order (compaction can reorder
// multidimensional times), which close-time sorting repairs per group.
func (bl *batchBuilder[K, V]) push(src *Batch[K, V], ki, vi int, td TimeDiff) {
	var opens int
	if bl.kern != nil {
		opens = bl.kern.opens(bl, src, ki, vi)
	} else {
		opens = bl.opens(src, ki, vi)
	}
	switch opens {
	case 2:
		bl.closeVal()
		bl.closeKey()
		bl.b.Keys = append(bl.b.Keys, src.Keys[ki])
		bl.openKey = true
	case 1:
		bl.closeVal()
	}
	if !bl.openVal {
		bl.srcVals, bl.srcVi = &src.Vals, vi
		bl.openVal = true
	}
	if len(bl.tds) > 0 && td.Time.TotalLess(bl.tds[len(bl.tds)-1].Time) {
		bl.unsorted = true
	}
	bl.tds = append(bl.tds, td)
}

// opens reports what the tuple at key ki and value vi of src opens: a key
// (2), a value of the open key (1) or neither (0). The open key and value
// are ≤ the tuple's, so one Less decides each.
func (bl *batchBuilder[K, V]) opens(src *Batch[K, V], ki, vi int) int {
	switch {
	case !bl.openKey || bl.fn.LessK(bl.b.Keys[len(bl.b.Keys)-1], src.Keys[ki]):
		return 2
	case bl.openVal && bl.srcVals.Less(bl.fn.LessV, bl.srcVi, &src.Vals, vi):
		return 1
	}
	return 0
}

// closeVal seals the open value group: sort the history if compaction
// disturbed it, coalesce equal times, drop zeros, and copy the value from
// its source store only when something survives.
func (bl *batchBuilder[K, V]) closeVal() {
	if !bl.openVal {
		return
	}
	bl.openVal = false
	if bl.unsorted {
		sort.Slice(bl.tds, func(i, j int) bool {
			return bl.tds[i].Time.TotalLess(bl.tds[j].Time)
		})
		bl.unsorted = false
	}
	b := bl.b
	before := len(b.Diffs)
	for i := 0; i < len(bl.tds); {
		j := i + 1
		acc := bl.tds[i].Diff
		for j < len(bl.tds) && bl.tds[j].Time == bl.tds[i].Time {
			acc += bl.tds[j].Diff
			j++
		}
		if acc != 0 {
			b.AppendUpd(bl.tds[i].Time, acc)
		}
		i = j
	}
	bl.tds = bl.tds[:0]
	if len(b.Diffs) == before {
		return // the history cancelled entirely: the value never copies
	}
	b.Vals.AppendRange(bl.srcVals, bl.srcVi, bl.srcVi+1)
	b.ValOff = append(b.ValOff, int32(len(b.Diffs)))
	bl.keyVals++
}

// closeKey seals the open key, retracting it when every value cancelled.
// A streaming builder hands the columns over once they reach a block.
func (bl *batchBuilder[K, V]) closeKey() {
	if !bl.openKey {
		return
	}
	bl.openKey = false
	b := bl.b
	if bl.keyVals == 0 {
		b.Keys = b.Keys[:len(b.Keys)-1]
		return
	}
	b.KeyOff = append(b.KeyOff, int32(b.Vals.Len()))
	bl.keyVals = 0
	if bl.out != nil && len(b.Diffs) >= bl.flushAt {
		bl.flush()
	}
}

// flush writes the assembled block to the output writer and empties the
// columns for the next one, keeping their capacity.
func (bl *batchBuilder[K, V]) flush() {
	b := bl.b
	bl.check()
	bl.maxBlock = max(bl.maxBlock, b.ApproxBytes())
	if err := bl.out.Append(b); err != nil {
		panic("core: spill store write: " + err.Error())
	}
	bl.flushed = true
	b.Keys = b.Keys[:0]
	b.KeyOff = b.KeyOff[:1]
	b.Vals.Reset()
	b.ValOff = b.ValOff[:1]
	b.Diffs = b.Diffs[:0]
	b.Times = b.Times[:0]
	b.Time = lattice.Time{}
	b.minTimes = nil
}

// check caches the assembled histories' minimal times and re-checks
// BuildBatch's containment invariants over them, so a compaction or cursor
// bug still panics at the merge instead of leaking a malformed batch into
// the spine (and the WAL, or a block file). Every time is in advance of
// some minimal one, so the lower bound needs checking only against those;
// an uncompacted output checks every time against its upper.
func (bl *batchBuilder[K, V]) check() {
	b := bl.b
	b.minTimes = b.computeMinTimes()
	if !bl.lower.Empty() {
		for _, t := range b.minTimes {
			if !bl.lower.LessEqual(t) {
				panic(fmt.Sprintf("core: merged update time %v not in advance of batch lower %v", t, bl.lower))
			}
		}
	}
	if sinceIsMinimal(bl.since) {
		for ui := range b.Diffs {
			if t := b.UpdTime(ui); bl.upper.LessEqual(t) {
				panic(fmt.Sprintf("core: merged update time %v in advance of batch upper %v", t, bl.upper))
			}
		}
	}
}

// finish seals any open groups and returns the merged run: a resident batch
// stamped with the framing frontiers, or — once a streaming builder has
// written a block — the cold run its writer finishes. A streaming merge
// whose whole output fits below one block stays resident, so the writer
// never creates a file for it.
func (bl *batchBuilder[K, V]) finish() BatchReader[K, V] {
	bl.closeVal()
	bl.closeKey()
	if !bl.flushed {
		bl.check()
		b := bl.b
		b.Lower, b.Upper, b.Since = bl.lower, bl.upper, bl.since
		return b
	}
	if len(bl.b.Keys) > 0 {
		bl.flush()
	}
	r, err := bl.out.Finish(bl.lower, bl.upper, bl.since)
	if err != nil {
		panic("core: spill store write: " + err.Error())
	}
	return r
}
