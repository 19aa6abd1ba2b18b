package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/lattice"
)

// Merge effort coefficients for the paper's Figure 6e configurations. The
// coefficient multiplies the size of each inserted batch to produce the fuel
// Append applies to in-progress merges. That fuel alone does not keep a
// spine's runs logarithmic: Work spends one budget on the merges oldest
// first, so a spine driven only by Append falls behind under a stream of
// small seals. The arrange operator adds its per-schedule maintenance fuel
// (TraceAgent.Work) and is re-scheduled while merges are owed, which keeps
// the runs a cursor reads logarithmic in the updates sealed
// (TestSpineMergeWorkIsLogarithmic).
const (
	MergeLazy    = 1
	MergeDefault = 2
	MergeEager   = 1 << 30
)

// Spine is a collection trace: a time-ordered sequence of immutable batches
// maintained compactly by amortized (fueled) merging of adjacent batches of
// comparable size, with consolidation of times indistinguishable to all
// readers (logical compaction) performed during merges. Spines are strictly
// worker-local: no locking, exactly as in the paper (sharing never crosses
// worker boundaries).
type Spine[K, V any] struct {
	fn      Funcs[K, V]
	kern    kernels[K, V]      // fn's kernels, or nil
	entries []spineEntry[K, V] // oldest first; adjacent uppers/lowers match
	handles []*Handle[K, V]
	coef    int
	depth   int
	upper   lattice.Frontier // through which batches have been appended

	// cold tier (nil spill = purely resident; see SetSpill)
	spill       SpillStore[K, V]
	maxResident int64
	maxBlock    int64 // largest block a finished merge read or wrote (Residency)

	// stats
	MergesStarted   int
	MergesCompleted int
	UpdatesMerged   int
	RunsSpilled     int
}

// spineEntry is one slot of the spine: a completed resident batch, a
// completed run spilled to the cold tier, or an in-progress merge. Exactly
// one field is non-nil. Spilling changes only where a run's columns live —
// a cold entry keeps its length and frontiers resident (served by the
// reader without I/O), so maintenance decisions, merge structure and fuel
// consumption are identical to a spine that never spilled.
type spineEntry[K, V any] struct {
	batch *Batch[K, V]      // non-nil when completed and resident
	cold  BatchReader[K, V] // non-nil when completed and spilled
	merge *mergeState[K, V] // non-nil while merging a run of batches
}

// done reports whether the entry is a completed run (resident or cold).
func (e *spineEntry[K, V]) done() bool { return e.merge == nil }

// size returns the update count of a completed entry.
func (e *spineEntry[K, V]) size() int {
	if e.batch != nil {
		return e.batch.Len()
	}
	return e.cold.Len()
}

// lowerF and upperF return a completed entry's framing frontiers.
func (e *spineEntry[K, V]) lowerF() lattice.Frontier {
	if e.batch != nil {
		return e.batch.Lower
	}
	lower, _, _ := e.cold.Bounds()
	return lower
}

func (e *spineEntry[K, V]) upperF() lattice.Frontier {
	if e.batch != nil {
		return e.batch.Upper
	}
	_, upper, _ := e.cold.Bounds()
	return upper
}

// mergeState is one in-progress, fueled k-way merge of a run of time-adjacent
// batches. Merging a whole geometric run at once (instead of cascading 2-way
// merges) writes each update once per maintenance round rather than once per
// level it bubbles through. Output goes straight into a batchBuilder: tuples
// pop in (key, val, time) order, so the merged batch assembles column-by-
// column in place — no []Update materialization and no re-sort of an already
// sorted sequence, and wide values move as column words rather than structs.
//
// Each input is a sequence of key-aligned segments. A resident input is one
// segment, the batch itself; a cold input is its blocks, each decoded when
// the previous one runs out, so the merge holds one block per cold input
// and the cursors and builder stay concrete over *Batch.
type mergeState[K, V any] struct {
	runs  []BatchReader[K, V] // the inputs as the spine held them, oldest first
	cs    []tupleCursor[K, V] // per input, over its current segment
	next  []int               // per input, the next segment to decode; -1 once none is left
	bld   *batchBuilder[K, V]
	since lattice.Frontier // compaction frontier captured at merge start
}

// exhausted reports whether every input has run out: a cursor is left
// invalid only once its input has no segment left.
func (m *mergeState[K, V]) exhausted() bool {
	for i := range m.cs {
		if m.cs[i].valid() {
			return false
		}
	}
	return true
}

// nextSegment moves input i's cursor to its next non-empty segment,
// decoding it from the cold tier, or marks the input finished.
func (s *Spine[K, V]) nextSegment(m *mergeState[K, V], i int) {
	for m.next[i] >= 0 {
		seg, err := s.spill.Segment(m.runs[i], m.next[i])
		if err != nil {
			panic("core: spill store load: " + err.Error())
		}
		if seg == nil {
			m.next[i] = -1
			m.cs[i] = newTupleCursor(&Batch[K, V]{}) // let the last segment go
			return
		}
		m.next[i]++
		s.maxBlock = max(s.maxBlock, seg.ApproxBytes())
		if m.cs[i] = newTupleCursor(seg); m.cs[i].valid() {
			return
		}
	}
}

// NewSpine creates an empty spine with the given merge effort coefficient.
func NewSpine[K, V any](fn Funcs[K, V], coef int) *Spine[K, V] {
	if coef < 1 {
		coef = MergeDefault
	}
	return &Spine[K, V]{fn: fn, kern: fn.kernels(), coef: coef, depth: 1, upper: lattice.MinFrontier(1)}
}

// SetUpperDepth initializes the spine's empty upper frontier at the given
// timestamp depth (needed before the first Append when depth > 1).
func (s *Spine[K, V]) SetUpperDepth(depth int) {
	if len(s.entries) == 0 {
		s.depth = depth
		s.upper = lattice.MinFrontier(depth)
	}
}

// Upper returns the frontier through which the spine has been appended.
func (s *Spine[K, V]) Upper() lattice.Frontier { return s.upper }

// Append adds a freshly minted batch (whose lower must match the spine's
// upper), then performs fueled maintenance proportional to the batch size.
func (s *Spine[K, V]) Append(b *Batch[K, V]) {
	if !b.Lower.Equal(s.upper) {
		panic(fmt.Sprintf("core: appended batch lower %v does not match spine upper %v",
			b.Lower, s.upper))
	}
	s.upper = b.Upper.Clone()
	s.entries = append(s.entries, spineEntry[K, V]{batch: b})
	fuel := s.coef * (b.Len() + 1)
	s.Work(fuel)
}

// Work applies fuel to in-progress merges (oldest first) and initiates new
// merges where adjacent completed batches have comparable sizes and lie
// entirely behind every reader's physical frontier. It returns true while
// more maintenance work remains (callers should re-schedule).
func (s *Spine[K, V]) Work(fuel int) bool {
	for fuel > 0 {
		idx := -1
		for i := range s.entries {
			if s.entries[i].merge != nil {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		fuel = s.advanceMerge(idx, fuel)
	}
	s.considerMerges()
	s.maybeSpill()
	for i := range s.entries {
		if s.entries[i].merge != nil {
			return true
		}
	}
	return false
}

// advanceMerge applies fuel to the merge at entry idx, installing the result
// when it completes; returns leftover fuel. Each step extracts the minimum
// tuple across the run's cursors (k is small — a geometric run — so a linear
// scan beats heap bookkeeping), in one kernel call when the spine's Funcs
// have kernels. The only work segments add is the check when a cursor runs
// out.
func (s *Spine[K, V]) advanceMerge(idx, fuel int) int {
	m := s.entries[idx].merge
	for fuel > 0 {
		min := -1
		if s.kern != nil {
			min = s.kern.minCursor(m.cs)
		} else {
			for i := range m.cs {
				if !m.cs[i].valid() {
					continue
				}
				if min < 0 || s.cursorLess(&m.cs[i], &m.cs[min]) {
					min = i
				}
			}
		}
		if min < 0 {
			break
		}
		c := &m.cs[min]
		if rep, ok := lattice.Compact(c.b.UpdTime(c.ui), m.since); ok {
			m.bld.push(c.b, c.ki, c.vi, TimeDiff{rep, c.b.Diffs[c.ui]})
		}
		c.next()
		if !c.valid() && m.next[min] >= 0 {
			s.nextSegment(m, min)
		}
		fuel--
		s.UpdatesMerged++
	}
	if m.exhausted() {
		merged := m.bld.finish()
		if b, ok := merged.(*Batch[K, V]); ok {
			s.entries[idx] = spineEntry[K, V]{batch: b}
		} else {
			s.entries[idx] = spineEntry[K, V]{cold: merged}
		}
		s.maxBlock = max(s.maxBlock, m.bld.maxBlock)
		for _, r := range m.runs {
			if _, resident := r.(*Batch[K, V]); !resident {
				s.spill.Retire(r)
			}
		}
		s.MergesCompleted++
	}
	return fuel
}

// cursorLess orders two tuple cursors by their current (key, val, time).
func (s *Spine[K, V]) cursorLess(a, b *tupleCursor[K, V]) bool {
	ka, kb := a.b.Keys[a.ki], b.b.Keys[b.ki]
	if s.fn.LessK(ka, kb) {
		return true
	}
	if s.fn.LessK(kb, ka) {
		return false
	}
	va, vb := a.b.Vals[a.vi], b.b.Vals[b.vi]
	if s.fn.LessV(va, vb) {
		return true
	}
	if s.fn.LessV(vb, va) {
		return false
	}
	return a.b.UpdTime(a.ui).TotalLess(b.b.UpdTime(b.ui))
}

// considerMerges initiates merges of runs of adjacent completed batches
// whose sizes are pairwise within a factor of two (or empty), provided the
// newest batch of the run lies behind every reader's physical frontier. A
// whole geometric run merges in one k-way pass.
func (s *Spine[K, V]) considerMerges() {
	phys, constrained := s.physicalFrontier()
	for i := 0; i+1 < len(s.entries); i++ {
		e1, e2 := &s.entries[i], &s.entries[i+1]
		if !e1.done() || !e2.done() {
			continue
		}
		n1, n2 := e1.size(), e2.size()
		if constrained && !e2.upperF().Dominates(phys) {
			continue
		}
		// Absorbing an empty batch only widens the neighbour's bounds: share
		// the columns rather than rewriting them. Empty batches are never
		// spilled, so the empty side is always resident; a cold full side is
		// widened by wrapping its reader (contents stay on disk).
		if n1 == 0 || n2 == 0 {
			lower, upper := e1.lowerF(), e2.upperF()
			full := e1
			if n1 == 0 {
				full = e2
			}
			if full.cold != nil {
				s.entries[i] = spineEntry[K, V]{
					cold: &widenedReader[K, V]{BatchReader: full.cold, lower: lower, upper: upper},
				}
			} else {
				widened := *full.batch
				widened.Lower = lower
				widened.Upper = upper
				s.entries[i] = spineEntry[K, V]{batch: &widened}
			}
			s.entries = slices.Delete(s.entries, i+1, i+2)
			i--
			continue
		}
		if n1 > 2*n2 {
			continue
		}
		// Extend the run while the geometric chain holds and readers stay
		// behind the newest absorbed batch (interior cut boundaries vanish,
		// which is legal exactly when no reader may cut there).
		j := i + 1
		for j+1 < len(s.entries) && s.entries[j+1].done() &&
			s.entries[j].size() <= 2*s.entries[j+1].size() &&
			(!constrained || s.entries[j+1].upperF().Dominates(phys)) {
			j++
		}
		s.startMergeRange(i, j)
		i-- // the merged slot may combine further once complete
	}
}

// startMergeAt begins merging entries i and i+1 (both must be completed).
func (s *Spine[K, V]) startMergeAt(i int) { s.startMergeRange(i, i+1) }

// startMergeRange begins a k-way merge of completed entries i..j inclusive.
// A cold entry stays on disk and is read a block at a time (nextSegment); its
// file is retired when the merge lands. When the spine has a cold tier and
// the inputs together exceed the resident budget, the output is bound for
// disk anyway, so the builder streams it to a run writer block by block
// instead of assembling it resident.
//
// The merge consolidates behind the readers' logical frontier joined with
// each input's own Since (as an import's as-of frontier is): an input's
// times are only exact at or beyond what it was already compacted to, so the
// output's Since is never behind any input's, whatever the readers say.
func (s *Spine[K, V]) startMergeRange(i, j int) {
	n := j - i + 1
	m := &mergeState[K, V]{
		runs:  make([]BatchReader[K, V], n),
		cs:    make([]tupleCursor[K, V], n),
		next:  make([]int, n),
		since: s.logicalFrontier(),
	}
	total, bytes := 0, int64(0)
	for k := range m.runs {
		e := &s.entries[i+k]
		if e.batch != nil {
			m.runs[k], m.next[k] = e.batch, -1
			m.cs[k] = newTupleCursor(e.batch)
		} else {
			m.runs[k] = e.cold
			s.nextSegment(m, k)
		}
		_, _, since := m.runs[k].Bounds()
		m.since = lattice.JoinFrontiers(m.since, since)
		total += m.runs[k].Len()
		bytes += approxBytes(m.runs[k])
	}
	lower, _, _ := m.runs[0].Bounds()
	_, upper, _ := m.runs[n-1].Bounds()
	var out RunWriter[K, V]
	if s.spill != nil && bytes > s.maxResident {
		out = s.spill.NewRun()
	}
	m.bld = newBatchBuilder(s.fn, lower, upper, m.since.Clone(), total, out)
	s.MergesStarted++
	s.entries[i] = spineEntry[K, V]{merge: m}
	// slices.Delete zeroes the vacated tail: a stale slot would keep a run
	// alive after its merge has retired it.
	s.entries = slices.Delete(s.entries, i+1, j+1)
}

// Recompact forces all possible maintenance to completion: it finishes every
// in-progress merge, merges every adjacent pair permitted by readers'
// physical frontiers regardless of size, and finally rewrites a lone batch
// whose consolidation frontier lags the readers' logical frontier. Used when
// a trace has gone quiet (ordinary maintenance is driven by appends).
func (s *Spine[K, V]) Recompact() {
	for s.Work(1 << 30) {
	}
	for {
		phys, constrained := s.physicalFrontier()
		merged := false
		for i := 0; i+1 < len(s.entries); i++ {
			if !s.entries[i].done() || !s.entries[i+1].done() {
				continue
			}
			if constrained && !s.entries[i+1].upperF().Dominates(phys) {
				continue
			}
			s.startMergeAt(i)
			merged = true
			break
		}
		if !merged {
			break
		}
		for s.Work(1 << 30) {
		}
	}
	if len(s.entries) == 1 && s.entries[0].done() {
		e := &s.entries[0]
		upper := e.upperF()
		var since lattice.Frontier
		if e.batch != nil {
			since = e.batch.Since
		} else {
			_, _, since = e.cold.Bounds()
		}
		phys, constrained := s.physicalFrontier()
		if !since.Equal(s.logicalFrontier()) &&
			(!constrained || upper.Dominates(phys)) {
			empty := EmptyBatch[K, V](upper, upper, since)
			s.entries = append(s.entries, spineEntry[K, V]{batch: empty})
			s.startMergeAt(0)
			for s.Work(1 << 30) {
			}
		}
	}
}

// logicalFrontier is the meet of all live readers' logical frontiers: times
// below it are indistinguishable to every reader and may be consolidated.
// With no readers it is empty (all updates may be discarded).
func (s *Spine[K, V]) logicalFrontier() lattice.Frontier {
	var f lattice.Frontier
	for _, h := range s.handles {
		if !h.dropped {
			f.Extend(h.logical)
		}
	}
	return f
}

// compactionFrontier is the frontier the trace is currently permitted to
// consolidate behind: the readers' logical frontier, or the minimum when no
// reader has said anything yet.
func (s *Spine[K, V]) compactionFrontier() lattice.Frontier {
	if f := s.logicalFrontier(); !f.Empty() {
		return f
	}
	return lattice.MinFrontier(s.depth)
}

// physicalFrontier is the meet of readers' physical frontiers; constrained
// is false when no reader imposes one (merging is unrestricted).
func (s *Spine[K, V]) physicalFrontier() (lattice.Frontier, bool) {
	var f lattice.Frontier
	constrained := false
	for _, h := range s.handles {
		if !h.dropped && h.physical != nil {
			constrained = true
			f.Extend(*h.physical)
		}
	}
	return f, constrained
}

// Runs returns the runs a full-trace cursor navigates: completed runs
// (resident batches or cold readers) plus the inputs of in-progress merges
// as the spine held them — a cold input is its original reader — oldest
// first.
func (s *Spine[K, V]) Runs() []BatchReader[K, V] {
	out := make([]BatchReader[K, V], 0, len(s.entries)+2)
	for i := range s.entries {
		e := &s.entries[i]
		switch {
		case e.merge != nil:
			out = append(out, e.merge.runs...)
		case e.cold != nil:
			out = append(out, e.cold)
		default:
			out = append(out, e.batch)
		}
	}
	return out
}

// BatchCount returns the number of visible runs (for tests and stats).
func (s *Spine[K, V]) BatchCount() int { return len(s.Runs()) }

// UpdateCount returns the total updates across visible runs.
func (s *Spine[K, V]) UpdateCount() int {
	n := 0
	for _, r := range s.Runs() {
		n += r.Len()
	}
	return n
}

// NewHandle creates a read handle whose logical frontier starts at the
// trace's current compaction frontier — a new reader can ask for nothing the
// trace has already been permitted to forget, and cannot drag the frontier
// back — and whose physical frontier is unconstrained. Dropped handles are
// pruned here, so the reader list stays proportional to live readers across
// install/uninstall cycles of importing dataflows.
func (s *Spine[K, V]) NewHandle() *Handle[K, V] {
	h := &Handle[K, V]{spine: s, logical: s.compactionFrontier()}
	live := s.handles[:0]
	for _, h := range s.handles {
		if !h.dropped {
			live = append(live, h)
		}
	}
	s.handles = append(live, h)
	return h
}

// Handle is a per-reader view of a spine (the paper's trace handle). The
// logical frontier promises the reader will only accumulate collections at
// times in advance of it, permitting consolidation below it. The physical
// frontier (nil if unconstrained) promises the reader will only request
// CursorThrough cuts at or beyond it, permitting merges behind it.
type Handle[K, V any] struct {
	spine    *Spine[K, V]
	logical  lattice.Frontier
	physical *lattice.Frontier
	dropped  bool
}

// SetLogical advances the handle's logical compaction frontier. Frontiers
// only advance: a request from behind the current frontier (a reader whose
// own inputs lag the compaction frontier it started at) leaves the handle
// where it is, since the trace may already have forgotten what lies behind.
func (h *Handle[K, V]) SetLogical(f lattice.Frontier) {
	if !h.logical.Equal(f) { // shells call this every schedule; most change nothing
		h.logical = lattice.JoinFrontiers(h.logical, f)
	}
}

// SetPhysical advances the handle's physical compaction frontier.
func (h *Handle[K, V]) SetPhysical(f lattice.Frontier) {
	c := f.Clone()
	h.physical = &c
}

// Logical returns the handle's logical frontier.
func (h *Handle[K, V]) Logical() lattice.Frontier { return h.logical }

// Drop releases the handle: its frontiers no longer hold compaction back.
func (h *Handle[K, V]) Drop() { h.dropped = true }

// Dropped reports whether the handle has been dropped.
func (h *Handle[K, V]) Dropped() bool { return h.dropped }

// Spine exposes the underlying spine (worker-local use only).
func (h *Handle[K, V]) Spine() *Spine[K, V] { return h.spine }

// Cursor returns a cursor over the full trace contents.
func (h *Handle[K, V]) Cursor() *TraceCursor[K, V] {
	return newTraceCursor(h.spine.fn, h.spine.Runs())
}

// CursorThrough returns a cursor over exactly the batches with upper ≤ f.
// The cut must fall on a batch boundary at or beyond the handle's physical
// frontier; it panics otherwise (an operator logic error).
func (h *Handle[K, V]) CursorThrough(f lattice.Frontier) *TraceCursor[K, V] {
	var sel []BatchReader[K, V]
	for _, r := range h.spine.Runs() {
		lower, upper, _ := r.Bounds()
		if upper.Dominates(f) {
			sel = append(sel, r)
		} else {
			if lower.Dominates(f) && !lower.Equal(f) {
				panic(fmt.Sprintf("core: CursorThrough(%v) cuts inside batch [%v, %v)",
					f, lower, upper))
			}
			break
		}
	}
	return newTraceCursor(h.spine.fn, sel)
}

// TraceCursor navigates the union of a set of runs in key order, with
// forward-only galloping seeks (the alternating-seek pattern of §5.3.1).
// Every run is read as key-aligned segments, each a *Batch — a resident run
// is one segment, the batch itself; a cold run is its blocks — so the key
// and update loops exist once, over *Batch.
type TraceCursor[K, V any] struct {
	fn   Funcs[K, V]
	runs []runCursor[K, V]
	rngs []valueRange[K, V] // scratch for ForUpdatesOrderedView
}

// runCursor is one run's position: its current segment and a key index
// local to it. On a cold run seg is nil while the cursor rests on the first
// key of block si without having needed the block's contents (that key is
// the block's resident fence), and si reaches n once the run is exhausted.
// A loaded cold segment never rests at its end: stepping past its last key
// moves to the next block, unloaded.
type runCursor[K, V any] struct {
	seg  *Batch[K, V]
	pos  int
	cold SegmentedRun[K, V] // nil for a resident run
	si   int
	n    int // cold.Segments()
}

// valueRange is one run's value range for the key under an ordered merge.
type valueRange[K, V any] struct {
	b      *Batch[K, V]
	vi, hi int
}

func newTraceCursor[K, V any](fn Funcs[K, V], readers []BatchReader[K, V]) *TraceCursor[K, V] {
	c := &TraceCursor[K, V]{fn: fn, runs: make([]runCursor[K, V], 0, len(readers))}
	for _, r := range readers {
		if r.Len() == 0 {
			continue
		}
		if b, ok := r.(*Batch[K, V]); ok {
			c.runs = append(c.runs, runCursor[K, V]{seg: b})
			continue
		}
		cold := UnwrapReader(r).(SegmentedRun[K, V])
		c.runs = append(c.runs, runCursor[K, V]{cold: cold, n: cold.Segments()})
	}
	return c
}

// key returns the run's current key, or false once the run is exhausted.
func (r *runCursor[K, V]) key() (K, bool) {
	if r.seg != nil {
		if r.pos < len(r.seg.Keys) {
			return r.seg.Keys[r.pos], true
		}
	} else if r.si < r.n {
		first, _ := r.cold.Fence(r.si)
		return first, true
	}
	var zero K
	return zero, false
}

// at reports whether the run's current key is k.
func (r *runCursor[K, V]) at(fn Funcs[K, V], k K) bool {
	rk, ok := r.key()
	return ok && fn.EqK(rk, k)
}

// load returns the current segment, decoding a cold block through the
// store's cache the first time its contents are needed.
func (r *runCursor[K, V]) load() *Batch[K, V] {
	if r.seg == nil {
		r.seg = r.cold.LoadSegment(r.si)
	}
	return r.seg
}

// seek moves the run to its first key ≥ k. On a cold run a target beyond
// the loaded segment is one binary search over the remaining blocks' last
// keys; the found block is loaded only when k lies strictly inside it.
func (r *runCursor[K, V]) seek(fn Funcs[K, V], k K) {
	if r.cold == nil {
		r.pos = r.seg.SeekKey(fn, k, r.pos)
		return
	}
	if r.seg != nil {
		if !fn.LessK(r.seg.Keys[len(r.seg.Keys)-1], k) {
			r.pos = r.seg.SeekKey(fn, k, r.pos)
			return
		}
		r.seg, r.pos = nil, 0
		r.si++
	}
	if r.si >= r.n {
		return
	}
	if first, _ := r.cold.Fence(r.si); !fn.LessK(first, k) {
		return
	}
	from := r.si
	r.si = from + sort.Search(r.n-from, func(i int) bool {
		_, last := r.cold.Fence(from + i)
		return !fn.LessK(last, k)
	})
	if r.si < r.n {
		if first, _ := r.cold.Fence(r.si); fn.LessK(first, k) {
			r.pos = r.load().SeekKey(fn, k, 0)
		}
	}
}

// PeekKey returns the smallest key at or after the cursor position, if any.
func (c *TraceCursor[K, V]) PeekKey() (K, bool) {
	var best K
	found := false
	for i := range c.runs {
		if k, ok := c.runs[i].key(); ok && (!found || c.fn.LessK(k, best)) {
			best, found = k, true
		}
	}
	return best, found
}

// SeekKey advances every constituent cursor to the first key ≥ k, returning
// whether any run contains k exactly. Seeks are forward-only.
func (c *TraceCursor[K, V]) SeekKey(k K) bool {
	found := false
	for i := range c.runs {
		r := &c.runs[i]
		r.seek(c.fn, k)
		found = r.at(c.fn, k) || found
	}
	return found
}

// ForUpdates invokes f with every (val, time, diff) of key k across all
// runs. The cursor must be positioned at k via SeekKey.
func (c *TraceCursor[K, V]) ForUpdates(k K, f func(v V, t lattice.Time, d Diff)) {
	for i := range c.runs {
		r := &c.runs[i]
		if !r.at(c.fn, k) {
			continue
		}
		b := r.load()
		for vi := b.KeyOff[r.pos]; vi < b.KeyOff[r.pos+1]; vi++ {
			v := b.Vals[vi]
			for ui := b.ValOff[vi]; ui < b.ValOff[vi+1]; ui++ {
				f(v, b.UpdTime(int(ui)), b.Diffs[ui])
			}
		}
	}
}

// ForUpdatesOrderedView invokes f with every (val, time, diff) of key k like
// ForUpdates, but in ascending value order, each value as a pointer into
// its run instead of a copy. The per-run value runs are already sorted, so
// a k-way merge yields globally ordered values (equal values from different
// runs adjacent) without collecting and re-sorting — the galloping-merge
// analogue for a key's value histories. Consumers can therefore accumulate
// with a running (value, sum) pair and never pay a wide struct copy per
// update: they copy *v once per value group, if at all. A pointer stays
// valid as long as the segment it points into, which is immutable, so a
// consumer may hold one across callbacks as its running group.
func (c *TraceCursor[K, V]) ForUpdatesOrderedView(k K,
	f func(v *V, t lattice.Time, d Diff)) {

	c.rngs = c.rngs[:0]
	for i := range c.runs {
		r := &c.runs[i]
		if !r.at(c.fn, k) {
			continue
		}
		b := r.load()
		c.rngs = append(c.rngs, valueRange[K, V]{b: b, vi: int(b.KeyOff[r.pos]), hi: int(b.KeyOff[r.pos+1])})
	}
	for {
		min := -1
		for i := range c.rngs {
			r := &c.rngs[i]
			if r.vi < r.hi && (min < 0 || c.fn.LessV(r.b.Vals[r.vi], c.rngs[min].b.Vals[c.rngs[min].vi])) {
				min = i
			}
		}
		if min < 0 {
			return
		}
		r := &c.rngs[min]
		for ui := r.b.ValOff[r.vi]; ui < r.b.ValOff[r.vi+1]; ui++ {
			f(&r.b.Vals[r.vi], r.b.UpdTime(int(ui)), r.b.Diffs[ui])
		}
		r.vi++
	}
}
