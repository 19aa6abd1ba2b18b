package core

import (
	"fmt"
	"slices"

	"repro/internal/lattice"
)

// Merge effort coefficients for the paper's Figure 6e configurations. The
// coefficient multiplies the size of each inserted batch to produce the fuel
// applied to in-progress merges. Two is the constant the paper proves
// sufficient for merges to complete before their results are required.
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
	entries []spineEntry[K, V] // oldest first; adjacent uppers/lowers match
	handles []*Handle[K, V]
	coef    int
	depth   int
	upper   lattice.Frontier // through which batches have been appended

	// cold tier (nil spill = purely resident; see SetSpill)
	spill       SpillStore[K, V]
	maxResident int64

	// stats
	MergesStarted   int
	MergesCompleted int
	UpdatesMerged   int
	RunsSpilled     int
	RunsUnspilled   int
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
type mergeState[K, V any] struct {
	batches []*Batch[K, V] // oldest first
	cs      []tupleCursor[K, V]
	bld     *batchBuilder[K, V]
	since   lattice.Frontier // compaction frontier captured at merge start
	// retired holds cold readers whose runs were re-materialized as merge
	// sources; their on-disk artifacts are released when the merge lands.
	retired []BatchReader[K, V]
}

func (m *mergeState[K, V]) remaining() int {
	n := 0
	for i := range m.cs {
		n += m.batches[i].Len() - m.cs[i].ui
	}
	return n
}

// NewSpine creates an empty spine with the given merge effort coefficient.
func NewSpine[K, V any](fn Funcs[K, V], coef int) *Spine[K, V] {
	if coef < 1 {
		coef = MergeDefault
	}
	return &Spine[K, V]{fn: fn, coef: coef, depth: 1, upper: lattice.MinFrontier(1)}
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
// scan beats heap bookkeeping).
func (s *Spine[K, V]) advanceMerge(idx, fuel int) int {
	m := s.entries[idx].merge
	for fuel > 0 {
		min := -1
		for i := range m.cs {
			if !m.cs[i].valid() {
				continue
			}
			if min < 0 || s.cursorLess(&m.cs[i], &m.cs[min]) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		c := &m.cs[min]
		td := m.batches[min].Upds[c.ui]
		if rep, ok := lattice.Compact(td.Time, m.since); ok {
			td.Time = rep
			m.bld.push(m.batches[min], c.ki, c.vi, td)
		}
		c.next()
		fuel--
		s.UpdatesMerged++
	}
	if m.remaining() == 0 {
		first, last := m.batches[0], m.batches[len(m.batches)-1]
		merged := m.bld.finish(first.Lower, last.Upper, m.since.Clone())
		s.entries[idx] = spineEntry[K, V]{batch: merged}
		for _, r := range m.retired {
			s.spill.Retire(r)
		}
		s.MergesCompleted++
	}
	return fuel
}

// cursorLess orders two tuple cursors by their current (key, val, time)
// without materializing value copies: the store comparison reads columns in
// place, so wide tuples are never copied just to be compared (the merge inner
// loop runs once per tuple per round; that copying dominated).
func (s *Spine[K, V]) cursorLess(a, b *tupleCursor[K, V]) bool {
	ka, kb := a.b.Keys[a.ki], b.b.Keys[b.ki]
	if s.fn.LessK(ka, kb) {
		return true
	}
	if s.fn.LessK(kb, ka) {
		return false
	}
	if c := a.b.Vals.Cmp(s.fn.LessV, a.vi, &b.b.Vals, b.vi); c != 0 {
		return c < 0
	}
	return a.b.Upds[a.ui].Time.TotalLess(b.b.Upds[b.ui].Time)
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
		if constrained && !frontierCovered(e2.upperF(), phys) {
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
			(!constrained || frontierCovered(s.entries[j+1].upperF(), phys)) {
			j++
		}
		s.startMergeRange(i, j)
		i-- // the merged slot may combine further once complete
	}
}

// startMergeAt begins merging entries i and i+1 (both must be completed).
func (s *Spine[K, V]) startMergeAt(i int) { s.startMergeRange(i, i+1) }

// startMergeRange begins a k-way merge of completed entries i..j inclusive.
// Cold entries are re-materialized first: merges consume whole runs tuple by
// tuple, so the merge machinery (tupleCursor, batchBuilder) stays concrete
// over resident batches; the on-disk artifacts are retired when the merge
// lands.
//
// The merge consolidates behind the readers' logical frontier joined with
// each input's own Since (as an import's as-of frontier is): an input's
// times are only exact at or beyond what it was already compacted to, so the
// output's Since is never behind any input's, whatever the readers say.
func (s *Spine[K, V]) startMergeRange(i, j int) {
	m := &mergeState[K, V]{
		batches: make([]*Batch[K, V], 0, j-i+1),
		cs:      make([]tupleCursor[K, V], 0, j-i+1),
		since:   s.logicalFrontier(),
	}
	total := 0
	for x := i; x <= j; x++ {
		b := s.entries[x].batch
		if r := s.entries[x].cold; r != nil {
			b = s.unspill(r)
			m.retired = append(m.retired, r)
		}
		m.since = lattice.JoinFrontiers(m.since, b.Since)
		m.batches = append(m.batches, b)
		m.cs = append(m.cs, newTupleCursor(b))
		total += b.Len()
	}
	m.bld = newBatchBuilder(s.fn, total)
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
			if constrained && !frontierCovered(s.entries[i+1].upperF(), phys) {
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
			(!constrained || frontierCovered(upper, phys)) {
			empty := EmptyBatch[K, V](upper, upper, since)
			s.entries = append(s.entries, spineEntry[K, V]{batch: empty})
			s.startMergeAt(0)
			for s.Work(1 << 30) {
			}
		}
	}
}

// frontierCovered reports whether reader frontier f is at or beyond batch
// upper u: every element of f is in advance of u, so no reader can ask for a
// cursor cut inside the batch.
func frontierCovered(u, f lattice.Frontier) bool {
	for _, t := range f.Elements() {
		if !u.LessEqual(t) {
			return false
		}
	}
	return true
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
// (resident batches or cold readers) plus the sources of in-progress merges,
// oldest first.
func (s *Spine[K, V]) Runs() []BatchReader[K, V] {
	out := make([]BatchReader[K, V], 0, len(s.entries)+2)
	for i := range s.entries {
		e := &s.entries[i]
		switch {
		case e.merge != nil:
			for _, b := range e.merge.batches {
				out = append(out, b)
			}
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
		if frontierCovered(upper, f) {
			sel = append(sel, r)
		} else {
			if frontierCovered(lower, f) && !lower.Equal(f) {
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
// Runs are BatchReaders; resident batches are additionally kept in a
// parallel concrete slice so the hot paths (the common, fully resident
// case) run the exact slice-indexed loops they always did, paying interface
// dispatch only on cold (spilled) runs.
type TraceCursor[K, V any] struct {
	fn      Funcs[K, V]
	batches []BatchReader[K, V]
	hot     []*Batch[K, V]     // hot[i] non-nil iff batches[i] is resident
	bulk    []KeyUpdater[K, V] // bulk[i] non-nil iff cold batches[i] bulk-iterates
	pos     []int              // per run: current key index
	rngs    []valueRange       // scratch for ForUpdatesOrdered
}

// valueRange is one run's value range for the key under an ordered merge.
type valueRange struct {
	batch  int
	vi, hi int
}

// KeyUpdater is an optional BatchReader extension: visit every (val, time,
// diff) of the key at index ki in one call. A cold run whose storage keeps a
// key's values and updates together (block-aligned layouts) can serve a
// whole key with a single position lookup and tight local loops, where the
// generic path would re-resolve the position on every ValView/UpdRange/Upd
// interface call. Purely a fast path: it must visit exactly what the
// generic loop over ValRange/ValView/UpdRange/Upd would.
type KeyUpdater[K, V any] interface {
	ForKeyUpdates(ki int, f func(v V, t lattice.Time, d Diff))
}

func newTraceCursor[K, V any](fn Funcs[K, V], readers []BatchReader[K, V]) *TraceCursor[K, V] {
	nonEmpty := readers[:0:0]
	for _, r := range readers {
		if r.Len() > 0 {
			nonEmpty = append(nonEmpty, r)
		}
	}
	hot := make([]*Batch[K, V], len(nonEmpty))
	bulk := make([]KeyUpdater[K, V], len(nonEmpty))
	for i, r := range nonEmpty {
		if b, ok := r.(*Batch[K, V]); ok {
			hot[i] = b
		} else if ku, ok := r.(KeyUpdater[K, V]); ok {
			bulk[i] = ku
		}
	}
	return &TraceCursor[K, V]{
		fn: fn, batches: nonEmpty, hot: hot, bulk: bulk, pos: make([]int, len(nonEmpty)),
	}
}

// numKeys returns run i's distinct-key count (resident metadata, no I/O).
func (c *TraceCursor[K, V]) numKeys(i int) int {
	if hb := c.hot[i]; hb != nil {
		return len(hb.Keys)
	}
	return c.batches[i].NumKeys()
}

// key returns run i's key ki (block-boundary stats keep gap probes free of
// I/O on cold runs).
func (c *TraceCursor[K, V]) key(i, ki int) K {
	if hb := c.hot[i]; hb != nil {
		return hb.Keys[ki]
	}
	return c.batches[i].Key(ki)
}

// view returns run i's value vi as a (store, index) borrow.
func (c *TraceCursor[K, V]) view(i, vi int) (*ValStore[V], int) {
	if hb := c.hot[i]; hb != nil {
		return &hb.Vals, vi
	}
	return c.batches[i].ValView(vi)
}

// PeekKey returns the smallest key at or after the cursor position, if any.
func (c *TraceCursor[K, V]) PeekKey() (K, bool) {
	var best K
	found := false
	for i := range c.batches {
		if c.pos[i] < c.numKeys(i) {
			k := c.key(i, c.pos[i])
			if !found || c.fn.LessK(k, best) {
				best, found = k, true
			}
		}
	}
	return best, found
}

// SeekKey advances every constituent cursor to the first key ≥ k, returning
// whether any run contains k exactly. Seeks are forward-only.
func (c *TraceCursor[K, V]) SeekKey(k K) bool {
	found := false
	for i := range c.batches {
		if hb := c.hot[i]; hb != nil {
			c.pos[i] = hb.SeekKey(c.fn, k, c.pos[i])
			if c.pos[i] < len(hb.Keys) && c.fn.EqK(hb.Keys[c.pos[i]], k) {
				found = true
			}
			continue
		}
		r := c.batches[i]
		c.pos[i] = r.SeekKey(c.fn, k, c.pos[i])
		if c.pos[i] < r.NumKeys() && c.fn.EqK(r.Key(c.pos[i]), k) {
			found = true
		}
	}
	return found
}

// ForUpdates invokes f with every (val, time, diff) of key k across all
// runs. The cursor must be positioned at k via SeekKey. Values materialize
// once per value group, not once per update.
func (c *TraceCursor[K, V]) ForUpdates(k K, f func(v V, t lattice.Time, d Diff)) {
	for i, r := range c.batches {
		ki := c.pos[i]
		if hb := c.hot[i]; hb != nil {
			if ki >= len(hb.Keys) || !c.fn.EqK(hb.Keys[ki], k) {
				continue
			}
			lo, hi := hb.ValRange(ki)
			for vi := lo; vi < hi; vi++ {
				v := hb.Vals.At(vi)
				ul, uh := hb.UpdRange(vi)
				for ui := ul; ui < uh; ui++ {
					f(v, hb.Upds[ui].Time, hb.Upds[ui].Diff)
				}
			}
			continue
		}
		if ki >= r.NumKeys() || !c.fn.EqK(r.Key(ki), k) {
			continue
		}
		if ku := c.bulk[i]; ku != nil {
			ku.ForKeyUpdates(ki, f)
			continue
		}
		lo, hi := r.ValRange(ki)
		for vi := lo; vi < hi; vi++ {
			s, si := r.ValView(vi)
			v := s.At(si)
			ul, uh := r.UpdRange(vi)
			for ui := ul; ui < uh; ui++ {
				td := r.Upd(ui)
				f(v, td.Time, td.Diff)
			}
		}
	}
}

// ForUpdatesOrdered invokes f with every (val, time, diff) of key k like
// ForUpdates, but in ascending value order: the per-batch value runs are
// already sorted, so a k-way merge yields globally ordered values (equal
// values from different batches adjacent) without collecting and re-sorting
// — the galloping-merge analogue for a key's value histories. Consumers can
// therefore accumulate with a running (value, sum) pair instead of sorting.
func (c *TraceCursor[K, V]) ForUpdatesOrdered(k K, f func(v V, t lattice.Time, d Diff)) {
	c.ForUpdatesOrderedView(k, func(s *ValStore[V], vi int, t lattice.Time, d Diff) {
		f(s.At(vi), t, d)
	})
}

// ForUpdatesOrderedView is ForUpdatesOrdered yielding a borrow-free
// (store, index) view of each value instead of a materialized copy: the
// k-way value merge compares stores in place, and consumers that only need
// ordering (reduce's running accumulation, counts) never pay a wide struct
// copy per update — they call s.At(vi) once per value group, if at all.
// Views stay valid as long as the cursor's batches do (they are immutable),
// so a consumer may hold one across callbacks as its running group.
func (c *TraceCursor[K, V]) ForUpdatesOrderedView(k K,
	f func(s *ValStore[V], vi int, t lattice.Time, d Diff)) {

	c.rngs = c.rngs[:0]
	for i := range c.batches {
		ki := c.pos[i]
		if ki >= c.numKeys(i) || !c.fn.EqK(c.key(i, ki), k) {
			continue
		}
		lo, hi := c.batches[i].ValRange(ki)
		if lo < hi {
			c.rngs = append(c.rngs, valueRange{batch: i, vi: lo, hi: hi})
		}
	}
	if len(c.rngs) == 1 {
		// Single run: its values are already ordered; emit directly.
		r := c.rngs[0]
		if hb := c.hot[r.batch]; hb != nil {
			for vi := r.vi; vi < r.hi; vi++ {
				ul, uh := hb.UpdRange(vi)
				for ui := ul; ui < uh; ui++ {
					f(&hb.Vals, vi, hb.Upds[ui].Time, hb.Upds[ui].Diff)
				}
			}
			return
		}
		b := c.batches[r.batch]
		for vi := r.vi; vi < r.hi; vi++ {
			s, si := b.ValView(vi)
			ul, uh := b.UpdRange(vi)
			for ui := ul; ui < uh; ui++ {
				td := b.Upd(ui)
				f(s, si, td.Time, td.Diff)
			}
		}
		return
	}
	for {
		min := -1
		var minS *ValStore[V]
		var minI int
		for i := range c.rngs {
			if c.rngs[i].vi >= c.rngs[i].hi {
				continue
			}
			s, si := c.view(c.rngs[i].batch, c.rngs[i].vi)
			if min < 0 || s.Less(c.fn.LessV, si, minS, minI) {
				min, minS, minI = i, s, si
			}
		}
		if min < 0 {
			return
		}
		r := &c.rngs[min]
		b := c.batches[r.batch]
		ul, uh := b.UpdRange(r.vi)
		for ui := ul; ui < uh; ui++ {
			td := b.Upd(ui)
			f(minS, minI, td.Time, td.Diff)
		}
		r.vi++
	}
}

// SkipKey advances past key k (used when iterating keys in order).
func (c *TraceCursor[K, V]) SkipKey(k K) {
	for i := range c.batches {
		if c.pos[i] < c.numKeys(i) && c.fn.EqK(c.key(i, c.pos[i]), k) {
			c.pos[i]++
		}
	}
}

// AccumEntry is one (value, accumulated diff) pair used when re-forming a
// key's collection at a time.
type AccumEntry[V any] struct {
	Val  V
	Diff Diff
}

// AccumInto adds (v, d) into entries, merging with an existing equal value.
func AccumInto[V any](entries []AccumEntry[V], eq func(a, b V) bool, v V, d Diff) []AccumEntry[V] {
	for i := range entries {
		if eq(entries[i].Val, v) {
			entries[i].Diff += d
			return entries
		}
	}
	return append(entries, AccumEntry[V]{Val: v, Diff: d})
}

// AccumulateKey sums, for each value of key k, the diffs at times ≤ t,
// invoking f with every value whose accumulated diff is non-zero.
func (c *TraceCursor[K, V]) AccumulateKey(k K, t lattice.Time,
	scratch []AccumEntry[V], f func(v V, d Diff)) []AccumEntry[V] {

	scratch = scratch[:0]
	c.ForUpdates(k, func(v V, ut lattice.Time, d Diff) {
		if !ut.LessEqual(t) {
			return
		}
		scratch = AccumInto(scratch, c.fn.EqV, v, d)
	})
	for _, e := range scratch {
		if e.Diff != 0 {
			f(e.Val, e.Diff)
		}
	}
	return scratch
}
