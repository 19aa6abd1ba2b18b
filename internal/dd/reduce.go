package dd

import (
	"slices"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// ValDiff is one (value, multiplicity) entry of a reducer's input or output.
type ValDiff[V any] struct {
	Val  V
	Diff core.Diff
}

// Reducer transforms the accumulated input multiset of one key into the
// output multiset. in is sorted by value with non-zero multiplicities; the
// reducer appends to out. It is not invoked for keys with empty input.
type Reducer[K, V, V2 any] func(k K, in []ValDiff[V], out *[]ValDiff[V2])

// ReduceCore is the paper's group operator (§5.3.2) as a thin shell over an
// arranged input. It maintains an output trace of its own (shared like any
// arrangement, so a subsequent join by the same key reuses the index), and a
// list of (key, time) future work: outputs can change at least upper bounds
// of input times that never appear in the input themselves.
func ReduceCore[K comparable, V, V2 any](a *core.Arranged[K, V],
	fnOut core.Funcs[K, V2], name string, reducer Reducer[K, V, V2]) *core.Arranged[K, V2] {

	if a.Shift != 0 {
		panic("dd: ReduceCore requires an un-entered arrangement (arrange inside the scope)")
	}
	if a.Agent.Spine() == nil {
		panic("dd: ReduceCore requires a live input trace")
	}
	depth := a.Stream.Depth()
	outAgent := core.NewAgentForOperator[K, V2](fnOut, depth)

	st := &reduceState[K, V, V2]{
		fnIn:     a.Agent.Fn,
		fnOut:    fnOut,
		hIn:      a.Agent.NewHandle(),
		outAgent: outAgent,
		reducer:  reducer,
		pending:  make(map[K]map[lattice.Time]bool),
	}
	st.hOut = outAgent.NewHandle()

	stream := timely.Unary[*core.Batch[K, V], *core.Batch[K, V2]](a.Stream, name, nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[*core.Batch[K, V]], out *timely.Out[*core.Batch[K, V2]]) {
			st.schedule(ctx, in, out)
		})
	return &core.Arranged[K, V2]{Stream: stream, Agent: outAgent}
}

type reduceState[K comparable, V, V2 any] struct {
	fnIn     core.Funcs[K, V]
	fnOut    core.Funcs[K, V2]
	hIn      *core.Handle[K, V]
	hOut     *core.Handle[K, V2]
	outAgent *core.TraceAgent[K, V2]
	reducer  Reducer[K, V, V2]

	pending map[K]map[lattice.Time]bool

	outScratch []core.AccumEntry[V2]
	inVals     []ValDiff[V]
	outVals    []ValDiff[V2]
	// emittedIdx indexes the current round's output buffer by key, so
	// re-forming a key's output stays linear in that key's corrections.
	emittedIdx map[K][]int32

	// Trace cursors are forward-only, so consecutive evaluations at one time
	// with ascending keys (the worklist order) can share a cursor pair and
	// gallop forward instead of re-walking the trace from the start per key.
	// The cache invalidates when the time changes, the key regresses (a later
	// wave revisiting the same time), or a new schedule begins (the traces
	// may have grown).
	curValid bool
	curT     lattice.Time
	curIn    *core.TraceCursor[K, V]
	curOut   *core.TraceCursor[K, V2]
	curLastK K
}

func (st *reduceState[K, V, V2]) pend(caps *timely.CapSet, k K, t lattice.Time) {
	m := st.pending[k]
	if m == nil {
		m = make(map[lattice.Time]bool)
		st.pending[k] = m
	}
	if m[t] {
		return
	}
	m[t] = true
	caps.Insert(t)
}

type keyTime[K comparable] struct {
	k K
	t lattice.Time
}

func (st *reduceState[K, V, V2]) schedule(ctx *timely.Ctx,
	in *timely.In[*core.Batch[K, V]], out *timely.Out[*core.Batch[K, V2]]) {

	// Ingest: every (key, time) in a new batch is future work.
	caps := out.Caps()
	busy := false
	in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
		busy = true
		for _, b := range data {
			b.ForEach(func(k K, v V, t lattice.Time, d core.Diff) {
				st.pend(caps, k, t)
			})
		}
	})

	frontier := in.Frontier()

	// Collect ready work: pending (key, time) pairs whose input is complete.
	var ready []keyTime[K]
	for k, times := range st.pending {
		for t := range times {
			if !frontier.LessEqual(t) {
				ready = append(ready, keyTime[K]{k, t})
			}
		}
	}
	var emitted []core.Update[K, V2]
	if st.emittedIdx == nil {
		st.emittedIdx = make(map[K][]int32)
	} else {
		clear(st.emittedIdx)
	}
	// Invalidate AND release the cached cursors: they pin the previous
	// schedule's batch snapshot, which compaction may since have superseded.
	st.curValid = false
	st.curIn, st.curOut = nil, nil
	// Process in a time-respecting order; lubs discovered along the way that
	// are also ready join the worklist.
	for len(ready) > 0 {
		slices.SortFunc(ready, func(a, b keyTime[K]) int {
			if a.t != b.t {
				if a.t.TotalLess(b.t) {
					return -1
				}
				return 1
			}
			if st.fnIn.LessK(a.k, b.k) {
				return -1
			}
			if st.fnIn.LessK(b.k, a.k) {
				return 1
			}
			return 0
		})
		work := ready
		ready = nil
		for _, kt := range work {
			if !st.pending[kt.k][kt.t] {
				continue // processed via an earlier duplicate
			}
			delete(st.pending[kt.k], kt.t)
			if len(st.pending[kt.k]) == 0 {
				delete(st.pending, kt.k)
			}
			newWork := st.evaluate(caps, kt.k, kt.t, frontier, &emitted)
			ready = append(ready, newWork...)
		}
	}

	// The minimal times of the remaining work: what the operator must still
	// be able to emit at, and what its traces must stay readable at.
	var pending lattice.Frontier
	for _, times := range st.pending {
		for t := range times {
			pending.Insert(t)
		}
	}

	// Seal an output batch when the frontier advanced, then hold only the
	// remaining work. Sealing counts as busy: the progress batch that
	// propagates the epoch downstream applies only after this schedule
	// returns, so it must not wait on a boosted maintenance budget.
	if !frontier.Equal(st.outAgent.Upper()) && st.outAgent.Upper().Dominates(frontier) {
		busy = true
		b := core.BuildBatch(st.fnOut, emitted, st.outAgent.Upper().Clone(), frontier.Clone(),
			st.hOut.Logical().Clone())
		st.outAgent.Maintain(b)
		out.SendSlice(b.MinTimes(), []*core.Batch[K, V2]{b})
		caps.Downgrade(pending)
	} else if len(emitted) > 0 {
		panic("dd: reduce emitted output without a sealable frontier")
	}

	// Compaction frontiers: input and output traces may consolidate up to
	// the meet of the frontier and all pending work times. Once the input has
	// closed and nothing is pending, the input handle drops; hOut is the
	// output trace's primary handle and stays where it last stood, so the
	// finished trace remains readable.
	logical := frontier.Clone()
	logical.Extend(pending)
	if logical.Empty() {
		st.hIn.Drop()
	} else {
		st.hIn.SetLogical(logical)
		st.hOut.SetLogical(logical)
	}
	st.outAgent.Work(ctx, busy || len(emitted) > 0)
}

// evaluate re-forms the input of key k at time t, applies the reducer,
// compares with the re-formed current output, and appends corrective output
// updates. It returns lub-induced work that became ready.
func (st *reduceState[K, V, V2]) evaluate(caps *timely.CapSet, k K, t lattice.Time,
	frontier lattice.Frontier, emitted *[]core.Update[K, V2]) []keyTime[K] {

	var newReady []keyTime[K]
	// The shared cursors seek two traces ordered by fnIn and fnOut
	// respectively, so reuse requires the key to be non-regressing under
	// BOTH orders (they normally agree; checking both keeps a divergent
	// fnOut correct at the cost of a fresh cursor pair per key).
	if !st.curValid || st.curT != t ||
		st.fnIn.LessK(k, st.curLastK) || st.fnOut.LessK(k, st.curLastK) {
		st.curIn = st.hIn.Cursor()
		st.curOut = st.hOut.Cursor()
		st.curT = t
		st.curValid = true
	}
	st.curLastK = k
	inCur := st.curIn
	st.inVals = st.inVals[:0]
	if inCur.SeekKey(k) {
		// Accumulate input at t via the cursor's ordered k-way value merge:
		// equal values arrive adjacent, so a running (value, sum) pair
		// replaces collect-and-sort. Along the way, discover lub-induced
		// future work. The join ut ∨ t equals t when ut ≤ t and ut when
		// t ≤ ut, so only genuinely incomparable times (never at depth 1)
		// pay for the Join. A later ut still counts: an update no longer
		// pending at a time after t is history that compaction advanced
		// there (say round 1 of an earlier epoch, now round 1 of t's), and
		// t's change moves the accumulation at ut even when no new update
		// lands on ut itself.
		// The view cursor yields (store, index) pairs: the running group is
		// tracked as a view and compared in place, so a wide value
		// materializes once per value group (at flush), never per update.
		var curS *core.ValStore[V]
		var curIdx int
		var curAcc core.Diff
		curHas := false
		flush := func() {
			if curHas && curAcc != 0 {
				st.inVals = append(st.inVals, ValDiff[V]{curS.At(curIdx), curAcc})
			}
		}
		inCur.ForUpdatesOrderedView(k, func(s *core.ValStore[V], vi int, ut lattice.Time, d core.Diff) {
			if ut.LessEqual(t) {
				if !curHas || curS.Less(st.fnIn.LessV, curIdx, s, vi) {
					flush()
					curS, curIdx, curAcc, curHas = s, vi, 0, true
				}
				curAcc += d
				return
			}
			lub := ut
			if !t.LessEqual(ut) {
				lub = ut.Join(t)
			}
			if !pendingHas(st.pending, k, lub) {
				st.pend(caps, k, lub)
				if !frontier.LessEqual(lub) {
					newReady = append(newReady, keyTime[K]{k, lub})
				}
			}
		})
		flush()
	}

	st.outVals = st.outVals[:0]
	if len(st.inVals) > 0 {
		st.reducer(k, st.inVals, &st.outVals)
	}

	// Re-form the current output at t: sealed output trace plus updates
	// emitted earlier in this round.
	st.outScratch = st.outScratch[:0]
	outCur := st.curOut
	if outCur.SeekKey(k) {
		outCur.ForUpdates(k, func(v V2, ut lattice.Time, d core.Diff) {
			if ut.LessEqual(t) {
				st.outScratch = core.AccumInto(st.outScratch, st.fnOut.EqV, v, d)
			}
		})
	}
	for _, idx := range st.emittedIdx[k] {
		u := (*emitted)[idx]
		if u.Time.LessEqual(t) {
			st.outScratch = core.AccumInto(st.outScratch, st.fnOut.EqV, u.Val, u.Diff)
		}
	}

	// Corrections: want minus have.
	emit := func(u core.Update[K, V2]) {
		st.emittedIdx[k] = append(st.emittedIdx[k], int32(len(*emitted)))
		*emitted = append(*emitted, u)
	}
	for _, w := range st.outVals {
		cur := accumGet(st.outScratch, st.fnOut.EqV, w.Val)
		if w.Diff != cur {
			emit(core.Update[K, V2]{Key: k, Val: w.Val, Time: t, Diff: w.Diff - cur})
		}
	}
	for _, h := range st.outScratch {
		if h.Diff == 0 {
			continue
		}
		found := false
		for _, w := range st.outVals {
			if st.fnOut.EqV(w.Val, h.Val) {
				found = true
				break
			}
		}
		if !found {
			emit(core.Update[K, V2]{Key: k, Val: h.Val, Time: t, Diff: -h.Diff})
		}
	}
	return newReady
}

func pendingHas[K comparable](p map[K]map[lattice.Time]bool, k K, t lattice.Time) bool {
	m, ok := p[k]
	return ok && m[t]
}

func accumGet[V any](entries []core.AccumEntry[V], eq func(a, b V) bool, v V) core.Diff {
	for _, e := range entries {
		if eq(e.Val, v) {
			return e.Diff
		}
	}
	return 0
}

// Reduce arranges the input and applies ReduceCore, returning the flattened
// output collection.
func Reduce[K comparable, V, V2 any](c Collection[K, V], fnIn core.Funcs[K, V],
	fnOut core.Funcs[K, V2], name string, reducer Reducer[K, V, V2]) Collection[K, V2] {
	arr := Arrange(c, fnIn, name+"-arrange")
	return Flatten(ReduceCore(arr, fnOut, name, reducer))
}

// Count yields, for each key, the total multiplicity of its records.
func Count[K comparable, V any](c Collection[K, V], fnIn core.Funcs[K, V]) Collection[K, int64] {
	return CountCore(Arrange(c, fnIn, "Count-arrange"))
}

// CountCore is Count over an existing arrangement.
func CountCore[K comparable, V any](a *core.Arranged[K, V]) Collection[K, int64] {
	fnIn := a.Agent.Fn
	fnOut := core.Funcs[K, int64]{
		LessK: fnIn.LessK,
		LessV: func(a, b int64) bool { return a < b },
		HashK: fnIn.HashK,
	}
	return Flatten(ReduceCore(a, fnOut, "Count",
		func(k K, in []ValDiff[V], out *[]ValDiff[int64]) {
			var total core.Diff
			for _, e := range in {
				total += e.Diff
			}
			*out = append(*out, ValDiff[int64]{Val: total, Diff: 1})
		}))
}

// Distinct reduces every present (key, value) to multiplicity one.
func Distinct[K comparable, V any](c Collection[K, V], fn core.Funcs[K, V]) Collection[K, V] {
	return Flatten(DistinctCore(Arrange(c, fn, "Distinct-arrange")))
}

// DistinctCore is Distinct over an existing arrangement, returning the
// arranged output for reuse.
func DistinctCore[K comparable, V any](a *core.Arranged[K, V]) *core.Arranged[K, V] {
	return ReduceCore(a, a.Agent.Fn, "Distinct",
		func(k K, in []ValDiff[V], out *[]ValDiff[V]) {
			for _, e := range in {
				if e.Diff > 0 {
					*out = append(*out, ValDiff[V]{Val: e.Val, Diff: 1})
				}
			}
		})
}

// Threshold maps each (key, value) multiplicity through f (zero drops it).
func Threshold[K comparable, V any](c Collection[K, V], fn core.Funcs[K, V],
	f func(core.Diff) core.Diff) Collection[K, V] {
	return Reduce(c, fn, fn, "Threshold",
		func(k K, in []ValDiff[V], out *[]ValDiff[V]) {
			for _, e := range in {
				if d := f(e.Diff); d != 0 {
					*out = append(*out, ValDiff[V]{Val: e.Val, Diff: d})
				}
			}
		})
}

// SemiJoin keeps records of c whose key appears in keys (with multiplicity
// one, regardless of multiplicities in keys).
func SemiJoin[K comparable, V any](c Collection[K, V], fn core.Funcs[K, V],
	keys Collection[K, core.Unit], fnK core.Funcs[K, core.Unit]) Collection[K, V] {
	ac := Arrange(c, fn, "SemiJoin-data")
	ak := DistinctCore(Arrange(keys, fnK, "SemiJoin-keys"))
	return JoinCore(ac, ak, "SemiJoin",
		func(k K, v V, _ core.Unit) (K, V) { return k, v })
}

// AntiJoin keeps records of c whose key does not appear in keys.
func AntiJoin[K comparable, V any](c Collection[K, V], fn core.Funcs[K, V],
	keys Collection[K, core.Unit], fnK core.Funcs[K, core.Unit]) Collection[K, V] {
	return Concat(c, Negate(SemiJoin(c, fn, keys, fnK)))
}

// Join arranges both inputs and applies JoinCore.
func Join[K comparable, V1, V2, K2, VO any](a Collection[K, V1], fnA core.Funcs[K, V1],
	b Collection[K, V2], fnB core.Funcs[K, V2], name string,
	f func(K, V1, V2) (K2, VO)) Collection[K2, VO] {
	aa := Arrange(a, fnA, name+"-arrangeA")
	ab := Arrange(b, fnB, name+"-arrangeB")
	return JoinCore(aa, ab, name, f)
}
