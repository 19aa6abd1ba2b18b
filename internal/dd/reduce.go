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
// reducer appends to out, which may list a value more than once, in any
// order: the multiplicities of equal values add. It is not invoked for keys
// with empty input.
type Reducer[K, V, V2 any] func(k K, in []ValDiff[V], out *[]ValDiff[V2])

// ReduceCore is the paper's group operator (§5.3.2) as a thin shell over an
// arranged input. It maintains an output trace of its own (shared like any
// arrangement, so a subsequent join by the same key reuses the index), and a
// list of (key, time) future work: outputs can change at least upper bounds
// of input times that never appear in the input themselves.
func ReduceCore[K comparable, V, V2 any](a *core.Arranged[K, V],
	fnOut core.Funcs[K, V2], name string, reducer Reducer[K, V, V2]) *core.Arranged[K, V2] {
	out, _ := reduceCore(a, fnOut, name, reducer)
	return out
}

// reduceCore is ReduceCore, also returning the operator's state.
func reduceCore[K comparable, V, V2 any](a *core.Arranged[K, V],
	fnOut core.Funcs[K, V2], name string, reducer Reducer[K, V, V2]) (*core.Arranged[K, V2], *reduceState[K, V, V2]) {
	if a.Shift != 0 {
		panic("dd: ReduceCore requires an un-entered arrangement (arrange inside the scope)")
	}
	outAgent := core.NewAgentForOperator[K, V2](fnOut, a.Stream.Depth())

	st := &reduceState[K, V, V2]{
		fnIn:     a.Agent.Fn,
		fnOut:    fnOut,
		hIn:      a.Agent.NewHandle(),
		outAgent: outAgent,
		reducer:  reducer,
	}
	st.hOut = outAgent.NewHandle()

	stream := timely.Unary[*core.Batch[K, V], *core.Batch[K, V2]](a.Stream, name, nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[*core.Batch[K, V]], out *timely.Out[*core.Batch[K, V2]]) {
			st.schedule(ctx, in, out)
		})
	return &core.Arranged[K, V2]{Stream: stream, Agent: outAgent}, st
}

type reduceState[K comparable, V, V2 any] struct {
	fnIn     core.Funcs[K, V]
	fnOut    core.Funcs[K, V2]
	hIn      *core.Handle[K, V]
	hOut     *core.Handle[K, V2]
	outAgent *core.TraceAgent[K, V2]
	reducer  Reducer[K, V, V2]

	// work is the future work: (key, time) pairs sorted by key (fnIn) and
	// then time (TotalLess), each once.
	work []keyTime[K]

	// One schedule's state, released when it returns: the cursor pair that
	// serves its ascending keys, the corrections emitted so far, the current
	// key's ready times in evaluation order, and the lubs found for later
	// schedules.
	inCur   *core.TraceCursor[K, V]
	outCur  *core.TraceCursor[K, V2]
	emitted []core.Update[K, V2]
	ready   []lattice.Time
	later   []keyTime[K]

	// One evaluation's key as of its time: the input, the output the
	// reducer wants and the output the operator has.
	inVals []ValDiff[V]
	want   []ValDiff[V2]
	have   []ValDiff[V2]
}

type keyTime[K comparable] struct {
	k K
	t lattice.Time
}

func (st *reduceState[K, V, V2]) cmpWork(a, b keyTime[K]) int {
	if st.fnIn.LessK(a.k, b.k) {
		return -1
	}
	if st.fnIn.LessK(b.k, a.k) {
		return 1
	}
	return cmpTime(a.t, b.t)
}

func cmpTime(a, b lattice.Time) int {
	if a == b {
		return 0
	}
	if a.TotalLess(b) {
		return -1
	}
	return 1
}

// settle restores the worklist's order after work[from:] was appended to
// its sorted prefix, and drops repeats.
func (st *reduceState[K, V, V2]) settle(from int) {
	if len(st.work) == from {
		return
	}
	slices.SortFunc(st.work[from:], st.cmpWork)
	if from > 0 && st.cmpWork(st.work[from-1], st.work[from]) >= 0 {
		slices.SortFunc(st.work, st.cmpWork)
	}
	st.work = slices.CompactFunc(st.work, func(a, b keyTime[K]) bool { return st.cmpWork(a, b) == 0 })
}

func (st *reduceState[K, V, V2]) schedule(ctx *timely.Ctx,
	in *timely.In[*core.Batch[K, V]], out *timely.Out[*core.Batch[K, V2]]) {

	// Ingest: every (key, time) in a new batch is future work. A batch's
	// minimal times cover all of its times, so they are the capabilities it
	// needs; its keys ascend, so a key's repeated times drop as they append.
	caps := out.Caps()
	busy := false
	held := len(st.work)
	in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
		busy = true
		for _, b := range data {
			caps.Insert(b.MinTimes()...)
			st.work = slices.Grow(st.work, b.NumKeys())
			for ki, k := range b.Keys {
				lo, hi := b.ValRange(ki)
				first := len(st.work)
				for ui := b.ValOff[lo]; ui < b.ValOff[hi]; ui++ {
					t := b.UpdTime(int(ui))
					if n := len(st.work); n == first || st.work[n-1].t != t {
						st.work = append(st.work, keyTime[K]{k, t})
					}
				}
			}
		}
	})
	st.settle(held)

	// Evaluate key by key: a key's ready times (those the input frontier has
	// passed) in TotalLess order, so every time's predecessors come first.
	// The rest of the work stays, compacted in place, for a later schedule.
	frontier := in.Frontier()
	var last K
	kept := 0
	for i := 0; i < len(st.work); {
		k := st.work[i].k
		st.ready = st.ready[:0]
		for ; i < len(st.work) && !st.fnIn.LessK(k, st.work[i].k); i++ {
			if frontier.LessEqual(st.work[i].t) {
				st.work[kept] = st.work[i]
				kept++
			} else {
				st.ready = append(st.ready, st.work[i].t)
			}
		}
		if len(st.ready) == 0 {
			continue
		}
		// Keys ascend under fnIn, so one cursor pair gallops forward through
		// the schedule. The output trace is ordered by fnOut; where that
		// order disagrees and the key regresses, it takes a fresh cursor.
		if st.inCur == nil {
			st.inCur, st.outCur = st.hIn.Cursor(), st.hOut.Cursor()
		} else if st.fnOut.LessK(k, last) {
			st.outCur = st.hOut.Cursor()
		}
		last = k
		for r, start := 0, len(st.emitted); r < len(st.ready); r++ {
			st.evaluate(caps, frontier, k, r, start)
		}
	}
	st.work = append(st.work[:kept], st.later...)
	st.settle(kept)

	// The minimal times of the remaining work: what the operator must still
	// be able to emit at, and what its traces must stay readable at.
	var pending lattice.Frontier
	for _, kt := range st.work {
		pending.Insert(kt.t)
	}

	// Seal an output batch when the frontier advanced, then hold only the
	// remaining work. Sealing counts as busy: the progress batch that
	// propagates the epoch downstream applies only after this schedule
	// returns, so it must not wait on a boosted maintenance budget.
	emitted := len(st.emitted) > 0
	if !frontier.Equal(st.outAgent.Upper()) && st.outAgent.Upper().Dominates(frontier) {
		busy = true
		b := st.outAgent.Seal(st.emitted, frontier)
		out.SendSlice(b.MinTimes(), []*core.Batch[K, V2]{b})
		caps.Downgrade(pending)
	} else if emitted {
		panic("dd: reduce emitted output without a sealable frontier")
	}

	// The schedule's scratch goes, and so does worklist capacity well beyond
	// what remains: an empty worklist holds none.
	if cap(st.work) > 4*len(st.work) {
		st.work = slices.Clone(st.work)
	}
	st.inCur, st.outCur, st.emitted, st.ready, st.later = nil, nil, nil, nil, nil

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
	st.outAgent.Work(ctx, busy || emitted)
}

// evaluate re-forms the input of key k at time st.ready[r], applies the
// reducer, compares with the re-formed current output, and appends
// corrective output updates to st.emitted, where k's corrections at the
// times evaluated before this one start at index start.
func (st *reduceState[K, V, V2]) evaluate(caps *timely.CapSet, frontier lattice.Frontier, k K, r, start int) {
	t := st.ready[r]
	// The input at t. Along the way, discover lub-induced future work. The
	// join ut ∨ t equals ut when t ≤ ut, so only genuinely incomparable
	// times (never at depth 1) pay for the Join. A later ut still counts: an
	// update no longer pending at a time after t is history that compaction
	// advanced there (say round 1 of an earlier epoch, now round 1 of t's),
	// and t's change moves the accumulation at ut even when no new update
	// lands on ut itself.
	st.inVals = readAsOf(st.inCur, st.fnIn.LessV, k, t, st.inVals[:0], func(ut lattice.Time) {
		lub := ut
		if !t.LessEqual(ut) {
			lub = ut.Join(t)
		}
		st.discover(caps, frontier, k, r, lub)
	})

	st.want = st.want[:0]
	if len(st.inVals) > 0 {
		st.reducer(k, st.inVals, &st.want)
	}
	st.want = consolidate(st.fnOut.LessV, st.want)

	// The output at t: the sealed output trace plus the corrections already
	// emitted for k in this schedule. The trace's read is consolidated
	// already; only folded corrections call for another pass.
	st.have = readAsOf(st.outCur, st.fnOut.LessV, k, t, st.have[:0], nil)
	read := len(st.have)
	for _, u := range st.emitted[start:] {
		if u.Time.LessEqual(t) {
			st.have = append(st.have, ValDiff[V2]{u.Val, u.Diff})
		}
	}
	if len(st.have) > read {
		st.have = consolidate(st.fnOut.LessV, st.have)
	}

	// Corrections: want minus have, in one merge of the two sorted lists.
	for i, j := 0, 0; i < len(st.want) || j < len(st.have); {
		var v V2
		var d core.Diff
		switch {
		case j == len(st.have) || i < len(st.want) && st.fnOut.LessV(st.want[i].Val, st.have[j].Val):
			v, d = st.want[i].Val, st.want[i].Diff
			i++
		case i == len(st.want) || st.fnOut.LessV(st.have[j].Val, st.want[i].Val):
			v, d = st.have[j].Val, -st.have[j].Diff
			j++
		default:
			v, d = st.want[i].Val, st.want[i].Diff-st.have[j].Diff
			i++
			j++
		}
		if d != 0 {
			st.emitted = append(st.emitted, core.Update[K, V2]{Key: k, Val: v, Time: t, Diff: d})
		}
	}
}

// readAsOf appends to vals key k's collection as of time t, read through
// cur (which it seeks to k): the sum of k's updates at times ≤ t, sorted by
// value under less, each value once with its non-zero diff. The cursor's
// ordered value merge brings equal values adjacent, so a running (value,
// sum) group replaces collect-and-sort: the group holds a pointer into the
// trace's immutable run, and a wide value is copied once per group, never
// per update. Every update at a time not ≤ t goes to later, when it is
// non-nil.
func readAsOf[K, V any](cur *core.TraceCursor[K, V], less func(a, b V) bool, k K, t lattice.Time,
	vals []ValDiff[V], later func(ut lattice.Time)) []ValDiff[V] {

	if !cur.SeekKey(k) {
		return vals
	}
	var v *V
	var sum core.Diff
	flush := func() {
		if sum != 0 {
			vals = append(vals, ValDiff[V]{*v, sum})
		}
	}
	cur.ForUpdatesOrderedView(k, func(uv *V, ut lattice.Time, d core.Diff) {
		if !ut.LessEqual(t) {
			if later != nil {
				later(ut)
			}
			return
		}
		if v == nil || less(*v, *uv) {
			flush()
			v, sum = uv, 0
		}
		sum += d
	})
	flush()
	return vals
}

// consolidate sorts vals by value under less, sums the diffs of equal values
// and drops the zeros, in place.
func consolidate[V any](less func(a, b V) bool, vals []ValDiff[V]) []ValDiff[V] {
	if len(vals) > 1 {
		slices.SortFunc(vals, func(a, b ValDiff[V]) int {
			if less(a.Val, b.Val) {
				return -1
			}
			if less(b.Val, a.Val) {
				return 1
			}
			return 0
		})
	}
	// A group that sums to zero goes at once: an equal value after it
	// starts the group again, from zero.
	out := vals[:0]
	for _, e := range vals {
		if n := len(out); n > 0 && !less(out[n-1].Val, e.Val) {
			out[n-1].Diff += e.Diff
		} else {
			out = append(out, e)
		}
		if n := len(out); out[n-1].Diff == 0 {
			out = out[:n-1]
		}
	}
	return out
}

// discover files lub, a time strictly later than the one under evaluation
// (st.ready[r]) at which k's output may change: among k's times still to
// evaluate when the frontier has passed it, else with the work for a later
// schedule.
func (st *reduceState[K, V, V2]) discover(caps *timely.CapSet, frontier lattice.Frontier, k K, r int, lub lattice.Time) {
	if frontier.LessEqual(lub) {
		if n := len(st.later); n == 0 || st.later[n-1].t != lub || st.fnIn.LessK(st.later[n-1].k, k) {
			caps.Insert(lub)
			st.later = append(st.later, keyTime[K]{k, lub})
		}
		return
	}
	if i, found := slices.BinarySearchFunc(st.ready[r+1:], lub, cmpTime); !found {
		caps.Insert(lub)
		st.ready = slices.Insert(st.ready, r+1+i, lub)
	}
}

// Reduce arranges the input and applies ReduceCore, returning the flattened
// output collection.
func Reduce[K comparable, V, V2 any](c Collection[K, V], fnIn core.Funcs[K, V],
	fnOut core.Funcs[K, V2], name string, reducer Reducer[K, V, V2]) Collection[K, V2] {
	return Flatten(ReduceCore(Arrange(c, fnIn, name+"-arrange"), fnOut, name, reducer))
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
	return ReduceCore(a, a.Agent.Fn, "Distinct", distinct[K, V])
}

// distinct is Distinct's reducer: each present value, once.
func distinct[K, V any](_ K, in []ValDiff[V], out *[]ValDiff[V]) {
	for _, e := range in {
		if e.Diff > 0 {
			*out = append(*out, ValDiff[V]{Val: e.Val, Diff: 1})
		}
	}
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
