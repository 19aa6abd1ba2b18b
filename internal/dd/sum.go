package dd

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// Sum maintains, for each key, the sum of its records under a commutative
// group: add folds value v with multiplicity d into the accumulator, whose Go
// zero value is the group's identity, and must satisfy
// add(v, d) ∘ add(v, -d) = id (accumulators are copied by assignment). A key
// is present in the output iff its net record count is non-zero, so a sum
// that cancels to zero while records remain reports the zero accumulator.
//
// On a depth-1 stream, where times are totally ordered, a key's new sum is its
// old sum plus the epoch's updates, so the operator neither arranges nor
// re-reads its input: it exchanges by key, holds the updates of times that are
// not yet complete, and when the input frontier passes them adds each exactly
// once into the key's accumulator row, read from the operator's own output
// trace — the only copy of per-key state — and emits −old, +new. The cost of
// an epoch is the epoch's updates, whatever the key's history. Inside an
// iteration scope times are only partially ordered and a sum is no longer a
// function of "the previous" sum; there Sum is the generic reduce.
func Sum[K comparable, V, A any](c Collection[K, V], fnIn core.Funcs[K, V],
	fnOut core.Funcs[K, A], name string, add func(acc *A, v V, d core.Diff)) Collection[K, A] {

	if c.S.Depth() > 1 {
		return SumCore(Arrange(c, fnIn, name+"-arrange"), fnOut, name, add)
	}
	st := newSumState[K, V](fnOut, add)
	s := timely.Unary[core.Update[K, V], core.Update[K, A]](c.S, name,
		func(u core.Update[K, V]) uint64 { return fnIn.HashK(u.Key) }, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, A]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				// Exchanged slices go back to the channel's pool when this
				// callback returns: held updates are copies.
				st.held = append(st.held, data...)
				out.Caps().Insert(stamp...)
			})
			st.fold(ctx, in.Frontier(), out)
		})
	return Collection[K, A]{S: s}
}

// SumCore is Sum over an existing arrangement. At depth 1 it reads the
// arrangement's batch stream and nothing else: it takes no handle on the
// input trace, so a sum over an imported arrangement never holds the shared
// trace's compaction back.
func SumCore[K comparable, V, A any](a *core.Arranged[K, V],
	fnOut core.Funcs[K, A], name string, add func(acc *A, v V, d core.Diff)) Collection[K, A] {

	if a.Stream.Depth() > 1 {
		return Flatten(ReduceCore(a, fnOut, name,
			func(_ K, in []ValDiff[V], out *[]ValDiff[A]) {
				var acc A
				var n core.Diff
				for _, e := range in {
					add(&acc, e.Val, e.Diff)
					n += e.Diff
				}
				if n != 0 {
					*out = append(*out, ValDiff[A]{Val: acc, Diff: 1})
				}
			}))
	}
	st := newSumState[K, V](fnOut, add)
	s := timely.Unary[*core.Batch[K, V], core.Update[K, A]](a.Stream, name, nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[*core.Batch[K, V]], out *timely.Out[core.Update[K, A]]) {
			in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
				for _, b := range data {
					b.ForEach(func(k K, v V, t lattice.Time, d core.Diff) {
						st.held = append(st.held, core.Update[K, V]{Key: k, Val: v, Time: t, Diff: d})
					})
				}
				out.Caps().Insert(stamp...)
			})
			st.fold(ctx, in.Frontier(), out)
		})
	return Collection[K, A]{S: s}
}

// sumRow is the state Sum keeps per key, as the value of its output trace:
// the accumulator and the net record count that decides presence. A key whose
// row is all zero has no row.
type sumRow[A any] struct {
	Acc A
	N   core.Diff
}

// sumState is the per-worker state of a depth-1 Sum: the output trace of
// accumulator rows and the updates of times still open.
type sumState[K comparable, V, A any] struct {
	fnRow core.Funcs[K, sumRow[A]]
	eqA   func(a, b A) bool
	add   func(acc *A, v V, d core.Diff)
	agent *core.TraceAgent[K, sumRow[A]]
	hOut  *core.Handle[K, sumRow[A]]

	held []core.Update[K, V]
	// least is the capability fold downgrades to: the least time still held
	// (depth-1 times are totally ordered, so it is one time or none).
	least lattice.Frontier

	// Per-fold scratch, reused so a steady epoch allocates only what it emits.
	group map[K]int32 // key -> index into runs
	runs  []keyRun[K]
	next  []int32 // next[i]: the following ready update of the same key, or -1
	accum []ValDiff[sumRow[A]]
	rows  []core.Update[K, sumRow[A]] // the fold's trace changes
	outs  []core.Update[K, A]         // the fold's output changes
}

// keyRun chains one key's ready updates in the order they stand.
type keyRun[K any] struct {
	key         K
	first, last int32
}

func newSumState[K comparable, V, A any](fnOut core.Funcs[K, A],
	add func(acc *A, v V, d core.Diff)) *sumState[K, V, A] {

	fnRow := core.Funcs[K, sumRow[A]]{
		LessK: fnOut.LessK,
		HashK: fnOut.HashK,
		LessV: func(a, b sumRow[A]) bool {
			if fnOut.LessV(a.Acc, b.Acc) {
				return true
			}
			return !fnOut.LessV(b.Acc, a.Acc) && a.N < b.N
		},
	}
	agent := core.NewAgentForOperator[K, sumRow[A]](fnRow, 1)
	return &sumState[K, V, A]{
		fnRow: fnRow,
		eqA:   fnOut.EqV,
		add:   add,
		agent: agent,
		hOut:  agent.NewHandle(),
		group: make(map[K]int32),
	}
}

// fold retires every held update whose time the input frontier has passed,
// then lets the output trace compact behind the frontier.
func (st *sumState[K, V, A]) fold(ctx *timely.Ctx, frontier lattice.Frontier,
	out *timely.Out[core.Update[K, A]]) {

	// Ready updates move to the front; the rest stay held.
	busy := len(st.held) > 0
	ready := 0
	oneTime := true
	for i := range st.held {
		t := st.held[i].Time
		if frontier.LessEqual(t) {
			continue
		}
		if ready > 0 && t != st.held[0].Time {
			oneTime = false
		}
		if i != ready {
			st.held[i], st.held[ready] = st.held[ready], st.held[i]
		}
		ready++
	}
	if ready > 0 {
		upds := st.held[:ready]
		if !oneTime {
			// Several epochs completed at once: a key's updates must be added
			// in time order for the rows in between to be right.
			sort.Slice(upds, func(i, j int) bool { return upds[i].Time.TotalLess(upds[j].Time) })
		}
		st.emit(upds, frontier, out)
		n := copy(st.held, st.held[ready:])
		clear(st.held[n:])
		st.held = st.held[:n]

		st.least.Clear()
		for i := range st.held {
			st.least.Insert(st.held[i].Time)
		}
		out.Caps().Downgrade(st.least)
	}

	// Rows are only ever read at times the frontier has not passed, so the
	// trace may consolidate everything behind it. hOut is the trace's primary
	// handle: once the input closes it stays where it last stood.
	if !frontier.Empty() {
		st.hOut.SetLogical(frontier)
	}
	st.agent.Work(ctx, busy)
}

// emit adds the ready updates (ordered by time, least first) into their keys'
// rows and sends the output changes; the row changes become one batch of the
// output trace, covering the times up to frontier.
func (st *sumState[K, V, A]) emit(upds []core.Update[K, V], frontier lattice.Frontier,
	out *timely.Out[core.Update[K, A]]) {

	// Chain the updates by key, then visit keys in trace order so one forward
	// cursor serves every look-up.
	clear(st.group)
	st.runs = st.runs[:0]
	st.next = st.next[:0]
	for i := range upds {
		st.next = append(st.next, -1)
		if g, ok := st.group[upds[i].Key]; ok {
			st.next[st.runs[g].last] = int32(i)
			st.runs[g].last = int32(i)
		} else {
			st.group[upds[i].Key] = int32(len(st.runs))
			st.runs = append(st.runs, keyRun[K]{key: upds[i].Key, first: int32(i), last: int32(i)})
		}
	}
	slices.SortFunc(st.runs, func(a, b keyRun[K]) int {
		if st.fnRow.LessK(a.key, b.key) {
			return -1
		}
		if st.fnRow.LessK(b.key, a.key) {
			return 1
		}
		return 0
	})

	st.rows = st.rows[:0]
	st.outs = make([]core.Update[K, A], 0, 2*len(st.runs)) // fresh: the runtime owns what it is sent
	cur := st.hOut.Cursor()
	for _, run := range st.runs {
		// Every time in the trace precedes every ready time, so the key's
		// row as of its first ready time is what its whole history nets to:
		// one row, once, or none.
		t := upds[run.first].Time
		var row sumRow[A]
		switch st.accum = readAsOf(cur, st.fnRow.LessV, run.key, t, st.accum[:0], nil); {
		case len(st.accum) == 1 && st.accum[0].Diff == 1:
			row = st.accum[0].Val
		case len(st.accum) > 0:
			panic("dd: Sum's output trace does not net to one row per key")
		}
		prev := row
		for i := run.first; i >= 0; i = st.next[i] {
			u := &upds[i]
			if u.Time != t {
				st.change(run.key, t, prev, row)
				prev, t = row, u.Time
			}
			st.add(&row.Acc, u.Val, u.Diff)
			row.N += u.Diff
		}
		st.change(run.key, t, prev, row)
	}

	if len(st.rows) > 0 {
		st.agent.Seal(st.rows, frontier)
	}
	out.SendSlice([]lattice.Time{upds[0].Time}, st.outs)
}

// change records key k's row going from prev to row at time t: in the trace
// unless the rows are equal (the all-zero row is no row), and on the output
// for the keys whose net record count is non-zero.
func (st *sumState[K, V, A]) change(k K, t lattice.Time, prev, row sumRow[A]) {
	if !st.fnRow.EqV(prev, row) {
		var zero sumRow[A]
		if !st.fnRow.EqV(prev, zero) {
			st.rows = append(st.rows, core.Update[K, sumRow[A]]{Key: k, Val: prev, Time: t, Diff: -1})
		}
		if !st.fnRow.EqV(row, zero) {
			st.rows = append(st.rows, core.Update[K, sumRow[A]]{Key: k, Val: row, Time: t, Diff: 1})
		}
	}
	if prev.N != 0 && row.N != 0 && st.eqA(prev.Acc, row.Acc) {
		return
	}
	if prev.N != 0 {
		st.outs = append(st.outs, core.Update[K, A]{Key: k, Val: prev.Acc, Time: t, Diff: -1})
	}
	if row.N != 0 {
		st.outs = append(st.outs, core.Update[K, A]{Key: k, Val: row.Acc, Time: t, Diff: 1})
	}
}
