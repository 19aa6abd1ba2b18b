package dd

import (
	"slices"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// joinFuel bounds the number of output pairs produced per operator schedule:
// larger batches are suspended and resumed ("futures", §5.3.1), so workers
// are never monopolized by one join invocation (Principle 4).
const joinFuel = 1 << 16

// JoinCore is the thin join shell over two arranged inputs sharing the same
// key type. For every key it pairs values from both sides, emitting
// f(k, v1, v2) at the join (least upper bound) of the two update times, with
// the product of the multiplicities.
//
// The implementation follows §5.3.1: per-shard arrival order decides which
// side's trace a new batch is matched against (each pair of updates is
// counted exactly once); matching uses alternating seeks between the batch
// and trace cursors; trace handles are downgraded by the opposite input's
// frontier and dropped when the opposite input closes.
func JoinCore[K, V1, V2, K2, VO any](a *core.Arranged[K, V1], b *core.Arranged[K, V2],
	name string, f func(K, V1, V2) (K2, VO)) Collection[K2, VO] {

	st := &joinState[K, V1, V2, K2, VO]{
		fnA: a.Agent.Fn, fnB: b.Agent.Fn,
		shiftA: a.Shift, shiftB: b.Shift,
		f: f,
	}
	st.hA = a.Agent.NewHandle()
	st.hB = b.Agent.NewHandle()
	depth := a.Stream.Depth()
	if depth != b.Stream.Depth() {
		panic("dd: JoinCore inputs at different depths")
	}
	st.ackA = lattice.MinFrontier(depth)
	st.ackB = lattice.MinFrontier(depth)
	st.hA.SetPhysical(core.ProjectFrontier(st.ackA, st.shiftA))
	st.hB.SetPhysical(core.ProjectFrontier(st.ackB, st.shiftB))

	s := timely.Binary[*core.Batch[K, V1], *core.Batch[K, V2], core.Update[K2, VO]](
		a.Stream, b.Stream, name, nil, nil,
		func(ctx *timely.Ctx, inA *timely.In[*core.Batch[K, V1]],
			inB *timely.In[*core.Batch[K, V2]], out *timely.Out[core.Update[K2, VO]]) {
			st.schedule(ctx, inA, inB, out)
		})
	return Collection[K2, VO]{S: s}
}

type joinTask[K, V any] struct {
	batch *core.Batch[K, V]
	snap  lattice.Frontier // opposite ack at arrival (stream domain)
	ki    int              // resume position (key index)
	// Value-granular suspension: when fuel runs out inside a key with many
	// values, resume records the first unpaired value; the next schedule
	// gallops back to it with SeekVal (values within a key are strictly
	// increasing, so the seek is exact) instead of redoing the whole key.
	resume  V
	resumed bool
	stamp   []lattice.Time // the batch's stamp: held until the task is done
}

// traceUpd is one trace-side update of the key under match, collected once
// per key so the batch-side product below revisits it without re-walking the
// trace cursor (and without re-materializing wide values) per batch update.
type traceUpd[V any] struct {
	v V
	t lattice.Time
	d core.Diff
}

type joinState[K, V1, V2, K2, VO any] struct {
	fnA    core.Funcs[K, V1]
	fnB    core.Funcs[K, V2]
	hA     *core.Handle[K, V1]
	hB     *core.Handle[K, V2]
	shiftA int
	shiftB int
	ackA   lattice.Frontier
	ackB   lattice.Frontier
	pendA  []*joinTask[K, V1] // a-batches to match against b's trace
	pendB  []*joinTask[K, V2]
	// per-side scratch for the trace updates of the key under match
	scratchA []traceUpd[V1]
	scratchB []traceUpd[V2]
	held     lattice.Frontier // scratch: the antichain of pending tasks' stamps
	f        func(K, V1, V2) (K2, VO)
}

func (st *joinState[K, V1, V2, K2, VO]) schedule(ctx *timely.Ctx,
	inA *timely.In[*core.Batch[K, V1]], inB *timely.In[*core.Batch[K, V2]],
	out *timely.Out[core.Update[K2, VO]]) {

	// Ingest: arrival order fixes each batch's view of the opposite trace.
	caps := out.Caps()
	inA.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V1]) {
		for _, bt := range data {
			if !bt.Empty() {
				task := &joinTask[K, V1]{batch: bt, snap: st.ackB.Clone(), stamp: slices.Clone(stamp)}
				st.pendA = append(st.pendA, task)
				caps.Insert(stamp...)
			}
			st.ackA = shiftFrontier(bt.Upper, st.shiftA)
		}
	})
	inB.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V2]) {
		for _, bt := range data {
			if !bt.Empty() {
				task := &joinTask[K, V2]{batch: bt, snap: st.ackA.Clone(), stamp: slices.Clone(stamp)}
				st.pendB = append(st.pendB, task)
				caps.Insert(stamp...)
			}
			st.ackB = shiftFrontier(bt.Upper, st.shiftB)
		}
	})

	// Fueled matching.
	fuel := joinFuel
	var outBuf []core.Update[K2, VO]
	for len(st.pendA) > 0 && fuel > 0 {
		task := st.pendA[0]
		fuel, st.scratchB = matchBatch(st.fnA, st.fnB, task, st.hB, st.shiftA, st.shiftB,
			fuel, st.scratchB,
			func(k K, v1 V1, t lattice.Time, d core.Diff, v2 V2, t2 lattice.Time, d2 core.Diff) {
				k2, vo := st.f(k, v1, v2)
				outBuf = append(outBuf, core.Update[K2, VO]{
					Key: k2, Val: vo, Time: t.Join(t2), Diff: d * d2,
				})
			})
		if task.ki < task.batch.NumKeys() {
			break
		}
		st.pendA = st.pendA[1:]
	}
	for len(st.pendB) > 0 && fuel > 0 {
		task := st.pendB[0]
		fuel, st.scratchA = matchBatch(st.fnB, st.fnA, task, st.hA, st.shiftB, st.shiftA,
			fuel, st.scratchA,
			func(k K, v2 V2, t lattice.Time, d core.Diff, v1 V1, t1 lattice.Time, d1 core.Diff) {
				k2, vo := st.f(k, v1, v2)
				outBuf = append(outBuf, core.Update[K2, VO]{
					Key: k2, Val: vo, Time: t.Join(t1), Diff: d * d1,
				})
			})
		if task.ki < task.batch.NumKeys() {
			break
		}
		st.pendB = st.pendB[1:]
	}

	// Emit buffered output, justified by the finished tasks' stamps, and only
	// then let those go: hold exactly the stamps of the tasks still pending.
	if len(outBuf) > 0 {
		var min lattice.Frontier
		for _, u := range outBuf {
			min.Insert(u.Time)
		}
		out.SendSlice(min.Elements(), outBuf)
	}
	st.held.Clear()
	for _, t := range st.pendA {
		for _, c := range t.stamp {
			st.held.Insert(c)
		}
	}
	for _, t := range st.pendB {
		for _, c := range t.stamp {
			st.held.Insert(c)
		}
	}
	caps.Downgrade(st.held)
	if len(st.pendA) > 0 || len(st.pendB) > 0 {
		ctx.Activate()
	}

	// Trace handle maintenance: logical frontiers advance by the opposite
	// input's frontier (and pending work); physical frontiers by the oldest
	// pending snapshot; handles drop when the opposite input is done.
	fA, fB := inA.Frontier(), inB.Frontier()
	if !st.hA.Dropped() {
		if fB.Empty() && len(st.pendB) == 0 {
			st.hA.Drop()
		} else {
			logical := fB.Clone()
			for _, t := range st.pendB {
				for _, c := range t.stamp {
					logical.Insert(c)
				}
			}
			phys := st.ackA
			if len(st.pendB) > 0 {
				phys = st.pendB[0].snap // oldest pending snapshot is the cut
			}
			st.hA.SetLogical(core.ProjectFrontier(logical, st.shiftA))
			st.hA.SetPhysical(core.ProjectFrontier(phys, st.shiftA))
		}
	}
	if !st.hB.Dropped() {
		if fA.Empty() && len(st.pendA) == 0 {
			st.hB.Drop()
		} else {
			logical := fA.Clone()
			for _, t := range st.pendA {
				for _, c := range t.stamp {
					logical.Insert(c)
				}
			}
			phys := st.ackB
			if len(st.pendA) > 0 {
				phys = st.pendA[0].snap
			}
			st.hB.SetLogical(core.ProjectFrontier(logical, st.shiftB))
			st.hB.SetPhysical(core.ProjectFrontier(phys, st.shiftB))
		}
	}
}

func shiftFrontier(f lattice.Frontier, n int) lattice.Frontier {
	if n == 0 {
		return f
	}
	var out lattice.Frontier
	for _, t := range f.Elements() {
		out.Insert(core.ShiftTime(t, n))
	}
	return out
}

// matchBatch joins one batch (side X) against the opposite trace through the
// task's snapshot, with alternating galloping seeks on BOTH sides (§5.3.1):
// the trace cursor gallops forward to the batch's current key, and when the
// trace has no such key the batch gallops forward to the trace's next key —
// a merge join over two sorted runs, so disjoint key ranges cost
// O(log distance) rather than one probe per batch key.
//
// For a key present on both sides, the trace's updates are collected once
// into scratch (one wide-value materialization per trace value, not one per
// batch update) and the product is emitted value by value, checking fuel at
// value boundaries: a skewed key with a huge product suspends mid-key instead
// of monopolizing the worker (§5.3.1 futures), and the resume gallops back to
// the recorded value with SeekVal. Returns the remaining fuel and the scratch
// for reuse; the task's (ki, resume) record the resume position.
func matchBatch[K, VX, VY any](fnX core.Funcs[K, VX], fnY core.Funcs[K, VY],
	task *joinTask[K, VX], hY *core.Handle[K, VY], shiftX, shiftY, fuel int,
	scratch []traceUpd[VY],
	pair func(k K, vx VX, tx lattice.Time, dx core.Diff, vy VY, ty lattice.Time, dy core.Diff)) (int, []traceUpd[VY]) {

	cur := hY.CursorThrough(core.ProjectFrontier(task.snap, shiftY))
	bt := task.batch
	// Advance the cursor to the resume key.
	if task.ki > 0 && task.ki < bt.NumKeys() {
		cur.SeekKey(bt.Keys[task.ki])
	}
	for task.ki < bt.NumKeys() && fuel > 0 {
		k := bt.Keys[task.ki]
		if cur.SeekKey(k) {
			scratch = scratch[:0]
			cur.ForUpdates(k, func(vy VY, ty lattice.Time, dy core.Diff) {
				scratch = append(scratch, traceUpd[VY]{vy, core.ShiftTime(ty, shiftY), dy})
			})
			lo, hi := bt.ValRange(task.ki)
			vi := lo
			if task.resumed {
				vi = bt.SeekVal(fnX, task.resume, lo, hi)
				task.resumed = false
			}
			for ; vi < hi; vi++ {
				if fuel <= 0 {
					// Suspend at a value boundary: each value's product is
					// emitted exactly once, so resuming at this value is safe.
					task.resume = bt.Vals.At(vi)
					task.resumed = true
					return fuel, scratch
				}
				vx := bt.Vals.At(vi)
				ul, uh := bt.UpdRange(vi)
				for ui := ul; ui < uh; ui++ {
					tx := core.ShiftTime(bt.UpdTime(ui), shiftX)
					dx := bt.Diffs[ui]
					for i := range scratch {
						pair(k, vx, tx, dx, scratch[i].v, scratch[i].t, scratch[i].d)
					}
					fuel -= len(scratch)
				}
			}
			fuel-- // charge for the key visit
			task.ki++
			continue
		}
		fuel--
		// Trace misses k — including a k whose history legitimately cancelled
		// under compaction while the task was suspended mid-key: any recorded
		// resume value belongs to k and must not constrain the next key.
		task.resumed = false
		// The trace cursors now sit at keys strictly beyond k, so gallop the
		// batch forward to the smallest trace key instead of probing every
		// batch key in between.
		nk, ok := cur.PeekKey()
		if !ok {
			task.ki = bt.NumKeys() // trace exhausted; nothing left to match
			break
		}
		task.ki = bt.SeekKey(fnX, nk, task.ki+1)
	}
	return fuel, scratch
}
