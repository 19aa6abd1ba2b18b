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

// joinChunk bounds the updates of one output message. The runtime owns what
// is sent, so a buffer cannot be reused; one grown by append to a schedule's
// whole output would allocate several times what it sends.
const joinChunk = 1024

// JoinCore is the thin join shell over two arranged inputs sharing the same
// key type. For every key it pairs values from both sides, emitting
// f(k, v1, v2) at the join (least upper bound) of the two update times, with
// the product of the multiplicities.
//
// The implementation follows §5.3.1: per-shard arrival order decides which
// side's trace a new batch is matched against (each pair of updates is
// counted exactly once); matching uses alternating seeks between the batch
// and trace cursors; trace handles are downgraded by the opposite input's
// frontier and dropped when the opposite input closes. Each input is one
// joinSide, and every step is written once and applied to both.
func JoinCore[K, V1, V2, K2, VO any](a *core.Arranged[K, V1], b *core.Arranged[K, V2],
	name string, f func(K, V1, V2) (K2, VO)) Collection[K2, VO] {

	if a.Stream.Depth() != b.Stream.Depth() {
		panic("dd: JoinCore inputs at different depths")
	}
	sa, sb := newJoinSide(a), newJoinSide(b)
	var held lattice.Frontier // scratch: the antichain of pending tasks' stamps
	s := timely.Binary[*core.Batch[K, V1], *core.Batch[K, V2], core.Update[K2, VO]](
		a.Stream, b.Stream, name, nil, nil,
		func(ctx *timely.Ctx, inA *timely.In[*core.Batch[K, V1]],
			inB *timely.In[*core.Batch[K, V2]], out *timely.Out[core.Update[K2, VO]]) {

			// Arrival order fixes each batch's view of the other trace: a's
			// batches see b's trace as acknowledged before this schedule, b's
			// see a's including a's batches just ingested, so every pair of
			// updates is counted once, a self-join's included.
			caps := out.Caps()
			sa.ingest(inA, sb.ack, caps)
			sb.ingest(inB, sa.ack, caps)

			// Output goes out in chunks of at most joinChunk updates, each
			// with its own minimal times, all before the downgrade below.
			// The first chunk grows by append, so a schedule with little
			// output allocates little; later ones are allocated whole.
			var outBuf []core.Update[K2, VO]
			send := func() {
				var min lattice.Frontier
				for _, u := range outBuf {
					min.Insert(u.Time)
				}
				out.SendSlice(min.Elements(), outBuf)
			}
			pair := func(k K, v1 V1, t1 lattice.Time, d1 core.Diff, v2 V2, t2 lattice.Time, d2 core.Diff) {
				if len(outBuf) == joinChunk {
					send()
					outBuf = make([]core.Update[K2, VO], 0, joinChunk)
				}
				k2, vo := f(k, v1, v2)
				outBuf = append(outBuf, core.Update[K2, VO]{Key: k2, Val: vo, Time: t1.Join(t2), Diff: d1 * d2})
			}
			fuel := drain(sa, sb, joinFuel, pair)
			drain(sb, sa, fuel, func(k K, v2 V2, t2 lattice.Time, d2 core.Diff, v1 V1, t1 lattice.Time, d1 core.Diff) {
				pair(k, v1, t1, d1, v2, t2, d2)
			})

			// Emit the last chunk, justified by the finished tasks' stamps,
			// and only then let those go: hold exactly the stamps of the
			// tasks still pending.
			if len(outBuf) > 0 {
				send()
			}
			held.Clear()
			sa.holdStamps(&held)
			sb.holdStamps(&held)
			caps.Downgrade(held)
			if len(sa.pend) > 0 || len(sb.pend) > 0 {
				ctx.Activate()
			}

			follow(sa, sb, inB.Frontier())
			follow(sb, sa, inA.Frontier())
		})
	return Collection[K2, VO]{S: s}
}

type joinTask[K, V any] struct {
	batch *core.Batch[K, V]
	snap  lattice.Frontier // the other side's ack at arrival (stream domain)
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

// joinSide is one input of a join: its arrangement's functions and shift,
// the join's handle on its trace, the frontier its batches have reached
// (ack, in the stream domain), its batches still to match against the other
// side's trace, and scratch for its own trace's updates of the key under
// match.
type joinSide[K, V any] struct {
	fn      core.Funcs[K, V]
	h       *core.Handle[K, V]
	shift   int
	ack     lattice.Frontier
	pend    []*joinTask[K, V]
	scratch []traceUpd[V]
}

func newJoinSide[K, V any](a *core.Arranged[K, V]) *joinSide[K, V] {
	s := &joinSide[K, V]{
		fn: a.Agent.Fn, h: a.Agent.NewHandle(), shift: a.Shift,
		ack: lattice.MinFrontier(a.Stream.Depth()),
	}
	s.h.SetPhysical(core.ProjectFrontier(s.ack, s.shift))
	return s
}

// ingest queues in's non-empty batches, each with a snapshot of the other
// side's ack, holds their stamps in caps and advances s's ack.
func (s *joinSide[K, V]) ingest(in *timely.In[*core.Batch[K, V]], other lattice.Frontier, caps *timely.CapSet) {
	in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
		for _, bt := range data {
			if !bt.Empty() {
				s.pend = append(s.pend, &joinTask[K, V]{batch: bt, snap: other.Clone(), stamp: slices.Clone(stamp)})
				caps.Insert(stamp...)
			}
			s.ack = shiftFrontier(bt.Upper, s.shift)
		}
	})
}

// holdStamps inserts the stamps of s's pending tasks into f.
func (s *joinSide[K, V]) holdStamps(f *lattice.Frontier) {
	for _, t := range s.pend {
		for _, c := range t.stamp {
			f.Insert(c)
		}
	}
}

// drain matches x's pending tasks, oldest first, against y's trace until
// fuel runs out, and returns the fuel left.
func drain[K, VX, VY any](x *joinSide[K, VX], y *joinSide[K, VY], fuel int,
	pair func(k K, vx VX, tx lattice.Time, dx core.Diff, vy VY, ty lattice.Time, dy core.Diff)) int {

	for len(x.pend) > 0 && fuel > 0 {
		task := x.pend[0]
		fuel, y.scratch = matchBatch(x.fn, y.fn, task, y.h, x.shift, y.shift, fuel, y.scratch, pair)
		if task.ki < task.batch.NumKeys() {
			break
		}
		x.pend[0] = nil
		x.pend = x.pend[1:]
	}
	return fuel
}

// follow maintains x's handle, which serves y's batches: y's input frontier
// and pending stamps set its logical frontier, y's oldest pending snapshot
// (x's ack when none is pending) its physical one, and it drops once y is
// done.
func follow[K, VX, VY any](x *joinSide[K, VX], y *joinSide[K, VY], yFrontier lattice.Frontier) {
	if x.h.Dropped() {
		return
	}
	if yFrontier.Empty() && len(y.pend) == 0 {
		x.h.Drop()
		return
	}
	logical := yFrontier.Clone()
	y.holdStamps(&logical)
	phys := x.ack
	if len(y.pend) > 0 {
		phys = y.pend[0].snap
	}
	x.h.SetLogical(core.ProjectFrontier(logical, x.shift))
	x.h.SetPhysical(core.ProjectFrontier(phys, x.shift))
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
