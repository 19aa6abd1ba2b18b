package dd

import (
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// Arrange indexes the collection by key, producing the shared arrangement
// that stateful shells (join, reduce, ...) and other dataflows consume.
func Arrange[K, V any](c Collection[K, V], fn core.Funcs[K, V], name string) *core.Arranged[K, V] {
	return core.Arrange(c.S, fn, name, core.ArrangeOptions[K, V]{})
}

// ArrangeOpts is Arrange with explicit options.
func ArrangeOpts[K, V any](c Collection[K, V], fn core.Funcs[K, V], name string,
	opt core.ArrangeOptions[K, V]) *core.Arranged[K, V] {
	return core.Arrange(c.S, fn, name, opt)
}

// Flatten turns an arranged stream of batches back into a stream of update
// triples (reducing an arrangement to a collection, §5.1).
func Flatten[K, V any](a *core.Arranged[K, V]) Collection[K, V] {
	return flatten(a, "Flatten", true, func(b *core.Batch[K, V], f func(K, V, lattice.Time, core.Diff)) {
		b.ForEach(f)
	})
}

// FlattenKey is Flatten restricted to the records of key k: one seek per
// batch — replayed as-of views and live batches alike — instead of a pass
// over it, so a look-up against a large arrangement costs what it returns.
// It equals Filter(Flatten(a), key == k), time for time.
func FlattenKey[K, V any](a *core.Arranged[K, V], k K) Collection[K, V] {
	fn := a.Agent.Fn
	return flatten(a, "FlattenKey", false, func(b *core.Batch[K, V], f func(K, V, lattice.Time, core.Diff)) {
		b.ForKey(fn, k, func(v V, t lattice.Time, d core.Diff) { f(k, v, t, d) })
	})
}

// flatten emits, per batch, the updates visit enumerates, at the times the
// arrangement's scope reads them. With whole, visit enumerates every update
// of a batch, and the output is sized once from the batches' lengths
// instead of grown. Only Flatten passes it: FlattenKey's visit yields one
// key's few updates, and allocating (and zeroing) a whole batch's worth per
// look-up costs more than the growth it would save — it slowed Datalog
// look-up installs measurably.
func flatten[K, V any](a *core.Arranged[K, V], name string, whole bool,
	visit func(b *core.Batch[K, V], f func(K, V, lattice.Time, core.Diff))) Collection[K, V] {

	shift := a.Shift
	s := timely.Unary[*core.Batch[K, V], core.Update[K, V]](a.Stream, name, nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[*core.Batch[K, V]], out *timely.Out[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
				var upds []core.Update[K, V]
				if whole {
					n := 0
					for _, b := range data {
						n += b.Len()
					}
					upds = make([]core.Update[K, V], 0, n)
				}
				for _, b := range data {
					visit(b, func(k K, v V, t lattice.Time, d core.Diff) {
						upds = append(upds, core.Update[K, V]{
							Key: k, Val: v, Time: core.ShiftTime(t, shift), Diff: d,
						})
					})
				}
				out.SendSlice(stamp, upds)
			})
		})
	return Collection[K, V]{S: s}
}

// Consolidate exchanges records by key and coalesces updates with equal
// (key, val, time), emitting each surviving update exactly once per frontier
// advance. Physically batched, logically faithful (Principle 1). It is an
// arrangement read back as a collection: its trace, which nothing else
// reads, compacts behind the sealed upper.
func Consolidate[K, V any](c Collection[K, V], fn core.Funcs[K, V]) Collection[K, V] {
	return Flatten(Arrange(c, fn, "Consolidate"))
}

// EnterArranged brings an arrangement into an iteration scope without
// copying: batches and trace remain shared; only the interpretation of
// times shifts (§5.4). The resulting arrangement may be used by joins inside
// the scope.
func EnterArranged[K, V any](a *core.Arranged[K, V], name string) *core.Arranged[K, V] {
	s := timely.Unary[*core.Batch[K, V], *core.Batch[K, V]](a.Stream, name, nil, timely.SumEnter, nil,
		func(ctx *timely.Ctx, in *timely.In[*core.Batch[K, V]], out *timely.Out[*core.Batch[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []*core.Batch[K, V]) {
				entered := make([]lattice.Time, len(stamp))
				for i, t := range stamp {
					entered[i] = t.Enter()
				}
				out.SendSlice(entered, data)
			})
		})
	return &core.Arranged[K, V]{Stream: s, Agent: a.Agent, Shift: a.Shift + 1}
}

// Enter brings a collection into an iteration scope: records are introduced
// at loop coordinate zero and persist across iterations.
func Enter[K, V any](c Collection[K, V]) Collection[K, V] {
	s := timely.Unary[core.Update[K, V], core.Update[K, V]](c.S, "Enter", nil, timely.SumEnter, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				entered := make([]lattice.Time, len(stamp))
				for i, t := range stamp {
					entered[i] = t.Enter()
				}
				mapped := make([]core.Update[K, V], len(data))
				for i, u := range data {
					u.Time = u.Time.Enter()
					mapped[i] = u
				}
				out.SendSlice(entered, mapped)
			})
		})
	return Collection[K, V]{S: s}
}

// Leave returns a collection from an iteration scope: updates at (t, i)
// reappear at t, so the outer collection accumulates to the loop's limit.
func Leave[K, V any](c Collection[K, V]) Collection[K, V] {
	s := timely.Unary[core.Update[K, V], core.Update[K, V]](c.S, "Leave", nil, timely.SumLeave, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				left := make([]lattice.Time, 0, len(stamp))
				var lf lattice.Frontier
				for _, t := range stamp {
					lf.Insert(t.Leave())
				}
				left = append(left, lf.Elements()...)
				mapped := make([]core.Update[K, V], len(data))
				for i, u := range data {
					u.Time = u.Time.Leave()
					mapped[i] = u
				}
				out.SendSlice(left, mapped)
			})
		})
	return Collection[K, V]{S: s}
}
