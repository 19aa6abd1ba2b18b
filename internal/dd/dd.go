// Package dd implements differential dataflow on top of the timely runtime
// and the shared-arrangement core: time-varying collections defined by
// functional operators (map, filter, concat, join, reduce, iterate, ...),
// interactively updated through input handles, with incremental output
// maintenance. Stateful operators are decomposed, as in the paper, into
// arrangements plus thin shells that consume streams of shared indexed
// batches.
package dd

import (
	"sync"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// Collection is a time-varying multiset of (key, value) records, represented
// as a stream of update triples. Unkeyed collections use V = core.Unit.
type Collection[K, V any] struct {
	S *timely.Stream[core.Update[K, V]]
}

// Graph returns the dataflow graph the collection belongs to.
func (c Collection[K, V]) Graph() *timely.Graph { return c.S.Graph() }

// InputCollection is the per-worker handle for interactively updating an
// input collection.
type InputCollection[K, V any] struct {
	H *timely.Input[core.Update[K, V]]
}

// NewInput creates an input collection and this worker's update handle.
func NewInput[K, V any](g *timely.Graph) (*InputCollection[K, V], Collection[K, V]) {
	h, s := timely.NewInput[core.Update[K, V]](g)
	return &InputCollection[K, V]{H: h}, Collection[K, V]{S: s}
}

// Insert adds one copy of (k, v) at the current epoch.
func (ic *InputCollection[K, V]) Insert(k K, v V) { ic.UpdateAt(k, v, 1) }

// Remove deletes one copy of (k, v) at the current epoch.
func (ic *InputCollection[K, V]) Remove(k K, v V) { ic.UpdateAt(k, v, -1) }

// UpdateAt applies a signed multiplicity change at the current epoch.
func (ic *InputCollection[K, V]) UpdateAt(k K, v V, diff core.Diff) {
	ic.H.Send(core.Update[K, V]{Key: k, Val: v, Time: lattice.Ts(ic.H.Epoch()), Diff: diff})
}

// SendSlice introduces a batch of updates; their times must be at the
// handle's current epoch or later.
func (ic *InputCollection[K, V]) SendSlice(upds []core.Update[K, V]) {
	ic.H.SendSlice(upds)
}

// AdvanceTo closes all epochs before the given one.
func (ic *InputCollection[K, V]) AdvanceTo(epoch uint64) { ic.H.AdvanceTo(epoch) }

// Epoch returns the handle's current epoch.
func (ic *InputCollection[K, V]) Epoch() uint64 { return ic.H.Epoch() }

// Close retires the handle.
func (ic *InputCollection[K, V]) Close() { ic.H.Close() }

// Map transforms each record; diffs and times pass through. Because the
// output key may differ, downstream stateful operators re-arrange (the
// paper's "key-altering" operators, §5.2).
func Map[K1, V1, K2, V2 any](c Collection[K1, V1], f func(K1, V1) (K2, V2)) Collection[K2, V2] {
	s := timely.Unary[core.Update[K1, V1], core.Update[K2, V2]](c.S, "Map", nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K1, V1]], out *timely.Out[core.Update[K2, V2]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K1, V1]) {
				mapped := make([]core.Update[K2, V2], len(data))
				for i, u := range data {
					k2, v2 := f(u.Key, u.Val)
					mapped[i] = core.Update[K2, V2]{Key: k2, Val: v2, Time: u.Time, Diff: u.Diff}
				}
				out.SendSlice(stamp, mapped)
			})
		})
	return Collection[K2, V2]{S: s}
}

// Filter keeps records satisfying the predicate (a "key-preserving"
// operator, §5.1).
func Filter[K, V any](c Collection[K, V], pred func(K, V) bool) Collection[K, V] {
	s := timely.Unary[core.Update[K, V], core.Update[K, V]](c.S, "Filter", nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				kept := make([]core.Update[K, V], 0, len(data))
				for _, u := range data {
					if pred(u.Key, u.Val) {
						kept = append(kept, u)
					}
				}
				out.SendSlice(stamp, kept)
			})
		})
	return Collection[K, V]{S: s}
}

// Concat merges two collections (multiset union).
func Concat[K, V any](a, b Collection[K, V]) Collection[K, V] {
	s := timely.Binary[core.Update[K, V], core.Update[K, V], core.Update[K, V]](
		a.S, b.S, "Concat", nil, nil,
		func(ctx *timely.Ctx, inA, inB *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, V]]) {
			fwd := func(stamp []lattice.Time, data []core.Update[K, V]) {
				out.SendSlice(stamp, data)
			}
			inA.ForEach(fwd)
			inB.ForEach(fwd)
		})
	return Collection[K, V]{S: s}
}

// Negate flips the sign of every multiplicity.
func Negate[K, V any](c Collection[K, V]) Collection[K, V] {
	s := timely.Unary[core.Update[K, V], core.Update[K, V]](c.S, "Negate", nil, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]], out *timely.Out[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				neg := make([]core.Update[K, V], len(data))
				for i, u := range data {
					u.Diff = -u.Diff
					neg[i] = u
				}
				out.SendSlice(stamp, neg)
			})
		})
	return Collection[K, V]{S: s}
}

// Inspect invokes f on every update triple flowing past (terminal).
func Inspect[K, V any](c Collection[K, V], f func(k K, v V, t lattice.Time, d core.Diff)) {
	timely.Sink(c.S, "Inspect", nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				for _, u := range data {
					f(u.Key, u.Val, u.Time, u.Diff)
				}
			})
		})
}

// Probe attaches a frontier probe to the collection.
func Probe[K, V any](c Collection[K, V]) *timely.Probe {
	return timely.NewProbe(c.S)
}

// Capture accumulates every update into a mutex-guarded log (for tests and
// small outputs). The returned accumulator is shared across workers.
type Captured[K comparable, V comparable] struct {
	mu   sync.Mutex
	upds []core.Update[K, V]
}

// Capture attaches an accumulator sink to the collection. Call on every
// worker with the same accumulator created outside Execute, or per worker.
func Capture[K comparable, V comparable](c Collection[K, V], into *Captured[K, V]) {
	timely.Sink(c.S, "Capture", nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				into.mu.Lock()
				into.upds = append(into.upds, data...)
				into.mu.Unlock()
			})
		})
}

// At accumulates the captured collection as of time t into a map from
// record to net multiplicity (zero entries removed).
func (cp *Captured[K, V]) At(t lattice.Time) map[[2]any]core.Diff {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make(map[[2]any]core.Diff)
	for _, u := range cp.upds {
		if u.Time.LessEqual(t) {
			key := [2]any{u.Key, u.Val}
			out[key] += u.Diff
			if out[key] == 0 {
				delete(out, key)
			}
		}
	}
	return out
}

// Updates returns a copy of all captured raw updates.
func (cp *Captured[K, V]) Updates() []core.Update[K, V] {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return append([]core.Update[K, V](nil), cp.upds...)
}

// Record is a typed (key, value) pair, the map key of a View's snapshot.
type Record[K comparable, V comparable] struct {
	Key K
	Val V
}

// View maintains the net collection of a stream: updates fold into a
// mutex-guarded accumulator as they arrive (zero entries removed), so
// memory stays proportional to the live result set rather than the update
// history — unlike Captured, which logs every update. The fold ignores
// times: a snapshot reflects everything delivered so far, which at a
// quiescent point (after waiting on the collection's probe) is the net
// collection. The accumulator is shared across workers.
type View[K comparable, V comparable] struct {
	mu  sync.Mutex
	acc map[Record[K, V]]core.Diff
}

// Watch attaches a consolidating sink feeding the view. Call on every
// worker with a view created outside the dataflow build.
func Watch[K comparable, V comparable](c Collection[K, V], into *View[K, V]) {
	timely.Sink(c.S, "Watch", nil,
		func(ctx *timely.Ctx, in *timely.In[core.Update[K, V]]) {
			in.ForEach(func(stamp []lattice.Time, data []core.Update[K, V]) {
				into.mu.Lock()
				if into.acc == nil {
					into.acc = make(map[Record[K, V]]core.Diff)
				}
				for _, u := range data {
					key := Record[K, V]{u.Key, u.Val}
					into.acc[key] += u.Diff
					if into.acc[key] == 0 {
						delete(into.acc, key)
					}
				}
				into.mu.Unlock()
			})
		})
}

// Snapshot returns a copy of the current net collection.
func (v *View[K, V]) Snapshot() map[Record[K, V]]core.Diff {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[Record[K, V]]core.Diff, len(v.acc))
	for k, d := range v.acc {
		out[k] = d
	}
	return out
}
