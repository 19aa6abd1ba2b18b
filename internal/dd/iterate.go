package dd

import (
	"repro/internal/core"
	"repro/internal/timely"
)

// Variable is a recursively defined collection (§5.4): created inside an
// iteration scope from an initial collection, used freely in rule bodies,
// and closed with Set. Multiple Variables in one scope express mutual
// recursion.
//
// Semantics: at loop round 0 the variable equals its source; at round i+1 it
// equals the value Set at round i. The feedback carries (value ⊖ source)
// with the round coordinate incremented — "the result is merged with the
// negation of the initial input collection, and all changes are returned
// around the loop to the head".
type Variable[K, V any] struct {
	source Collection[K, V] // entered initial collection
	fb     *timely.Feedback[core.Update[K, V]]
	col    Collection[K, V]
	closed bool
}

// NewVariable creates a Variable whose round-0 value is source, which must
// already be inside the iteration scope (depth ≥ 2, via Enter).
func NewVariable[K, V any](source Collection[K, V]) *Variable[K, V] {
	depth := source.S.Depth()
	if depth < 2 {
		panic("dd: NewVariable requires an entered collection (use Enter)")
	}
	fb := timely.NewFeedback[core.Update[K, V]](source.Graph(), depth,
		func(u core.Update[K, V]) core.Update[K, V] {
			u.Time = u.Time.Step()
			return u
		})
	col := Concat(source, Collection[K, V]{S: fb.Stream()})
	return &Variable[K, V]{source: source, fb: fb, col: col}
}

// Collection returns the variable's stream for use in rule bodies.
func (v *Variable[K, V]) Collection() Collection[K, V] { return v.col }

// Set closes the recursion with the variable's defining value. Must be
// called exactly once. The value must be consolidating (e.g. pass through
// Distinct) for the iteration to reach a fixed point.
func (v *Variable[K, V]) Set(value Collection[K, V]) {
	if v.closed {
		panic("dd: Variable set twice")
	}
	v.closed = true
	delta := Concat(value, Negate(v.source))
	v.fb.Connect(delta.S, nil)
}

// Iterate applies body to the collection repeatedly until fixed point: the
// result is body's fixed point starting from c (the paper's iterate
// operator). The body must consolidate (e.g. end in Distinct) to converge.
func Iterate[K, V any](c Collection[K, V],
	body func(Collection[K, V]) Collection[K, V]) Collection[K, V] {

	entered := Enter(c)
	v := NewVariable(entered)
	result := body(v.Collection())
	v.Set(result)
	return Leave(result)
}

// IterateFrom runs an iteration scope with an empty starting collection,
// seeding from `seed` which persists across rounds (useful for semi-naive
// Datalog-style evaluation where the rules re-derive everything).
func IterateFrom[K, V any](seed Collection[K, V],
	body func(seed, recur Collection[K, V]) Collection[K, V]) Collection[K, V] {

	enteredSeed := Enter(seed)
	v := NewVariable(enteredSeed)
	result := body(enteredSeed, v.Collection())
	v.Set(result)
	return Leave(result)
}
