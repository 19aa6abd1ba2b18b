package plan

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/dd"
)

// Build compiles a validated plan onto a live dataflow graph. Leaves resolve
// through Env: base relations import a server source's arrangement by
// snapshot, and stateful sub-plans already installed by another query import
// that query's arrangement instead of rebuilding it — arrange once, share
// everywhere, applied inside the query language.

// Env resolves plan leaves to live dataflow resources. The closures capture
// the graph under construction (and typically record imports for teardown).
type Env struct {
	// Source imports the named base relation's arrangement.
	Source func(rel string) (*core.Arranged[uint64, uint64], error)
	// Shared resolves a canonical sub-plan key (Node.Key) to an installed
	// arrangement of that sub-plan's output, or nil to build it locally.
	// Optional.
	Shared func(key string) *core.Arranged[uint64, uint64]
}

// ErrBuild reports a plan that cannot be built onto a dataflow.
var ErrBuild = errors.New("plan: build error")

func buildErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBuild, fmt.Sprintf(format, args...))
}

// Build constructs the dataflow for root and returns its output collection.
// Identical sub-plans (by canonical key) are built once and reused.
func Build(root *Node, env Env) (dd.Collection[uint64, uint64], error) {
	s, err := newScope(root, env)
	if err != nil {
		return dd.Collection[uint64, uint64]{}, err
	}
	return s.build(root)
}

// BuildArranged is Build returning root's output as an arrangement: the one
// root's own operator maintains — a Distinct's or Count's reduce output, a
// base relation's or shared sub-plan's import — and a fresh one only for a
// root that has none (a join or fixpoint). Sharing that arrangement shares
// the only copy of the output there is.
func BuildArranged(root *Node, env Env) (*core.Arranged[uint64, uint64], error) {
	s, err := newScope(root, env)
	if err != nil {
		return nil, err
	}
	return s.arranged(root)
}

// newScope validates root and returns the top-level scope to build it in.
func newScope(root *Node, env Env) (*scope, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return &scope{
		env:   env,
		label: "plan",
		cols:  map[string]dd.Collection[uint64, uint64]{},
		arrs:  map[string]*core.Arranged[uint64, uint64]{},
	}, nil
}

// scope builds nodes at one nesting level: the top level (parent == nil) or
// the iteration scope of one Fixpoint. Collections and arrangements are
// memoized per scope by canonical key, since a stream belongs to the scope
// it was built in.
type scope struct {
	env    Env
	parent *scope
	label  string // operator-name prefix for what this scope arranges

	// An iteration scope's definitions: their names, the containsRec memo
	// for them, and one loop variable each. All nil at top level.
	defs map[string]bool
	crm  map[*Node]bool
	vars map[string]*dd.Variable[uint64, uint64]

	cols map[string]dd.Collection[uint64, uint64]
	arrs map[string]*core.Arranged[uint64, uint64]
}

// outer reports whether n belongs to the enclosing scope: inside a Fixpoint,
// a sub-plan that references none of its definitions is built (or resolved)
// outside the loop and brought in with Enter/EnterArranged, so its
// arrangements stay shared with everything outside.
func (s *scope) outer(n *Node) bool {
	return s.parent != nil && !containsRec(n, s.defs, s.crm)
}

func (s *scope) build(n *Node) (dd.Collection[uint64, uint64], error) {
	key := n.Key()
	if c, ok := s.cols[key]; ok {
		return c, nil
	}
	var c dd.Collection[uint64, uint64]
	if s.outer(n) {
		oc, err := s.parent.build(n)
		if err != nil {
			return c, err
		}
		c = dd.Enter(oc)
	} else {
		a, err := s.resident(n)
		if err != nil {
			return c, err
		}
		if a != nil {
			c = dd.Flatten(a)
		} else if c, err = s.buildOp(n); err != nil {
			return c, err
		}
	}
	s.cols[key] = c
	return c, nil
}

// resident returns n's output as an arrangement that exists without building
// n: one already at hand, a shared installation of a stateful sub-plan, or a
// base relation's import. Nil means n has to be built — always so inside a
// loop, where n depends on the loop's variables. Each is resolved once per
// plan, whether it is then flattened, joined or looked up.
func (s *scope) resident(n *Node) (*core.Arranged[uint64, uint64], error) {
	if s.parent != nil {
		return nil, nil
	}
	key := n.Key()
	if a, ok := s.arrs[key]; ok {
		return a, nil
	}
	var a *core.Arranged[uint64, uint64]
	switch {
	case n.Op == OpScan:
		if s.env.Source == nil {
			return nil, buildErrf("no source resolver for relation %q", n.Rel)
		}
		var err error
		if a, err = s.env.Source(n.Rel); err != nil {
			return nil, err
		}
	case n.Stateful() && s.env.Shared != nil:
		a = s.env.Shared(key)
	}
	if a != nil {
		s.arrs[key] = a
	}
	return a, nil
}

// arranged returns an arrangement of n's output, preferring (in order) one
// already at hand, the enclosing scope's, a shared installation or source
// import, the arranged output a Distinct or Count reduce produces, and only
// then arranging afresh.
func (s *scope) arranged(n *Node) (*core.Arranged[uint64, uint64], error) {
	key := n.Key()
	if a, ok := s.arrs[key]; ok {
		return a, nil
	}
	if s.outer(n) {
		oa, err := s.parent.arranged(n)
		if err != nil {
			return nil, err
		}
		a := dd.EnterArranged(oa, nodeName("plan-enter", n))
		s.arrs[key] = a
		return a, nil
	}
	a, err := s.resident(n)
	if err != nil || a != nil {
		return a, err
	}
	switch n.Op {
	case OpDistinct:
		ia, err := s.arranged(n.In)
		if err != nil {
			return nil, err
		}
		a = dd.DistinctCore(ia)
	case OpCount:
		if s.parent != nil {
			return nil, buildErrf("%s on a recursive path", n.Op)
		}
		ia, err := s.arranged(n.In)
		if err != nil {
			return nil, err
		}
		a = dd.ReduceCore(ia, core.U64(), nodeName("plan-count", n), count)
	default:
		c, err := s.build(n)
		if err != nil {
			return nil, err
		}
		a = dd.Arrange(c, core.U64(), nodeName(s.label, n))
	}
	s.arrs[key] = a
	return a, nil
}

// count is a Count node's reducer: each key with the total multiplicity of
// its records, as dd.CountCore computes it.
func count(_ uint64, in []dd.ValDiff[uint64], out *[]dd.ValDiff[uint64]) {
	var total core.Diff
	for _, e := range in {
		total += e.Diff
	}
	*out = append(*out, dd.ValDiff[uint64]{Val: uint64(total), Diff: 1})
}

func (s *scope) buildOp(n *Node) (dd.Collection[uint64, uint64], error) {
	var zero dd.Collection[uint64, uint64]
	if s.parent != nil && n.Op == OpFixpoint {
		return zero, buildErrf("%s on a recursive path", n.Op)
	}
	switch n.Op {
	case OpRec:
		v, ok := s.vars[n.Rel]
		if !ok {
			return zero, buildErrf("recursive reference %q outside its fixpoint", n.Rel)
		}
		return v.Collection(), nil
	case OpFilter:
		if n.FOp == FKeyEq {
			// A look-up into something already arranged seeks the key in each
			// batch instead of flattening the relation and filtering it.
			a, err := s.resident(n.In)
			if err != nil {
				return zero, err
			}
			if a != nil {
				return dd.FlattenKey(a, n.A), nil
			}
		}
		in, err := s.build(n.In)
		if err != nil {
			return zero, err
		}
		return dd.Filter(in, func(k, v uint64) bool { return filterKeep(n, k, v) }), nil
	case OpProject:
		in, err := s.build(n.In)
		if err != nil {
			return zero, err
		}
		c0, c1 := n.Cols[0], n.Cols[1]
		return dd.Map(in, func(k, v uint64) (uint64, uint64) {
			rec := [2]uint64{k, v}
			return projCol(c0, rec), projCol(c1, rec)
		}), nil
	case OpUnion:
		l, err := s.build(n.In)
		if err != nil {
			return zero, err
		}
		r, err := s.build(n.Right)
		if err != nil {
			return zero, err
		}
		return dd.Concat(l, r), nil
	case OpJoin:
		la, err := s.arranged(n.In)
		if err != nil {
			return zero, err
		}
		ra, err := s.arranged(n.Right)
		if err != nil {
			return zero, err
		}
		return joinNode(la, ra, n), nil
	case OpCount, OpDistinct:
		a, err := s.arranged(n)
		if err != nil {
			return zero, err
		}
		return dd.Flatten(a), nil
	case OpFixpoint:
		return s.buildFix(n)
	}
	return zero, buildErrf("unknown op %d", n.Op)
}

// buildFix builds a Fixpoint: an iteration scope under s with one Variable
// per definition.
func (s *scope) buildFix(n *Node) (dd.Collection[uint64, uint64], error) {
	var zero dd.Collection[uint64, uint64]
	in := &scope{
		env:    s.env,
		parent: s,
		label:  "plan-iter",
		defs:   map[string]bool{},
		crm:    map[*Node]bool{},
		vars:   map[string]*dd.Variable[uint64, uint64]{},
		cols:   map[string]dd.Collection[uint64, uint64]{},
		arrs:   map[string]*core.Arranged[uint64, uint64]{},
	}
	for _, d := range n.Defs {
		in.defs[d.Name] = true
	}
	base := findBase(n, in.defs, in.crm)
	if base == nil {
		return zero, buildErrf("fixpoint %q has no recursion-free sub-plan to seed its scope", n.Out)
	}
	baseCol, err := s.build(base)
	if err != nil {
		return zero, err
	}
	// Variables start empty; each definition's body feeds its variable, so
	// the loop carries exactly the derived facts.
	empty := dd.Filter(dd.Enter(baseCol), func(uint64, uint64) bool { return false })
	for _, d := range n.Defs {
		in.vars[d.Name] = dd.NewVariable(empty)
	}
	var out dd.Collection[uint64, uint64]
	for _, d := range n.Defs {
		val, err := in.build(d.Body)
		if err != nil {
			return zero, err
		}
		in.vars[d.Name].Set(val)
		if d.Name == n.Out {
			out = val
		}
	}
	return dd.Leave(out), nil
}

// findBase returns the first maximal recursion-free sub-plan of the
// fixpoint's bodies, or nil if every path loops. crm is a containsRec memo
// for defs, shared with the caller.
func findBase(n *Node, defs map[string]bool, crm map[*Node]bool) *Node {
	visited := map[*Node]bool{}
	var walk func(m *Node) *Node
	walk = func(m *Node) *Node {
		if m == nil || visited[m] {
			return nil
		}
		visited[m] = true
		if !containsRec(m, defs, crm) {
			return m
		}
		if r := walk(m.In); r != nil {
			return r
		}
		return walk(m.Right)
	}
	for _, d := range n.Defs {
		if r := walk(d.Body); r != nil {
			return r
		}
	}
	return nil
}

// joinNode applies a Join node to two arrangements. A value-equality join
// carries both values through the join shell and filters, since the shell's
// projection cannot drop records.
func joinNode(la, ra *core.Arranged[uint64, uint64], n *Node) dd.Collection[uint64, uint64] {
	name := nodeName("plan-join", n)
	p0, p1 := n.Proj[0], n.Proj[1]
	if !n.EqVals {
		return dd.JoinCore(la, ra, name, func(k, v, w uint64) (uint64, uint64) {
			return joinCol(p0, k, v, w), joinCol(p1, k, v, w)
		})
	}
	pairs := dd.JoinCore(la, ra, name, func(k, v, w uint64) ([2]uint64, [2]uint64) {
		return [2]uint64{v, w}, [2]uint64{joinCol(p0, k, v, w), joinCol(p1, k, v, w)}
	})
	kept := dd.Filter(pairs, func(vw, _ [2]uint64) bool { return vw[0] == vw[1] })
	return dd.Map(kept, func(_, o [2]uint64) (uint64, uint64) { return o[0], o[1] })
}

// nodeName derives a stable operator label from the node's canonical key.
func nodeName(prefix string, n *Node) string {
	h := fnv.New64a()
	h.Write([]byte(n.Key()))
	return fmt.Sprintf("%s-%016x", prefix, h.Sum64())
}
