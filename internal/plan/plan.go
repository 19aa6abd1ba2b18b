// Package plan is the relational query front-end: a small
// relational-algebra IR over named (uint64, uint64) relations, a Datalog
// surface syntax compiled by a greedy join planner, a canonical wire
// encoding, and a compiler onto live differential dataflows.
//
// Every node consumes and produces binary relations — collections of
// (key, value) pairs — so plans compose freely and any node's output can be
// arranged, shared, and streamed with the machinery the rest of the system
// already has. The IR is deliberately small:
//
//	Scan     — a named base relation (a server source)
//	Rec      — a recursive reference to a Fixpoint definition
//	Filter   — pointwise predicates (equality, inequality, key/value relations)
//	Project  — rearrange the two columns (swap, duplicate)
//	Union    — multiset union
//	Join     — equi-join on key, with a 2-of-3 output projection
//	Count    — per-key multiplicity count
//	Distinct — reduce to set semantics
//	Fixpoint — mutually recursive definitions, evaluated to fixed point
//
// Nodes are identified by a canonical key (Node.Key): two structurally
// identical sub-plans — whichever queries they arrived in — have equal keys.
// The wire codec hash-conses on these keys, and the server's shared sub-plan
// registry uses them to install each distinct stateful sub-plan exactly
// once, extending arrange-once sharing from named sources into the query
// language itself.
package plan

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op enumerates the IR node kinds.
type Op uint8

const (
	OpScan Op = iota + 1
	OpRec
	OpFilter
	OpProject
	OpUnion
	OpJoin
	OpCount
	OpDistinct
	OpFixpoint
)

func (o Op) String() string {
	switch o {
	case OpScan:
		return "scan"
	case OpRec:
		return "rec"
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpUnion:
		return "union"
	case OpJoin:
		return "join"
	case OpCount:
		return "count"
	case OpDistinct:
		return "distinct"
	case OpFixpoint:
		return "fixpoint"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// FilterOp enumerates the pointwise predicates a Filter node applies.
type FilterOp uint8

const (
	// FKeyEq keeps records whose key equals A; FValEq likewise for the value.
	FKeyEq FilterOp = iota + 1
	FValEq
	// FKeyNe keeps records whose key differs from A; FValNe likewise.
	FKeyNe
	FValNe
	// FKeyEqVal keeps records whose key equals their value; FKeyNeVal keeps
	// those whose key differs from their value. Neither takes an operand: A
	// must be 0, so each has one spelling. Codes 5 and 6 belonged to a
	// retired modulus filter and stay unused: a plan carrying one fails
	// Validate.
	FKeyEqVal FilterOp = iota + 3
	FKeyNeVal
)

// ColSel selects one column of a binary record (Project).
type ColSel uint8

const (
	CKey ColSel = iota
	CVal
)

// JoinSel selects one column of a join match (k, v) ⋈ (k, w).
type JoinSel uint8

const (
	// JKey selects the join key k.
	JKey JoinSel = iota
	// JLeftVal selects the left value v.
	JLeftVal
	// JRightVal selects the right value w.
	JRightVal
)

// Def is one named definition inside a Fixpoint.
type Def struct {
	Name string
	Body *Node
}

// Node is one IR node. Nodes are immutable once constructed (the canonical
// key is memoized on first use, atomically, so workers may build one plan
// concurrently); sub-plans may be shared, so the tree is in general a DAG.
type Node struct {
	Op Op

	Rel    string    // Scan, Rec: relation or definition name
	FOp    FilterOp  // Filter
	A      uint64    // Filter: the constant of FKeyEq, FValEq, FKeyNe, FValNe; 0 otherwise
	Cols   [2]ColSel // Project: output columns drawn from {CKey, CVal}
	Proj   [2]JoinSel
	EqVals bool // Join: additionally require left val == right val

	In, Right *Node // children (In for unary ops, In+Right for Union/Join)
	Defs      []Def // Fixpoint
	Out       string

	key atomic.Pointer[string] // memoized canonical key
}

// MaxNodes bounds the distinct nodes a decoded plan may contain; plans
// arrive over the network.
const MaxNodes = 4096

// Stateful reports whether the node maintains arranged state (join, count,
// distinct, fixpoint) — the granularity at which sub-plans are shared
// between queries.
func (n *Node) Stateful() bool {
	switch n.Op {
	case OpJoin, OpCount, OpDistinct, OpFixpoint:
		return true
	}
	return false
}

// Key returns the node's canonical key: a fixed-size structural digest of
// the sub-plan under it (a node's digest covers its op, operands, and its
// children's digests). Structurally identical sub-plans have equal keys;
// Union children and Fixpoint definitions are order-normalized, so the
// trivially commutative forms also coincide. Digests are constant-size, so
// keys stay linear in the number of distinct nodes even when sub-plan
// sharing makes the DAG exponentially larger as a tree.
func (n *Node) Key() string {
	if k := n.key.Load(); k != nil {
		return *k
	}
	h := sha256.New()
	switch n.Op {
	case OpScan:
		fmt.Fprintf(h, "(s %s)", strconv.Quote(n.Rel))
	case OpRec:
		fmt.Fprintf(h, "(r %s)", strconv.Quote(n.Rel))
	case OpFilter:
		fmt.Fprintf(h, "(f %d %d %s)", n.FOp, n.A, n.In.Key())
	case OpProject:
		fmt.Fprintf(h, "(p %d%d %s)", n.Cols[0], n.Cols[1], n.In.Key())
	case OpUnion:
		l, r := n.In.Key(), n.Right.Key()
		if r < l {
			l, r = r, l
		}
		fmt.Fprintf(h, "(u %s %s)", l, r)
	case OpJoin:
		fmt.Fprintf(h, "(j %d%d %t %s %s)", n.Proj[0], n.Proj[1], n.EqVals,
			n.In.Key(), n.Right.Key())
	case OpCount:
		fmt.Fprintf(h, "(c %s)", n.In.Key())
	case OpDistinct:
		fmt.Fprintf(h, "(d %s)", n.In.Key())
	case OpFixpoint:
		defs := append([]Def(nil), n.Defs...)
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		fmt.Fprintf(h, "(x %s", strconv.Quote(n.Out))
		for _, d := range defs {
			fmt.Fprintf(h, " (%s %s)", strconv.Quote(d.Name), d.Body.Key())
		}
		h.Write([]byte(")"))
	default:
		fmt.Fprintf(h, "(?%d)", n.Op)
	}
	k := fmt.Sprintf("%x", h.Sum(nil))
	n.key.Store(&k)
	return k
}

// Sources returns the distinct base relations the plan scans, sorted.
func (n *Node) Sources() []string {
	seen := map[string]bool{}
	visited := map[*Node]bool{}
	var walk func(m *Node)
	walk = func(m *Node) {
		if m == nil || visited[m] {
			return
		}
		visited[m] = true
		if m.Op == OpScan {
			seen[m.Rel] = true
		}
		walk(m.In)
		walk(m.Right)
		for _, d := range m.Defs {
			walk(d.Body)
		}
	}
	walk(n)
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ErrInvalid reports a structurally decodable but semantically invalid plan.
var ErrInvalid = errors.New("plan: invalid plan")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// containsRec reports whether the sub-plan references any of the given
// definition names recursively. memo caches answers per node for one defs
// set; the caller owns one memo per scope (shared sub-plans make the plan a
// DAG, and an unmemoized walk is exponential in sharing depth).
func containsRec(n *Node, defs map[string]bool, memo map[*Node]bool) bool {
	if n == nil {
		return false
	}
	if v, ok := memo[n]; ok {
		return v
	}
	v := false
	if n.Op == OpRec {
		v = defs[n.Rel]
	} else {
		v = containsRec(n.In, defs, memo) || containsRec(n.Right, defs, memo)
		for i := 0; !v && i < len(n.Defs); i++ {
			v = containsRec(n.Defs[i].Body, defs, memo)
		}
	}
	memo[n] = v
	return v
}

// vscope is one fixpoint's scope frame during validation; enclosing frames
// chain through parent. nil is the outermost (fixpoint-free) scope.
type vscope struct {
	parent *vscope
	names  map[string]bool // this fixpoint's definition names
}

// visible reports whether name is defined by this frame or any enclosing one.
func (s *vscope) visible(name string) bool {
	for f := s; f != nil; f = f.parent {
		if f.names[name] {
			return true
		}
	}
	return false
}

// vstate identifies one validation visit: a node under a scope frame. The
// frame determines everything scope-dependent (Rec visibility, the
// monotonicity mode via containsRec), so a (node, scope) pair never needs
// revalidating — this is what keeps validation linear on hash-consed DAGs.
type vstate struct {
	n *Node
	s *vscope
}

// maxValidateStates bounds distinct (node, scope) validation visits. It
// exceeds MaxNodes so legitimate plans that share one sub-plan under several
// fixpoint scopes still validate, while bounding the work and memory an
// adversarial plan can demand.
const maxValidateStates = MaxNodes * 16

type validator struct {
	nodes  map[*Node]bool             // distinct nodes, for the MaxNodes budget
	states map[vstate]bool            // (node, scope) pairs already validated
	rec    map[*vscope]map[*Node]bool // containsRec memo per scope frame
}

// crMemo returns the containsRec memo for one scope frame.
func (v *validator) crMemo(s *vscope) map[*Node]bool {
	m := v.rec[s]
	if m == nil {
		m = map[*Node]bool{}
		v.rec[s] = m
	}
	return m
}

// budget records the visit. done means the pair was validated before (the
// caller returns nil); otherwise a non-nil error means a budget was exceeded.
func (v *validator) budget(n *Node, s *vscope) (done bool, err error) {
	st := vstate{n, s}
	if v.states[st] {
		return true, nil
	}
	v.states[st] = true
	v.nodes[n] = true
	if len(v.nodes) > MaxNodes {
		return false, invalidf("more than %d nodes", MaxNodes)
	}
	if len(v.states) > maxValidateStates {
		return false, invalidf("plan exceeds validation budget (%d node-scope visits)", maxValidateStates)
	}
	return false, nil
}

// Validate checks the plan's structural invariants: known ops and selectors,
// recursive references only to enclosing fixpoint definitions,
// consolidating (Distinct-topped) fixpoint bodies, and no non-monotone
// operators (Count, nested Fixpoint) on recursive paths. Shared
// sub-plans are validated once per scope, so cost is linear in distinct
// nodes, not tree paths — plans arrive over the network, and an exponential
// walk here would let a few hundred bytes pin a CPU. It never panics and
// returns errors wrapping ErrInvalid.
func (n *Node) Validate() error {
	if n == nil {
		return invalidf("nil plan")
	}
	v := &validator{
		nodes:  map[*Node]bool{},
		states: map[vstate]bool{},
		rec:    map[*vscope]map[*Node]bool{},
	}
	return v.validate(n, nil)
}

// validate walks a recursion-free region of the plan under scope s.
func (v *validator) validate(n *Node, s *vscope) error {
	if n == nil {
		return invalidf("nil node")
	}
	if done, err := v.budget(n, s); done || err != nil {
		return err
	}
	if err := checkOperands(n); err != nil {
		return err
	}
	switch n.Op {
	case OpScan:
		if n.Rel == "" {
			return invalidf("scan of empty relation name")
		}
		return nil
	case OpRec:
		if !s.visible(n.Rel) {
			return invalidf("recursive reference %q outside its fixpoint", n.Rel)
		}
		return nil
	case OpFilter, OpProject, OpCount, OpDistinct:
		return v.validate(n.In, s)
	case OpUnion, OpJoin:
		if err := v.validate(n.In, s); err != nil {
			return err
		}
		return v.validate(n.Right, s)
	case OpFixpoint:
		if len(n.Defs) == 0 {
			return invalidf("fixpoint with no definitions")
		}
		names := map[string]bool{}
		for _, d := range n.Defs {
			if d.Name == "" {
				return invalidf("fixpoint definition with empty name")
			}
			if names[d.Name] {
				return invalidf("duplicate fixpoint definition %q", d.Name)
			}
			if s.visible(d.Name) {
				return invalidf("fixpoint definition %q shadows an enclosing one", d.Name)
			}
			names[d.Name] = true
		}
		if !names[n.Out] {
			return invalidf("fixpoint output %q is not defined", n.Out)
		}
		inner := &vscope{parent: s, names: names}
		for _, d := range n.Defs {
			if d.Body == nil {
				return invalidf("fixpoint definition %q has nil body", d.Name)
			}
			if d.Body.Op != OpDistinct {
				return invalidf("fixpoint definition %q must consolidate (top node Distinct, got %s)",
					d.Name, d.Body.Op)
			}
			if err := v.validateBody(d.Body, inner); err != nil {
				return err
			}
		}
		if findBase(n, names, v.crMemo(inner)) == nil {
			return invalidf("fixpoint %q has no recursion-free sub-plan to seed its scope", n.Out)
		}
		return nil
	default:
		return invalidf("unknown op %d", n.Op)
	}
}

// checkOperands checks a node's own fields, whichever walker visits it: a
// known filter op, projection columns and join selectors.
func checkOperands(n *Node) error {
	switch n.Op {
	case OpFilter:
		switch n.FOp {
		case FKeyEq, FValEq, FKeyNe, FValNe:
		case FKeyEqVal, FKeyNeVal:
			if n.A != 0 {
				return invalidf("filter op %d takes no operand, got %d", n.FOp, n.A)
			}
		default:
			return invalidf("unknown filter op %d", n.FOp)
		}
	case OpProject:
		for _, c := range n.Cols {
			if c != CKey && c != CVal {
				return invalidf("unknown projection column %d", c)
			}
		}
	case OpJoin:
		for _, sel := range n.Proj {
			if sel != JKey && sel != JLeftVal && sel != JRightVal {
				return invalidf("unknown join selector %d", sel)
			}
		}
	}
	return nil
}

// validateBody walks a fixpoint definition body under its frame s. Sub-plans
// that reference the fixpoint's definitions must stay monotone (no Count, no
// nested Fixpoint on the recursive path); recursion-free sub-plans are
// ordinary plans, built outside the iteration scope.
func (v *validator) validateBody(n *Node, s *vscope) error {
	if n == nil {
		return invalidf("nil node in fixpoint body")
	}
	if !containsRec(n, s.names, v.crMemo(s)) {
		return v.validate(n, s)
	}
	if done, err := v.budget(n, s); done || err != nil {
		return err
	}
	if err := checkOperands(n); err != nil {
		return err
	}
	switch n.Op {
	case OpRec:
		if !s.visible(n.Rel) {
			return invalidf("recursive reference %q outside its fixpoint", n.Rel)
		}
		return nil
	case OpCount:
		return invalidf("count on a recursive path (not monotone)")
	case OpFixpoint:
		return invalidf("nested fixpoint on a recursive path")
	case OpFilter, OpProject, OpDistinct:
		return v.validateBody(n.In, s)
	case OpUnion, OpJoin:
		if err := v.validateBody(n.In, s); err != nil {
			return err
		}
		return v.validateBody(n.Right, s)
	case OpScan:
		return invalidf("internal: scan cannot contain a recursive reference")
	default:
		return invalidf("unknown op %d", n.Op)
	}
}

// ---------------------------------------------------------------------------
// Programmatic builder: the client-side API for plans Datalog does not
// spell (a count over a multiset, a bare scan). Compose plans as
//
//	plan.Scan("edges").KeyEq(5).Swap().JoinRight(plan.Scan("edges")).Count()
//
// Datalog text compiles (Compile) into exactly these nodes.
// ---------------------------------------------------------------------------

// Scan reads a named base relation (a registered server source).
func Scan(rel string) *Node { return &Node{Op: OpScan, Rel: rel} }

// Rec references a Fixpoint definition from inside its bodies.
func Rec(name string) *Node { return &Node{Op: OpRec, Rel: name} }

// Filter applies a pointwise predicate; a is its constant (0 for FKeyEqVal
// and FKeyNeVal, which compare the record's own columns).
func (n *Node) Filter(op FilterOp, a uint64) *Node {
	return &Node{Op: OpFilter, FOp: op, A: a, In: n}
}

// KeyEq keeps records whose key equals c.
func (n *Node) KeyEq(c uint64) *Node { return n.Filter(FKeyEq, c) }

// ValEq keeps records whose value equals c.
func (n *Node) ValEq(c uint64) *Node { return n.Filter(FValEq, c) }

// Swap exchanges key and value.
func (n *Node) Swap() *Node {
	return &Node{Op: OpProject, Cols: [2]ColSel{CVal, CKey}, In: n}
}

// Project rearranges the two columns (Swap and duplication are projections).
func (n *Node) Project(c0, c1 ColSel) *Node {
	return &Node{Op: OpProject, Cols: [2]ColSel{c0, c1}, In: n}
}

// Join equi-joins on key and projects two of {key, left value, right value}.
func (n *Node) Join(right *Node, p0, p1 JoinSel) *Node {
	return &Node{Op: OpJoin, In: n, Right: right, Proj: [2]JoinSel{p0, p1}}
}

// JoinRight is one hop: a record (k, v) matching right's (k, w) emits
// (w, v), re-keying each result by the right-hand value.
func (n *Node) JoinRight(right *Node) *Node { return n.Join(right, JRightVal, JLeftVal) }

// JoinEq joins on key and additionally requires the two values to agree.
func (n *Node) JoinEq(right *Node, p0, p1 JoinSel) *Node {
	j := n.Join(right, p0, p1)
	j.EqVals = true
	return j
}

// Count replaces each key's values with the key's record count.
func (n *Node) Count() *Node { return &Node{Op: OpCount, In: n} }

// Distinct reduces every present record to multiplicity one.
func (n *Node) Distinct() *Node { return &Node{Op: OpDistinct, In: n} }

// Union is the multiset union of the given plans (at least one). The inputs
// are folded in (Op, Key) order, so every order of one set of inputs builds
// the same plan and encodes to the same bytes; the op decides most pairs
// without hashing them.
func Union(ns ...*Node) *Node {
	if len(ns) == 0 {
		return nil
	}
	ns = slices.Clone(ns)
	slices.SortFunc(ns, func(a, b *Node) int {
		if a.Op != b.Op {
			return int(a.Op) - int(b.Op)
		}
		return strings.Compare(a.Key(), b.Key())
	})
	out := ns[0]
	for _, n := range ns[1:] {
		out = &Node{Op: OpUnion, In: out, Right: n}
	}
	return out
}

// Fixpoint evaluates mutually recursive definitions to their fixed point and
// returns the definition named out. Bodies reference definitions via Rec and
// must consolidate (top node Distinct). The definitions are kept in name
// order, so every order of them encodes to the same bytes.
func Fixpoint(out string, defs ...Def) *Node {
	defs = slices.Clone(defs)
	slices.SortFunc(defs, func(a, b Def) int { return strings.Compare(a.Name, b.Name) })
	return &Node{Op: OpFixpoint, Out: out, Defs: defs}
}

// ---------------------------------------------------------------------------
// Shared sub-plan decomposition.
// ---------------------------------------------------------------------------

// SharedChildren returns the maximal proper stateful sub-plans of n that
// Build materializes in the outer scope — the sub-plans a shared registry
// must resolve (and refcount) before building n itself. Children are
// deduplicated by canonical key.
func SharedChildren(n *Node) []*Node {
	var out []*Node
	seen := map[string]bool{}
	visited := map[*Node]bool{}
	add := func(m *Node) {
		if k := m.Key(); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	var walk func(m *Node)
	walk = func(m *Node) {
		if m == nil || visited[m] {
			return
		}
		visited[m] = true
		if m.Stateful() {
			add(m)
			return
		}
		walk(m.In)
		walk(m.Right)
	}
	if n.Op == OpFixpoint {
		defs := map[string]bool{}
		for _, d := range n.Defs {
			defs[d.Name] = true
		}
		crm := map[*Node]bool{}
		bodyVisited := map[*Node]bool{}
		var walkBody func(m *Node)
		walkBody = func(m *Node) {
			if m == nil || bodyVisited[m] {
				return
			}
			bodyVisited[m] = true
			if !containsRec(m, defs, crm) {
				walk(m)
				return
			}
			walkBody(m.In)
			walkBody(m.Right)
		}
		for _, d := range n.Defs {
			walkBody(d.Body)
		}
		return out
	}
	walk(n.In)
	walk(n.Right)
	return out
}

// SharedParts returns every outer-scope stateful sub-plan of root in
// bottom-up order (children before parents, root last when stateful),
// deduplicated by canonical key: the installation order for a shared
// sub-plan registry.
func SharedParts(root *Node) []*Node {
	var out []*Node
	seen := map[string]bool{}
	var visit func(m *Node)
	visit = func(m *Node) {
		k := m.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		for _, c := range SharedChildren(m) {
			visit(c)
		}
		if m.Stateful() {
			out = append(out, m)
		}
	}
	visit(root)
	return out
}
