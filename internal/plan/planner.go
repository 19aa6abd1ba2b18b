package plan

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// The planner compiles Datalog rules onto the binary-relation IR. Every
// intermediate result is a (key, value) collection, so a rule's atoms are
// joined one at a time along a chain that can keep at most two variables
// live; the planner chooses the atom order. It is statistics-free and greedy
// in the janus-datalog style: start from the most-bound atom, then repeatedly
// take the atom sharing the most live variables (preferring orientations that
// reuse a scan's natural key arrangement), backtracking on infeasible
// prefixes. Planning is microseconds — orders of magnitude below the cost of
// arranging even a small relation — and the chosen order only shifts
// intermediate sizes: every definition is consolidated with Distinct, so any
// feasible order yields the same relation.
//
// The plan is canonical: it depends on what the program computes, not on how
// it is spelled. Atoms of equal greedy score are tried in Key order of the
// chain their step produces, and when steps tie on that too, every one is
// tried and the least-Key plan kept, so source position never decides. Union
// folds a predicate's rules in (Op, Key) order, Fixpoint sorts its
// definitions by name, and disequalities that become applicable at the same step
// are applied in (filter op, constant) order. Renaming variables or permuting
// rules, body atoms or constraints compiles to the same plan.Encode bytes, so
// the shared sub-plan registry finds the arrangements of every spelling of
// one computation.

// ErrPlan reports a program the planner cannot compile.
var ErrPlan = errors.New("plan: compile error")

func planErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrPlan, fmt.Sprintf(format, args...))
}

// Info reports compilation measurements.
type Info struct {
	// PlanNs is the wall-clock planning time in nanoseconds.
	PlanNs int64
}

// Compile compiles a Datalog program to a plan rooted at its query predicate
// (the `?- p(_,_)` directive, or the first rule's head). A query predicate
// whose heads are p(x, count(y)) compiles as p(x, y) would, then Count.
func Compile(prog *Program) (*Node, *Info, error) {
	start := time.Now()
	root, err := compileProgram(prog)
	info := &Info{PlanNs: time.Since(start).Nanoseconds()}
	if err != nil {
		return nil, info, err
	}
	return root, info, nil
}

type compiler struct {
	rules map[string][]Rule // rules grouped by head predicate
	preds []string          // head predicates, first-appearance order
	fix   bool              // program is recursive: all IDB defs share one fixpoint
	memo  map[string]*Node  // DAG mode: compiled predicate nodes
	// outer holds the fixpoint's definitions while the aggregate, which sits
	// outside the fixpoint, is compiled: its references read the fixpoint.
	outer []Def
}

func compileProgram(prog *Program) (*Node, error) {
	if prog == nil || len(prog.Rules) == 0 {
		return nil, planErrf("empty program")
	}
	c := &compiler{rules: map[string][]Rule{}, memo: map[string]*Node{}}
	for _, r := range prog.Rules {
		if _, ok := c.rules[r.Head.Pred]; !ok {
			c.preds = append(c.preds, r.Head.Pred)
		}
		c.rules[r.Head.Pred] = append(c.rules[r.Head.Pred], r)
	}
	for _, r := range prog.Rules {
		if err := checkRule(r); err != nil {
			return nil, err
		}
	}
	qp := prog.Rules[0].Head.Pred
	if prog.Query != nil {
		qp = prog.Query.Pred
	}
	if len(c.rules[qp]) == 0 {
		return nil, planErrf("query predicate %q has no rules", qp)
	}
	agg := c.rules[qp][0].Head.Count
	for _, r := range prog.Rules {
		if r.Head.Count && r.Head.Pred != qp {
			return nil, planErrf("rule %s: only the query predicate %q may count", r.Head, qp)
		}
		if r.Head.Pred == qp && r.Head.Count != agg {
			return nil, planErrf("predicate %q mixes count and plain heads", qp)
		}
		for _, a := range r.Body {
			if agg && a.Pred == qp {
				return nil, planErrf("rule %s references the aggregate %q", r.Head, qp)
			}
		}
	}
	c.fix = c.recursive()

	var root *Node
	if c.fix {
		// Any recursion puts every definition into one fixpoint: positive
		// Datalog converges regardless, and non-recursive definitions simply
		// stabilize early. An aggregate stays outside it.
		defs := make([]Def, 0, len(c.preds))
		for _, p := range c.preds {
			if agg && p == qp {
				continue
			}
			body, err := c.predNode(p)
			if err != nil {
				return nil, err
			}
			defs = append(defs, Def{Name: p, Body: body})
		}
		if agg {
			c.outer = defs
		} else {
			root = Fixpoint(qp, defs...)
		}
	}
	if root == nil {
		var err error
		if root, err = c.predNode(qp); err != nil {
			return nil, err
		}
	}
	if agg {
		root = root.Count()
	}

	if qa := prog.Query; qa != nil {
		k, v := qa.Args[0], qa.Args[1]
		if !k.IsVar() {
			root = root.KeyEq(k.Const)
		}
		if !v.IsVar() {
			root = root.ValEq(v.Const)
		}
		if k.IsVar() && v.IsVar() && k.Var == v.Var {
			root = root.Filter(FKeyEqVal, 0)
		}
	}
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("%w: internal: compiled plan invalid: %v", ErrPlan, err)
	}
	return root, nil
}

func checkRule(r Rule) error {
	if len(r.Body) == 0 {
		return planErrf("rule %s has no body atoms", r.Head)
	}
	if len(r.Body) > maxBodyAtoms {
		return planErrf("rule %s has more than %d body atoms", r.Head, maxBodyAtoms)
	}
	bound := map[string]bool{}
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if !t.IsVar() {
			return planErrf("rule %s: constant in head (bind it with a body atom instead)", r.Head)
		}
		if !bound[t.Var] {
			return planErrf("rule %s: head variable %q not bound in body", r.Head, t.Var)
		}
	}
	if r.Head.Count && r.Head.Args[0].Var == r.Head.Args[1].Var {
		return planErrf("rule %s: the counted variable must differ from the key", r.Head)
	}
	for _, cn := range r.Neq {
		if cn.L.IsVar() && cn.R.IsVar() && cn.L.Var == cn.R.Var {
			return planErrf("rule %s: constraint %s is never satisfiable", r.Head, cn)
		}
		for _, t := range []Term{cn.L, cn.R} {
			if t.IsVar() && !bound[t.Var] {
				return planErrf("rule %s: constraint variable %q not bound in body", r.Head, t.Var)
			}
		}
	}
	return nil
}

// recursive reports whether any IDB predicate reaches itself through IDB
// references.
func (c *compiler) recursive() bool {
	const (
		white = iota
		grey
		black
	)
	color := map[string]int{}
	var visit func(p string) bool
	visit = func(p string) bool {
		color[p] = grey
		for _, r := range c.rules[p] {
			for _, a := range r.Body {
				if len(c.rules[a.Pred]) == 0 {
					continue
				}
				switch color[a.Pred] {
				case grey:
					return true
				case white:
					if visit(a.Pred) {
						return true
					}
				}
			}
		}
		color[p] = black
		return false
	}
	for _, p := range c.preds {
		if color[p] == white && visit(p) {
			return true
		}
	}
	return false
}

// predNode compiles one predicate: the Distinct union of its rules, or the
// one rule alone when its output is already a set. Inside a
// fixpoint every reference is a Rec or a Scan, neither a set, so a
// definition body keeps the Distinct top that Validate requires.
func (c *compiler) predNode(pred string) (*Node, error) {
	if n, ok := c.memo[pred]; ok {
		return n, nil
	}
	alts := make([]*Node, 0, len(c.rules[pred]))
	for _, r := range c.rules[pred] {
		n, err := c.compileRule(r)
		if err != nil {
			return nil, err
		}
		alts = append(alts, n)
	}
	n := Union(alts...)
	if len(alts) > 1 || !isSet(n) {
		n = n.Distinct()
	}
	c.memo[pred] = n
	return n, nil
}

// isSet reports whether every record of n's output has multiplicity one: n
// is a Distinct, a Fixpoint, or a pointwise filter or Swap of one.
func isSet(n *Node) bool {
	switch n.Op {
	case OpDistinct, OpFixpoint:
		return true
	case OpFilter:
		return isSet(n.In)
	case OpProject:
		return n.Cols == [2]ColSel{CVal, CKey} && isSet(n.In)
	}
	return false
}

// refNode resolves a body atom's predicate: the program fixpoint read from
// outside (an aggregate's body), a recursive reference inside it, a compiled
// IDB node, or a base relation scan.
func (c *compiler) refNode(pred string) (*Node, error) {
	if len(c.rules[pred]) > 0 {
		switch {
		case c.outer != nil:
			return Fixpoint(pred, c.outer...), nil
		case c.fix:
			return Rec(pred), nil
		}
		return c.predNode(pred)
	}
	return Scan(pred), nil
}

// chain is one partially joined rule body: a plan whose records bind the
// variables kv[0] (key) and kv[1] (value). An empty name is a dead column.
type chain struct {
	n  *Node
	kv [2]string
}

func (ch chain) has(v string) bool {
	return v != "" && (ch.kv[0] == v || ch.kv[1] == v)
}

func (ch chain) live() []string {
	var out []string
	if ch.kv[0] != "" {
		out = append(out, ch.kv[0])
	}
	if ch.kv[1] != "" && ch.kv[1] != ch.kv[0] {
		out = append(out, ch.kv[1])
	}
	return out
}

// orientKey rearranges the chain so v (which must be live) is the key.
func orientKey(ch chain, v string) chain {
	if ch.kv[0] == v {
		return ch
	}
	return chain{n: ch.n.Swap(), kv: [2]string{ch.kv[1], ch.kv[0]}}
}

// leafChain compiles a single atom: resolve the predicate, push constant and
// repeated-variable selections down as filters.
func (c *compiler) leafChain(a Atom) (chain, error) {
	base, err := c.refNode(a.Pred)
	if err != nil {
		return chain{}, err
	}
	ch := chain{n: base}
	k, v := a.Args[0], a.Args[1]
	switch {
	case k.IsVar() && v.IsVar():
		if k.Var == v.Var {
			ch.n = ch.n.Filter(FKeyEqVal, 0)
		}
		ch.kv = [2]string{k.Var, v.Var}
	case k.IsVar():
		ch.n = ch.n.ValEq(v.Const)
		ch.kv = [2]string{k.Var, ""}
	case v.IsVar():
		ch.n = ch.n.KeyEq(k.Const)
		ch.kv = [2]string{"", v.Var}
	default:
		ch.n = ch.n.KeyEq(k.Const).ValEq(v.Const)
	}
	return ch, nil
}

// applyCons applies every not-yet-applied disequality whose operands are all
// bound in the chain, in (filter op, constant) order, returning the filtered
// chain and the updated applied set (copied: the caller may backtrack).
func applyCons(ch chain, neq []Constraint, applied []bool) (chain, []bool) {
	out := append([]bool(nil), applied...)
	var fs [][2]uint64 // (filter op, constant)
	for i, cn := range neq {
		if out[i] {
			continue
		}
		if cn.L.IsVar() && cn.R.IsVar() {
			l, r := cn.L.Var, cn.R.Var
			if (ch.kv[0] == l && ch.kv[1] == r) || (ch.kv[0] == r && ch.kv[1] == l) {
				fs = append(fs, [2]uint64{uint64(FKeyNeVal), 0})
				out[i] = true
			}
			continue
		}
		v, cst := cn.L.Var, cn.R.Const
		if !cn.L.IsVar() {
			v, cst = cn.R.Var, cn.L.Const
		}
		switch {
		case ch.kv[0] == v:
			fs = append(fs, [2]uint64{uint64(FKeyNe), cst})
			out[i] = true
		case ch.kv[1] == v:
			fs = append(fs, [2]uint64{uint64(FValNe), cst})
			out[i] = true
		}
	}
	slices.SortFunc(fs, func(x, y [2]uint64) int { return slices.Compare(x[:], y[:]) })
	for _, f := range fs {
		ch.n = ch.n.Filter(FilterOp(f[0]), f[1])
	}
	return ch, out
}

// joinStep joins the chain with one more atom, or starts an empty chain with
// it. need is the set of variables still required downstream (remaining
// atoms, head, unapplied constraints); at most two of them may be live after
// the join. An infeasible step returns a zero chain and a reason; a nil error
// is not success.
func (c *compiler) joinStep(left chain, a Atom, need map[string]bool) (chain, string, error) {
	right, err := c.leafChain(a)
	if err != nil || left.n == nil {
		return right, "", err
	}
	var shared []string
	for _, v := range left.live() {
		if right.has(v) {
			shared = append(shared, v)
		}
	}
	if len(shared) == 0 {
		return chain{}, fmt.Sprintf("atom %s shares no bound variable", a), nil
	}
	if len(shared) == 2 {
		// Both columns agree: join on one, require equality on the other.
		s, t := shared[0], shared[1]
		l, r := orientKey(left, s), orientKey(right, s)
		return chain{n: l.n.JoinEq(r.n, JKey, JLeftVal), kv: [2]string{s, t}}, "", nil
	}
	s := shared[0]
	l, r := orientKey(left, s), orientKey(right, s)
	lv, rv := l.kv[1], r.kv[1]
	type cand struct {
		v   string
		sel JoinSel
	}
	cands := []cand{{s, JKey}}
	if lv != "" && lv != s {
		cands = append(cands, cand{lv, JLeftVal})
	}
	if rv != "" && rv != s {
		cands = append(cands, cand{rv, JRightVal})
	}
	var keep []cand
	for _, cd := range cands {
		if need[cd.v] {
			keep = append(keep, cd)
		}
	}
	if len(keep) > 2 {
		return chain{}, fmt.Sprintf("joining %s leaves %d needed variables live (two columns)", a, len(keep)), nil
	}
	out := chain{}
	proj := [2]JoinSel{JKey, JKey}
	for i, cd := range keep {
		proj[i] = cd.sel
		out.kv[i] = cd.v
	}
	out.n = l.n.Join(r.n, proj[0], proj[1])
	return out, "", nil
}

// needVars collects the variables required after joining atom j: those of the
// other unused atoms, the head, and any unapplied constraint.
func needVars(r Rule, used []bool, j int, applied []bool) map[string]bool {
	need := map[string]bool{}
	for i, a := range r.Body {
		if used[i] || i == j {
			continue
		}
		for _, t := range a.Args {
			if t.IsVar() {
				need[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		need[t.Var] = true
	}
	for i, cn := range r.Neq {
		if applied[i] {
			continue
		}
		for _, t := range []Term{cn.L, cn.R} {
			if t.IsVar() {
				need[t.Var] = true
			}
		}
	}
	return need
}

// finalize projects the finished chain onto the head columns. Failure is an
// infeasibility (another order may bind the head differently), not an error.
func finalize(ch chain, r Rule, applied []bool) (*Node, string) {
	for i, cn := range r.Neq {
		if !applied[i] {
			return nil, fmt.Sprintf("constraint %s: operands never simultaneously bound", cn)
		}
	}
	h0, h1 := r.Head.Args[0].Var, r.Head.Args[1].Var
	if h0 == h1 {
		switch {
		case ch.kv[0] == h0:
			return ch.n.Project(CKey, CKey), ""
		case ch.kv[1] == h0:
			return ch.n.Project(CVal, CVal), ""
		}
		return nil, fmt.Sprintf("head variable %q not bound in final result", h0)
	}
	switch {
	case ch.kv[0] == h0 && ch.kv[1] == h1:
		return ch.n, ""
	case ch.kv[0] == h1 && ch.kv[1] == h0:
		return ch.n.Swap(), ""
	}
	return nil, fmt.Sprintf("head variables (%s, %s) not both bound in final result", h0, h1)
}

// score ranks a candidate atom against the chain, higher first. The first
// atom ranks most bound first (constants, repeated variables); a later one by
// most shared live variables, preferring atoms whose first column is the join
// key (the scan's natural arrangement serves as the join index directly), then
// constants. Base relations rank above IDB closures.
func (c *compiler) score(a Atom, ch chain) int {
	s, consts := 0, 0
	for _, t := range a.Args {
		if !t.IsVar() {
			consts++
		}
	}
	if ch.n == nil {
		s += consts * 4
		if a.Args[0].IsVar() && a.Args[0].Var == a.Args[1].Var {
			s += 2
		}
	} else {
		shared := 0
		prev := ""
		for _, t := range a.Args {
			if t.IsVar() && ch.has(t.Var) && t.Var != prev {
				shared++
				prev = t.Var
			}
		}
		s += shared*16 + consts*2
		if a.Args[0].IsVar() && ch.has(a.Args[0].Var) {
			s += 8
		}
	}
	if len(c.rules[a.Pred]) == 0 {
		s++
	}
	return s
}

// maxSearchSteps bounds the join-order search per rule. The cap only guards
// adversarial rule shapes (programs arrive over the network).
const maxSearchSteps = 1 << 16

// compileRule plans one rule: a depth-first search over atom orders that
// takes the first order whose chain stays within two live variables and binds
// the head. Each step tries the remaining atoms by descending score and, among
// equal scores, in Key order of the chain the step produces, so the order
// depends on the rule's shape, never on where an atom is written. Steps that
// tie on both are all tried and the least-Key plan among them kept; several
// orders of tied atoms reach one state, which is planned once.
func (c *compiler) compileRule(r Rule) (*Node, error) {
	lastFail := ""
	tries := 0
	var memo map[string]*Node // made on the first tie: most rules have none
	type step struct {
		atom, score int
		next        chain
		applied     []bool
	}
	order := func(x, y step) int {
		if x.score != y.score {
			return y.score - x.score
		}
		return strings.Compare(x.next.n.Key(), y.next.n.Key())
	}
	var search func(ch chain, used, applied []bool, tied bool) (*Node, error)
	search = func(ch chain, used, applied []bool, tied bool) (*Node, error) {
		if !slices.Contains(used, false) {
			n, reason := finalize(ch, r, applied)
			if n == nil {
				lastFail = reason
			}
			return n, nil
		}
		state := "" // a tied step's state may be reached by several orders
		if tied {
			state = fmt.Sprint(ch.n.Key(), ch.kv, used, applied)
			if n, ok := memo[state]; ok {
				return n, nil
			}
		}
		var steps []step // the feasible next steps, best first
		for i, a := range r.Body {
			if used[i] {
				continue
			}
			if tries++; tries > maxSearchSteps {
				return nil, planErrf("rule %s: join-order search budget exceeded", r.Head)
			}
			var need map[string]bool // an empty chain takes the atom whole
			if ch.n != nil {
				need = needVars(r, used, i, applied)
			}
			next, reason, err := c.joinStep(ch, a, need)
			if err != nil {
				return nil, err
			}
			if next.n == nil {
				lastFail = reason
				continue
			}
			st := step{atom: i, score: c.score(a, ch)}
			st.next, st.applied = applyCons(next, r.Neq, applied)
			steps = append(steps, st)
		}
		slices.SortFunc(steps, order)
		var best *Node
		for len(steps) > 0 && best == nil {
			k := 1
			for k < len(steps) && order(steps[0], steps[k]) == 0 {
				k++
			}
			for _, st := range steps[:k] {
				used[st.atom] = true
				n, err := search(st.next, used, st.applied, k > 1)
				used[st.atom] = false
				if err != nil {
					return nil, err
				}
				if n != nil && (best == nil || n.Key() < best.Key()) {
					best = n
				}
			}
			steps = steps[k:]
		}
		if tied {
			if memo == nil {
				memo = map[string]*Node{}
			}
			memo[state] = best
		}
		return best, nil
	}
	n, err := search(chain{}, make([]bool, len(r.Body)), make([]bool, len(r.Neq)), false)
	if n != nil || err != nil {
		return n, err
	}
	if lastFail == "" {
		lastFail = "no candidate order"
	}
	return nil, planErrf("rule %s: no feasible join order: %s "+
		"(bodies must be join-connected with at most two live variables; "+
		"cartesian products are not plannable)", r.Head, lastFail)
}
