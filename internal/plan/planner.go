package plan

import (
	"errors"
	"fmt"
	"sort"
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

// ErrPlan reports a program the planner cannot compile.
var ErrPlan = errors.New("plan: compile error")

func planErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrPlan, fmt.Sprintf(format, args...))
}

// Options configures compilation.
type Options struct {
	// Naive disables greedy ordering: rules compile in the lexicographically
	// first feasible left-to-right atom order. Exists so tests can check that
	// ordering does not change results.
	Naive bool
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
	return CompileOpts(prog, Options{})
}

// CompileOpts is Compile with explicit Options.
func CompileOpts(prog *Program, opt Options) (*Node, *Info, error) {
	start := time.Now()
	root, err := compileProgram(prog, opt)
	info := &Info{PlanNs: time.Since(start).Nanoseconds()}
	if err != nil {
		return nil, info, err
	}
	return root, info, nil
}

type compiler struct {
	opt   Options
	rules map[string][]Rule // rules grouped by head predicate
	preds []string          // head predicates, first-appearance order
	fix   bool              // program is recursive: all IDB defs share one fixpoint
	memo  map[string]*Node  // DAG mode: compiled predicate nodes
	// outer holds the fixpoint's definitions while the aggregate, which sits
	// outside the fixpoint, is compiled: its references read the fixpoint.
	outer []Def
}

func compileProgram(prog *Program, opt Options) (*Node, error) {
	if prog == nil || len(prog.Rules) == 0 {
		return nil, planErrf("empty program")
	}
	c := &compiler{opt: opt, rules: map[string][]Rule{}, memo: map[string]*Node{}}
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
			root = root.Filter(FKeyEqVal, 0, 0)
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

// predNode compiles one predicate: the Distinct union of its rules.
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
	n := Union(alts...).Distinct()
	c.memo[pred] = n
	return n, nil
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
			ch.n = ch.n.Filter(FKeyEqVal, 0, 0)
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
// bound in the chain, returning the filtered chain and the updated applied
// set (copied: the caller may backtrack).
func applyCons(ch chain, neq []Constraint, applied []bool) (chain, []bool) {
	out := append([]bool(nil), applied...)
	for i, cn := range neq {
		if out[i] {
			continue
		}
		if cn.L.IsVar() && cn.R.IsVar() {
			l, r := cn.L.Var, cn.R.Var
			if (ch.kv[0] == l && ch.kv[1] == r) || (ch.kv[0] == r && ch.kv[1] == l) {
				ch.n = ch.n.Filter(FKeyNeVal, 0, 0)
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
			ch.n = ch.n.Filter(FKeyNe, cst, 0)
			out[i] = true
		case ch.kv[1] == v:
			ch.n = ch.n.Filter(FValNe, cst, 0)
			out[i] = true
		}
	}
	return ch, out
}

// joinStep joins the chain with one more atom. need is the set of variables
// still required downstream (remaining atoms, head, unapplied constraints);
// at most two of them may be live after the join. An infeasible step returns
// a zero chain and a reason; a nil error is not success.
func (c *compiler) joinStep(left chain, a Atom, need map[string]bool) (chain, string, error) {
	right, err := c.leafChain(a)
	if err != nil {
		return chain{}, "", err
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

// orderFirst ranks the starting atom: most bound first (constants, repeated
// variables), then base relations over IDB closures.
func (c *compiler) orderFirst(r Rule) []int {
	idx := make([]int, len(r.Body))
	for i := range idx {
		idx[i] = i
	}
	if c.opt.Naive {
		return idx
	}
	score := func(i int) int {
		a := r.Body[i]
		s := 0
		for _, t := range a.Args {
			if !t.IsVar() {
				s += 4
			}
		}
		if a.Args[0].IsVar() && a.Args[0].Var == a.Args[1].Var {
			s += 2
		}
		if len(c.rules[a.Pred]) == 0 {
			s++
		}
		return s
	}
	sort.SliceStable(idx, func(x, y int) bool { return score(idx[x]) > score(idx[y]) })
	return idx
}

// orderNext ranks the remaining atoms against the current chain: most shared
// live variables first, preferring atoms whose first column is the join key
// (the scan's natural arrangement serves as the join index directly), then
// constants, then base relations.
func (c *compiler) orderNext(r Rule, remaining []int, ch chain) []int {
	idx := append([]int(nil), remaining...)
	if c.opt.Naive {
		return idx
	}
	score := func(i int) int {
		a := r.Body[i]
		s := 0
		shared := 0
		prev := ""
		for _, t := range a.Args {
			if t.IsVar() && ch.has(t.Var) && t.Var != prev {
				shared++
				prev = t.Var
			}
		}
		s += shared * 16
		if a.Args[0].IsVar() && ch.has(a.Args[0].Var) {
			s += 8
		}
		for _, t := range a.Args {
			if !t.IsVar() {
				s += 2
			}
		}
		if len(c.rules[a.Pred]) == 0 {
			s++
		}
		return s
	}
	sort.SliceStable(idx, func(x, y int) bool { return score(idx[x]) > score(idx[y]) })
	return idx
}

// maxSearchSteps bounds the join-order backtracking per rule. Greedy almost
// never backtracks; the cap only guards adversarial rule shapes (programs
// arrive over the network).
const maxSearchSteps = 1 << 16

// compileRule plans one rule: a depth-first search over atom orders (greedy
// preference order by default, index order when Naive), taking the first
// order whose chain stays within two live variables and binds the head.
func (c *compiler) compileRule(r Rule) (*Node, error) {
	lastFail := ""
	steps := 0
	var search func(ch chain, used, applied []bool) (*Node, error)
	search = func(ch chain, used, applied []bool) (*Node, error) {
		var remaining []int
		for i := range r.Body {
			if !used[i] {
				remaining = append(remaining, i)
			}
		}
		if len(remaining) == 0 {
			n, reason := finalize(ch, r, applied)
			if n == nil {
				lastFail = reason
			}
			return n, nil
		}
		for _, j := range c.orderNext(r, remaining, ch) {
			if steps++; steps > maxSearchSteps {
				return nil, planErrf("rule %s: join-order search budget exceeded", r.Head)
			}
			need := needVars(r, used, j, applied)
			next, reason, err := c.joinStep(ch, r.Body[j], need)
			if err != nil {
				return nil, err
			}
			if next.n == nil {
				lastFail = reason
				continue
			}
			next, applied2 := applyCons(next, r.Neq, applied)
			used[j] = true
			n, err := search(next, used, applied2)
			used[j] = false
			if n != nil || err != nil {
				return n, err
			}
		}
		return nil, nil
	}
	for _, i := range c.orderFirst(r) {
		ch, err := c.leafChain(r.Body[i])
		if err != nil {
			return nil, err
		}
		ch, applied := applyCons(ch, r.Neq, make([]bool, len(r.Neq)))
		used := make([]bool, len(r.Body))
		used[i] = true
		n, err := search(ch, used, applied)
		if n != nil || err != nil {
			return n, err
		}
	}
	if lastFail == "" {
		lastFail = "no candidate order"
	}
	return nil, planErrf("rule %s: no feasible join order: %s "+
		"(bodies must be join-connected with at most two live variables; "+
		"cartesian products are not plannable)", r.Head, lastFail)
}
