package plan

import (
	"fmt"
)

// Reference semantics, entirely in memory: Interpret evaluates an IR plan
// over multiset relations, EvalDatalog evaluates a Datalog program bottom-up
// with set semantics. Tests hold the dataflow build and the planner to these.

// Rel is a multiset of (key, value) records: record -> multiplicity.
type Rel map[[2]uint64]int64

// add folds a record in, dropping cancelled entries.
func (r Rel) add(rec [2]uint64, diff int64) {
	if d := r[rec] + diff; d == 0 {
		delete(r, rec)
	} else {
		r[rec] = d
	}
}

// Equal reports whether two relations hold the same records with the same
// multiplicities.
func (r Rel) Equal(o Rel) bool {
	if len(r) != len(o) {
		return false
	}
	for rec, d := range r {
		if o[rec] != d {
			return false
		}
	}
	return true
}

// maxFixRounds bounds total fixpoint iterations per Interpret call.
const maxFixRounds = 100000

// Interpret evaluates the plan over the given base relations. It is the
// executable specification for the dataflow build: same records, same
// multiplicities.
func Interpret(root *Node, edb map[string]Rel) (Rel, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	in := &interp{edb: edb, memo: map[string]Rel{}}
	return in.eval(root, nil, nil, nil)
}

type interp struct {
	edb    map[string]Rel
	memo   map[string]Rel // rec-free sub-plans, shared across fixpoint rounds
	rounds int
}

// eval evaluates n. rec maps the enclosing fixpoint's definitions to their
// current approximations; defs is that fixpoint's name set (nil outside),
// and crm the containsRec memo for it (one per fixpoint, shared across
// rounds so DAG-shaped bodies stay linear to classify).
func (in *interp) eval(n *Node, rec map[string]Rel, defs map[string]bool, crm map[*Node]bool) (Rel, error) {
	recFree := rec == nil || !containsRec(n, defs, crm)
	if recFree {
		if r, ok := in.memo[n.Key()]; ok {
			return r, nil
		}
	}
	r, err := in.evalOp(n, rec, defs, crm)
	if err != nil {
		return nil, err
	}
	if recFree {
		in.memo[n.Key()] = r
	}
	return r, nil
}

func (in *interp) evalOp(n *Node, rec map[string]Rel, defs map[string]bool, crm map[*Node]bool) (Rel, error) {
	switch n.Op {
	case OpScan:
		out := Rel{}
		for recd, d := range in.edb[n.Rel] {
			out.add(recd, d)
		}
		return out, nil
	case OpRec:
		out := Rel{}
		for recd, d := range rec[n.Rel] {
			out.add(recd, d)
		}
		return out, nil
	case OpFilter:
		src, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		out := Rel{}
		for recd, d := range src {
			if filterKeep(n, recd[0], recd[1]) {
				out.add(recd, d)
			}
		}
		return out, nil
	case OpProject:
		src, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		out := Rel{}
		for recd, d := range src {
			out.add([2]uint64{projCol(n.Cols[0], recd), projCol(n.Cols[1], recd)}, d)
		}
		return out, nil
	case OpUnion:
		l, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(n.Right, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		out := Rel{}
		for recd, d := range l {
			out.add(recd, d)
		}
		for recd, d := range r {
			out.add(recd, d)
		}
		return out, nil
	case OpJoin:
		l, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(n.Right, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		byKey := map[uint64][][2]uint64{}
		for recd := range r {
			byKey[recd[0]] = append(byKey[recd[0]], recd)
		}
		out := Rel{}
		for lrec, ld := range l {
			for _, rrec := range byKey[lrec[0]] {
				if n.EqVals && lrec[1] != rrec[1] {
					continue
				}
				k, v, w := lrec[0], lrec[1], rrec[1]
				out.add([2]uint64{joinCol(n.Proj[0], k, v, w), joinCol(n.Proj[1], k, v, w)}, ld*r[rrec])
			}
		}
		return out, nil
	case OpCount:
		src, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		totals := map[uint64]int64{}
		for recd, d := range src {
			totals[recd[0]] += d
		}
		out := Rel{}
		for k, t := range totals {
			if t != 0 {
				out.add([2]uint64{k, uint64(t)}, 1)
			}
		}
		return out, nil
	case OpDistinct:
		src, err := in.eval(n.In, rec, defs, crm)
		if err != nil {
			return nil, err
		}
		out := Rel{}
		for recd, d := range src {
			if d > 0 {
				out[recd] = 1
			}
		}
		return out, nil
	case OpFixpoint:
		names := map[string]bool{}
		cur := map[string]Rel{}
		for _, d := range n.Defs {
			names[d.Name] = true
			cur[d.Name] = Rel{}
		}
		fcrm := map[*Node]bool{}
		for {
			if in.rounds++; in.rounds > maxFixRounds {
				return nil, invalidf("fixpoint did not converge within %d rounds", maxFixRounds)
			}
			next := map[string]Rel{}
			changed := false
			for _, d := range n.Defs {
				r, err := in.eval(d.Body, cur, names, fcrm)
				if err != nil {
					return nil, err
				}
				next[d.Name] = r
				if !r.Equal(cur[d.Name]) {
					changed = true
				}
			}
			cur = next
			if !changed {
				return cur[n.Out], nil
			}
		}
	}
	return nil, invalidf("unknown op %d", n.Op)
}

func filterKeep(n *Node, k, v uint64) bool {
	switch n.FOp {
	case FKeyEq:
		return k == n.A
	case FValEq:
		return v == n.A
	case FKeyNe:
		return k != n.A
	case FValNe:
		return v != n.A
	case FKeyEqVal:
		return k == v
	case FKeyNeVal:
		return k != v
	}
	return false
}

func projCol(c ColSel, rec [2]uint64) uint64 {
	if c == CVal {
		return rec[1]
	}
	return rec[0]
}

func joinCol(s JoinSel, k, v, w uint64) uint64 {
	switch s {
	case JLeftVal:
		return v
	case JRightVal:
		return w
	}
	return k
}

// EvalDatalog evaluates the program bottom-up to a fixed point with set
// semantics, counting last when the query predicate's heads count — the
// brute-force oracle compiled plans are checked against.
// Records of non-positive multiplicity in edb are treated as absent.
func EvalDatalog(prog *Program, edb map[string]Rel) (Rel, error) {
	if prog == nil || len(prog.Rules) == 0 {
		return nil, planErrf("empty program")
	}
	idb := map[string]bool{}
	for _, r := range prog.Rules {
		idb[r.Head.Pred] = true
	}
	facts := map[string]map[[2]uint64]bool{}
	factsOf := func(pred string) map[[2]uint64]bool {
		if f, ok := facts[pred]; ok {
			return f
		}
		f := map[[2]uint64]bool{}
		if !idb[pred] {
			for rec, d := range edb[pred] {
				if d > 0 {
					f[rec] = true
				}
			}
		}
		facts[pred] = f
		return f
	}
	for rounds := 0; ; rounds++ {
		if rounds > maxFixRounds {
			return nil, planErrf("datalog evaluation did not converge within %d rounds", maxFixRounds)
		}
		changed := false
		for _, r := range prog.Rules {
			out := factsOf(r.Head.Pred)
			var fire func(i int, env map[string]uint64)
			fire = func(i int, env map[string]uint64) {
				if i == len(r.Body) {
					for _, cn := range r.Neq {
						if termVal(cn.L, env) == termVal(cn.R, env) {
							return
						}
					}
					rec := [2]uint64{termVal(r.Head.Args[0], env), termVal(r.Head.Args[1], env)}
					if !out[rec] {
						out[rec] = true
						changed = true
					}
					return
				}
				a := r.Body[i]
				for rec := range factsOf(a.Pred) {
					ok := true
					var fresh []string
					for j, t := range a.Args {
						if !t.IsVar() {
							if rec[j] != t.Const {
								ok = false
								break
							}
							continue
						}
						if old, had := env[t.Var]; had {
							if old != rec[j] {
								ok = false
								break
							}
							continue
						}
						env[t.Var] = rec[j]
						fresh = append(fresh, t.Var)
					}
					if ok {
						fire(i+1, env)
					}
					for _, v := range fresh {
						delete(env, v)
					}
				}
			}
			fire(0, map[string]uint64{})
		}
		if !changed {
			break
		}
	}
	qp := prog.Rules[0].Head.Pred
	if prog.Query != nil {
		qp = prog.Query.Pred
	}
	res := factsOf(qp)
	for _, r := range prog.Rules {
		if r.Head.Pred == qp && r.Head.Count {
			// p(x, count(y)): each key with the number of its distinct values.
			counts := map[uint64]uint64{}
			for rec := range res {
				counts[rec[0]]++
			}
			res = map[[2]uint64]bool{}
			for k, n := range counts {
				res[[2]uint64{k, n}] = true
			}
			break
		}
	}
	out := Rel{}
	for rec := range res {
		if qa := prog.Query; qa != nil {
			k, v := qa.Args[0], qa.Args[1]
			if !k.IsVar() && rec[0] != k.Const {
				continue
			}
			if !v.IsVar() && rec[1] != v.Const {
				continue
			}
			if k.IsVar() && v.IsVar() && k.Var == v.Var && rec[0] != rec[1] {
				continue
			}
		}
		out[rec] = 1
	}
	return out, nil
}

func termVal(t Term, env map[string]uint64) uint64 {
	if t.IsVar() {
		return env[t.Var]
	}
	return t.Const
}

// String renders a small relation for test failure messages.
func (r Rel) String() string {
	return fmt.Sprintf("Rel(%d records)", len(r))
}
