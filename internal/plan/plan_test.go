package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
)

func relOf(pairs ...[2]uint64) Rel {
	r := Rel{}
	for _, p := range pairs {
		r[p] = 1
	}
	return r
}

// closure computes the transitive closure of edges by saturation.
func closure(edges Rel) Rel {
	reach := map[[2]uint64]bool{}
	for e := range edges {
		reach[e] = true
	}
	for {
		var add [][2]uint64
		for a := range reach {
			for b := range reach {
				if a[1] == b[0] && !reach[[2]uint64{a[0], b[1]}] {
					add = append(add, [2]uint64{a[0], b[1]})
				}
			}
		}
		if len(add) == 0 {
			break
		}
		for _, e := range add {
			reach[e] = true
		}
	}
	out := Rel{}
	for e := range reach {
		out[e] = 1
	}
	return out
}

func testEdges() Rel {
	return relOf(
		[2]uint64{1, 2}, [2]uint64{2, 3}, [2]uint64{3, 4},
		[2]uint64{2, 5}, [2]uint64{5, 1}, [2]uint64{6, 3},
	)
}

func mustCompile(t *testing.T, src string) *Node {
	t.Helper()
	prog, err := ParseDatalog(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, info, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if info.PlanNs <= 0 {
		t.Fatalf("planning time not recorded: %d", info.PlanNs)
	}
	return root
}

func TestCompileTCMatchesClosure(t *testing.T) {
	root := mustCompile(t, datalog.TCSrc)
	if root.Op != OpFixpoint {
		t.Fatalf("recursive program should compile to a fixpoint, got %s", root.Op)
	}
	edb := map[string]Rel{"edges": testEdges()}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	want := closure(testEdges())
	if !got.Equal(want) {
		t.Fatalf("tc mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestCompileSGMatchesOracle(t *testing.T) {
	prog, err := ParseDatalog(datalog.SGSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	edb := map[string]Rel{"edges": testEdges()}
	want, err := EvalDatalog(prog, edb)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if len(want) == 0 {
		t.Fatalf("degenerate oracle: no sg facts")
	}
	root, _, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("sg mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestQueryDirectiveFilters(t *testing.T) {
	root := mustCompile(t, datalog.TCSrc+"\n?- tc(1, y).")
	edb := map[string]Rel{"edges": testEdges()}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	for rec := range got {
		if rec[0] != 1 {
			t.Fatalf("query filter leaked record %v", rec)
		}
	}
	full := closure(testEdges())
	n := 0
	for rec := range full {
		if rec[0] == 1 {
			n++
		}
	}
	if len(got) != n {
		t.Fatalf("query returned %d records, want %d", len(got), n)
	}

	// Repeated query variable restricts to the diagonal (cycle members).
	root = mustCompile(t, datalog.TCSrc+"\n?- tc(x, x).")
	got, err = Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	for rec := range got {
		if rec[0] != rec[1] {
			t.Fatalf("diagonal filter leaked record %v", rec)
		}
	}
	if len(got) == 0 {
		t.Fatalf("1→2→5→1 cycle should produce tc(x,x) facts")
	}
}

func TestRepeatedHeadVariable(t *testing.T) {
	// graspan-style seeding: reach(o, o) for every null(o, o).
	src := `reach(o, o) :- null(o, o).
		reach(q, o) :- reach(p, o), assign(p, q).`
	root := mustCompile(t, src)
	edb := map[string]Rel{
		"null":   relOf([2]uint64{7, 7}, [2]uint64{8, 8}, [2]uint64{1, 2}),
		"assign": relOf([2]uint64{7, 9}, [2]uint64{9, 4}),
	}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	want := relOf(
		[2]uint64{7, 7}, [2]uint64{8, 8}, // seeds: only null(o,o) with o==o
		[2]uint64{9, 7}, [2]uint64{4, 7}, // assign chains 7→9→4
	)
	if !got.Equal(want) {
		t.Fatalf("reach mismatch: got %v, want %v", got, want)
	}
}

func TestDAGProgramInlines(t *testing.T) {
	src := `two(x, z) :- e(x, y), e(y, z).
		out(x, z) :- two(x, z), x != z.`
	root := mustCompile(t, src+"\n?- out(x, y).")
	if root.Op == OpFixpoint {
		t.Fatalf("non-recursive program must not compile to a fixpoint")
	}
	edb := map[string]Rel{"e": testEdges()}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	prog, _ := ParseDatalog(src + "\n?- out(x, y).")
	want, err := EvalDatalog(prog, edb)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestCompileRejects(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unbound head var", `p(x, q) :- e(x, y).`},
		{"constant head", `p(1, y) :- e(1, y).`},
		{"unsatisfiable neq", `p(x, y) :- e(x, y), x != x.`},
		{"unbound neq var", `p(x, y) :- e(x, y), z != 3.`},
		{"cross product", `p(x, y) :- e(x, z), f(w, y).`},
		{"query without rules", `p(x, y) :- e(x, y).` + "\n?- z(x, y)."},
		{"recursion without base", `p(x, y) :- p(x, y).`},
	}
	for _, tc := range cases {
		prog, err := ParseDatalog(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, _, err := Compile(prog); !errors.Is(err, ErrPlan) {
			t.Fatalf("%s: want ErrPlan, got %v", tc.name, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ``},
		{"comment only", `% nothing here`},
		{"fact", `p(1, 2).`},
		{"ternary atom", `p(x, y) :- e(x, y, z).`},
		{"missing dot", `p(x, y) :- e(x, y)`},
		{"const neq const", `p(x, y) :- e(x, y), 1 != 2.`},
		{"two directives", `p(x,y) :- e(x,y). ?- p(x,y). ?- p(y,x).`},
		{"stray symbol", `p(x, y) :- e(x, y) & f(x, y).`},
	}
	for _, tc := range cases {
		if _, err := ParseDatalog(tc.src); !errors.Is(err, ErrParse) {
			t.Fatalf("%s: want ErrParse, got %v", tc.name, err)
		}
	}
}

func samplePlans(t testing.TB) []*Node {
	var out []*Node
	for _, src := range []string{datalog.TCSrc, datalog.SGSrc, datalog.TCSrc + "\n?- tc(1, x)."} {
		prog, err := ParseDatalog(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		root, _, err := Compile(prog)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		out = append(out, root)
	}
	out = append(out,
		Scan("edges"),
		Scan("edges").Filter(FKeyNe, 3).Count(),
		Scan("edges").KeyEq(5).Swap().JoinRight(Scan("edges")),
		Scan("a").JoinEq(Scan("b").Distinct(), JKey, JRightVal).Project(CVal, CVal),
	)
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	for i, n := range samplePlans(t) {
		enc := Encode(n)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("plan %d: decode: %v", i, err)
		}
		if back.Key() != n.Key() {
			t.Fatalf("plan %d: key changed:\n got %s\nwant %s", i, back.Key(), n.Key())
		}
		if again := Encode(back); string(again) != string(enc) {
			t.Fatalf("plan %d: re-encode not canonical", i)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := Encode(samplePlans(t)[2])
	cases := map[string][]byte{
		"empty":          {},
		"zero count":     {0, 0, 0, 0},
		"huge count":     {0xff, 0xff, 0xff, 0xff},
		"unknown op":     {1, 0, 0, 0, 0xee},
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 1, 2, 3),
	}
	// Forward/self reference: one filter node pointing at itself.
	self := []byte{1, 0, 0, 0, byte(OpFilter), byte(FKeyEq)}
	self = append(self, make([]byte, 8)...) // A
	self = append(self, 0, 0, 0, 0)         // child index 0 == itself
	cases["self reference"] = self
	// A filter with the retired modulus code decodes structurally and fails
	// validation.
	cases["filter code 5"] = Encode(Scan("e").Filter(5, 3))
	for name, b := range cases {
		n, err := Decode(b)
		if err == nil {
			t.Fatalf("%s: decoded %v, want error", name, n)
		}
		if !errors.Is(err, ErrDecode) && !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: untyped error %v", name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]*Node{
		"retired filter code 5": Scan("e").Filter(5, 3),
		"retired filter code 6": Scan("e").Filter(6, 3),
		"unknown filter op":     Scan("e").Filter(9, 0),
		// FKeyEqVal and FKeyNeVal take no operand: one spelling each.
		"key=val with operand":  Scan("e").Filter(FKeyEqVal, 1),
		"key≠val with operand":  Scan("e").Filter(FKeyNeVal, 1),
		"unknown column":        Scan("e").Project(CKey, 2),
		"unknown join selector": Scan("e").Join(Scan("e"), JKey, 3),
		// The same field checks on a fixpoint's recursive path.
		"rec path filter code 5": Fixpoint("t", Def{Name: "t",
			Body: Union(Scan("e"), Rec("t").Filter(5, 3)).Distinct()}),
		"rec path unknown selector": Fixpoint("t", Def{Name: "t",
			Body: Union(Scan("e"), Rec("t").Join(Scan("e"), 3, JKey)).Distinct()}),
		"rec outside fix":      Rec("t"),
		"fix body no distinct": Fixpoint("t", Def{Name: "t", Body: Scan("e")}),
		"fix missing out":      Fixpoint("q", Def{Name: "t", Body: Scan("e").Distinct()}),
		"count on rec path": Fixpoint("t",
			Def{Name: "t", Body: Rec("t").Count().Distinct()}),
		"empty scan name": Scan(""),
		"fix without base": Fixpoint("t",
			Def{Name: "t", Body: Rec("t").Distinct()}),
	}
	for name, n := range cases {
		if err := n.Validate(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: want ErrInvalid, got %v", name, err)
		}
	}
	good := Fixpoint("t", Def{Name: "t",
		Body: Union(Scan("e"), Rec("t").JoinRight(Scan("e"))).Distinct()})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fixpoint rejected: %v", err)
	}
}

// TestWildcardIsAnonymous: each `_` is a fresh variable. The historical bug
// tokenized `_` as one shared named variable, so `?- tc(_, _).` compiled to
// a key==value filter and returned only self-loops.
func TestWildcardIsAnonymous(t *testing.T) {
	root := mustCompile(t, datalog.TCSrc+"\n?- tc(_, _).")
	edb := map[string]Rel{"edges": testEdges()}
	got, err := Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	want := closure(testEdges())
	if !got.Equal(want) {
		t.Fatalf("tc(_, _) mismatch: got %d records, want the full closure (%d)", len(got), len(want))
	}
	offDiagonal := false
	for rec := range got {
		if rec[0] != rec[1] {
			offDiagonal = true
		}
	}
	if !offDiagonal {
		t.Fatalf("tc(_, _) returned only self-loops: wildcards joined")
	}

	// Wildcards in different atoms must not join each other: p keeps the
	// edges whose target has any outgoing edge.
	src := `p(x, y) :- edges(x, y), edges(y, _).`
	root = mustCompile(t, src)
	got, err = Interpret(root, edb)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	prog, err := ParseDatalog(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want, err = EvalDatalog(prog, edb)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("wildcard body atom disagrees with oracle: got %v, want %v", got, want)
	}
	// testEdges minus (3,4): node 4 has no outgoing edge.
	explicit := relOf(
		[2]uint64{1, 2}, [2]uint64{2, 3},
		[2]uint64{2, 5}, [2]uint64{5, 1}, [2]uint64{6, 3},
	)
	if !want.Equal(explicit) {
		t.Fatalf("oracle wildcard semantics off: got %v, want %v", want, explicit)
	}
}

func TestWildcardRejectedWhereMeaningless(t *testing.T) {
	cases := map[string]string{
		"head key":   `p(_, y) :- e(x, y).`,
		"head val":   `p(x, _) :- e(x, y).`,
		"constraint": `p(x, y) :- e(x, y), _ != 3.`,
	}
	for name, src := range cases {
		if _, err := ParseDatalog(src); !errors.Is(err, ErrParse) {
			t.Fatalf("%s: want ErrParse, got %v", name, err)
		}
	}
	// `_`-prefixed identifiers longer than the bare wildcard stay ordinary
	// named variables.
	src := `p(_a, _a) :- e(_a, _a).`
	root := mustCompile(t, src)
	got, err := Interpret(root, map[string]Rel{"e": testEdges()})
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("repeated _a should demand key==value; testEdges has no self-loop, got %v", got)
	}
}

// TestValidateDeepSharedDAG reproduces the remote-DoS shape from review: a
// small encoded frame whose fixpoint body holds a recursion-free doubling
// Union DAG. Validation, keys, the codec, and the interpreter must all stay
// linear in distinct nodes — an unmemoized tree walk would take 2^depth
// steps and this test would never finish.
func TestValidateDeepSharedDAG(t *testing.T) {
	const depth = 40 // 2^40 tree paths; well past any feasible unmemoized walk
	deep := Scan("e")
	for i := 0; i < depth; i++ {
		deep = Union(deep, deep)
	}
	// t(x,z) :- e(x,z).  t(x,z) :- t(x,y), e(y,z).  with e replaced by the
	// doubling DAG (same set, 2^depth multiplicity — Distinct consolidates).
	root := Fixpoint("t", Def{Name: "t",
		Body: Union(deep, Rec("t").Swap().JoinRight(Scan("e")).Swap()).Distinct()})
	if err := root.Validate(); err != nil {
		t.Fatalf("deep shared DAG rejected: %v", err)
	}
	enc := Encode(root)
	if len(enc) > 4096 {
		t.Fatalf("hash-consed encoding unexpectedly large: %d bytes", len(enc))
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Key() != root.Key() {
		t.Fatalf("key changed across codec round-trip")
	}
	if len(back.Key()) != len(Scan("e").Key()) {
		t.Fatalf("keys are not constant-size: deep plan key has %d bytes", len(back.Key()))
	}
	got, err := Interpret(back, map[string]Rel{"e": relOf([2]uint64{1, 2}, [2]uint64{2, 3})})
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	want := relOf([2]uint64{1, 2}, [2]uint64{2, 3}, [2]uint64{1, 3})
	if !got.Equal(want) {
		t.Fatalf("deep DAG fixpoint mismatch: got %v, want %v", got, want)
	}
}

// TestValidateCountsDistinctNodes: the MaxNodes budget counts distinct
// nodes, not tree-path expansions — deep sharing is admitted (previous
// test), while genuinely oversized plans still reject.
func TestValidateCountsDistinctNodes(t *testing.T) {
	n := Scan("e")
	for i := 0; i <= MaxNodes; i++ {
		n = n.KeyEq(uint64(i))
	}
	if err := n.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("plan with %d distinct nodes: want ErrInvalid, got %v", MaxNodes+2, err)
	}
}

func TestSharedSubPlanKeysCoincide(t *testing.T) {
	full := mustCompile(t, datalog.TCSrc)
	filtered := mustCompile(t, datalog.TCSrc+"\n?- tc(1, y).")
	if filtered.Op != OpFilter {
		t.Fatalf("directive should add a filter, got %s", filtered.Op)
	}
	parts := SharedParts(filtered)
	found := false
	for _, p := range parts {
		if p.Key() == full.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("filtered query does not share the unfiltered fixpoint sub-plan")
	}
	// Identical plans compiled independently are bit-identical on the wire.
	again := mustCompile(t, datalog.TCSrc)
	if string(Encode(again)) != string(Encode(full)) {
		t.Fatalf("independent compiles of the same program differ")
	}
}

func randProgram(r *rand.Rand) *Program {
	vars := []string{"x", "y", "z", "w"}
	edbs := []string{"e", "f"}
	nPreds := 1 + r.Intn(2)
	preds := make([]string, nPreds)
	for i := range preds {
		preds[i] = fmt.Sprintf("p%d", i)
	}
	prog := &Program{}
	randTerm := func() Term {
		if r.Intn(6) == 0 {
			return Term{Const: uint64(r.Intn(5))}
		}
		return Term{Var: vars[r.Intn(len(vars))]}
	}
	for _, p := range preds {
		for nRules := 1 + r.Intn(2); nRules > 0; {
			var body []Atom
			for k := 1 + r.Intn(3); k > 0; k-- {
				pd := edbs[r.Intn(len(edbs))]
				if r.Intn(3) == 0 {
					pd = preds[r.Intn(len(preds))]
				}
				body = append(body, Atom{Pred: pd, Args: [2]Term{randTerm(), randTerm()}})
			}
			var bv []string
			seen := map[string]bool{}
			for _, a := range body {
				for _, tm := range a.Args {
					if tm.IsVar() && !seen[tm.Var] {
						seen[tm.Var] = true
						bv = append(bv, tm.Var)
					}
				}
			}
			if len(bv) == 0 {
				continue // retry: head needs a bound variable
			}
			rule := Rule{
				Head: Atom{Pred: p, Args: [2]Term{
					{Var: bv[r.Intn(len(bv))]}, {Var: bv[r.Intn(len(bv))]},
				}},
				Body: body,
			}
			if len(bv) >= 2 && r.Intn(4) == 0 {
				a, b := bv[r.Intn(len(bv))], bv[r.Intn(len(bv))]
				if a != b {
					rule.Neq = append(rule.Neq, Constraint{L: Term{Var: a}, R: Term{Var: b}})
				}
			}
			prog.Rules = append(prog.Rules, rule)
			nRules--
		}
	}
	if r.Intn(3) == 0 {
		q := Atom{Pred: preds[0], Args: [2]Term{randTerm(), randTerm()}}
		prog.Query = &q
	}
	return prog
}

// respell returns a copy of prog that computes the same relation, spelled
// differently: rules, body atoms and constraints shuffled, constraint sides
// swapped at random, and variables renamed rule by rule. A `?-` directive
// keeps the query predicate fixed when prog had none (the default is the
// first rule's head).
func respell(r *rand.Rand, prog *Program) *Program {
	if len(prog.Rules) == 0 {
		return prog
	}
	var names map[string]string
	rename := func(t Term) Term {
		if !t.IsVar() {
			return t
		}
		if _, ok := names[t.Var]; !ok {
			names[t.Var] = fmt.Sprintf("v%d_%d", r.Intn(100), len(names))
		}
		return Term{Var: names[t.Var]}
	}
	renameAtom := func(a Atom) Atom {
		a.Args = [2]Term{rename(a.Args[0]), rename(a.Args[1])}
		return a
	}
	q := Atom{Pred: prog.Rules[0].Head.Pred, Args: [2]Term{{Var: "k"}, {Var: "v"}}}
	if prog.Query != nil {
		q = *prog.Query
	}
	names = map[string]string{}
	q = renameAtom(q)
	out := &Program{Query: &q}
	for _, i := range r.Perm(len(prog.Rules)) {
		rule := prog.Rules[i]
		names = map[string]string{}
		body := make([]Atom, len(rule.Body))
		for k, j := range r.Perm(len(body)) {
			body[k] = renameAtom(rule.Body[j])
		}
		neq := make([]Constraint, len(rule.Neq))
		for k, j := range r.Perm(len(neq)) {
			cn := Constraint{L: rename(rule.Neq[j].L), R: rename(rule.Neq[j].R)}
			if r.Intn(2) == 0 {
				cn.L, cn.R = cn.R, cn.L
			}
			neq[k] = cn
		}
		out.Rules = append(out.Rules, Rule{Head: renameAtom(rule.Head), Body: body, Neq: neq})
	}
	return out
}

// TestCompileIsCanonical: a plan depends on what a program computes, not on
// how it is spelled. Every respelled copy of a program compiles to the
// original's plan.Encode bytes, so the sub-plan registry shares its
// arrangements. The programs are every one of randProgram's stream that
// compiles, and fixed ones with three rules for one predicate of four to six
// body atoms and two constraints each, where the greedy scores tie most.
func TestCompileIsCanonical(t *testing.T) {
	var progs []*Program
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		progs = append(progs, randProgram(r))
	}
	for _, src := range []string{
		`p(x, w) :- e(x, y), f(y, z), e(z, w), f(w, v), x != w, y != 3.
		p(x, w) :- f(x, y), e(y, z), e(z, u), f(u, w), f(w, 2), z != 4, z != 1.
		p(x, w) :- e(x, y), e(y, z), e(z, u), e(u, v), e(v, w), e(w, t), x != w, u != 1.
		?- p(_, _).`,
		`t(x, y) :- e(x, y).
		t(x, z) :- t(x, y), e(y, z).
		q(x, z) :- t(x, y), e(y, w), f(w, z), t(z, v), x != z, w != 0.
		q(x, z) :- e(x, y), t(y, w), f(w, u), e(u, z), y != w, x != 5.
		q(x, z) :- f(x, x), e(x, y), t(y, z), f(z, w), e(w, u), x != z, u != 3.
		?- q(_, _).`,
		`s(x, y) :- e(p, x), e(p, y), f(x, a), f(y, 3), x != y, p != 2.
		s(x, y) :- e(p, x), f(q, y), e(p, q), f(x, z), x != y, z != 7.
		s(y, x) :- f(p, x), f(p, y), e(x, a), e(y, b), f(y, 4), x != y, a != 1.
		?- s(_, _).`,
	} {
		prog, err := ParseDatalog(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		progs = append(progs, prog)
	}
	compiled := 0
	for i, prog := range progs {
		root, _, err := Compile(prog)
		if err != nil {
			if i >= 400 {
				t.Fatalf("fixed program %d: %v", i-400, err)
			}
			continue
		}
		compiled++
		want := Encode(root)
		for k := 0; k < 20; k++ {
			cp := respell(r, prog)
			got, _, err := Compile(cp)
			if err != nil {
				t.Fatalf("program %d: copy %d does not compile: %v", i, k, err)
			}
			if string(Encode(got)) != string(want) {
				t.Fatalf("program %d: copy %d compiles to other bytes\noriginal: %v\ncopy:     %v",
					i, k, prog.Rules, cp.Rules)
			}
		}
	}
	if compiled < 100 {
		t.Fatalf("only %d of %d programs compiled", compiled, len(progs))
	}
}

// TestTiedAtomsPlanWithinBudget: eight atoms that tie on score at every step
// plan within the search budget. Over one predicate their steps also tie on
// key, so the search tries every order, and the orders that reach one state
// are planned once (the first rule needs that: all 8! orders exceed the
// budget); over eight predicates the key order decides each step.
func TestTiedAtomsPlanWithinBudget(t *testing.T) {
	for _, src := range []string{
		`p(x, x) :- e(x, a), e(x, b), e(x, c), e(x, d), e(x, f), e(x, g), e(x, h), e(x, i).`,
		`p(x, y) :- e(x, a), e(x, b), e(x, c), e(x, d), e(x, f), e(x, g), e(x, h), e(x, y).`,
		`p(x, y) :- a(x, i), b(x, j), c(x, k), d(x, l), f(x, m), g(x, n), h(x, o), e(x, y).`,
	} {
		mustCompile(t, src)
	}
}

// TestSetNeedsNoDistinct: a predicate whose one rule already yields a set
// compiles without a Distinct over it, so it installs one arrangement fewer.
func TestSetNeedsNoDistinct(t *testing.T) {
	for _, tc := range []struct {
		src   string
		parts int
	}{
		{`q(x, y) :- edges(x, y). p(x, y) :- q(x, y). ?- p(_, _).`, 1}, // distinct
		{countHeadPrograms[3].src, 2},                                  // fixpoint, count
	} {
		if got := len(SharedParts(mustCompile(t, tc.src))); got != tc.parts {
			t.Fatalf("%s: %d shared parts, want %d", tc.src, got, tc.parts)
		}
	}
}

func randRel(r *rand.Rand, n int) Rel {
	out := Rel{}
	for i := 0; i < n; i++ {
		out[[2]uint64{uint64(r.Intn(5)), uint64(r.Intn(5))}] = 1
	}
	return out
}

// TestPlannerOrderIndependence is the planner property test: for random rule
// sets, the planned order and the brute-force Datalog oracle agree.
func TestPlannerOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	compiled, failed := 0, 0
	for iter := 0; iter < 400; iter++ {
		prog := randProgram(r)
		edb := map[string]Rel{"e": randRel(r, 8), "f": randRel(r, 8)}
		root, _, err := Compile(prog)
		if err != nil {
			if !errors.Is(err, ErrPlan) {
				t.Fatalf("iter %d: untyped compile error %v", iter, err)
			}
			failed++
			continue
		}
		compiled++
		want, err := EvalDatalog(prog, edb)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", iter, err)
		}
		got, err := Interpret(root, edb)
		if err != nil {
			t.Fatalf("iter %d: interpret: %v", iter, err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: plan disagrees with oracle: got %d records, want %d\nprogram: %v",
				iter, len(got), len(want), prog.Rules)
		}
	}
	if compiled < 100 {
		t.Fatalf("only %d/%d programs compiled (%d infeasible) — generator too adversarial", compiled, compiled+failed, failed)
	}
}

func TestInterpretBuilderPipeline(t *testing.T) {
	// The nodes two hops from 5, keyed by endpoint.
	n := Scan("edges").KeyEq(5).Swap().JoinRight(Scan("edges"))
	edges := relOf([2]uint64{5, 1}, [2]uint64{5, 2}, [2]uint64{2, 9}, [2]uint64{1, 7})
	got, err := Interpret(n, map[string]Rel{"edges": edges})
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	// keyeq 5 → (5,1),(5,2); swap → (1,5),(2,5); join edges on key:
	// (1,5)⋈(1,7)→(7,5); (2,5)⋈(2,9)→(9,5).
	want := relOf([2]uint64{7, 5}, [2]uint64{9, 5})
	if !got.Equal(want) {
		t.Fatalf("pipeline mismatch: got %v want %v", got, want)
	}

	cnt := Scan("edges").Count()
	got, err = Interpret(cnt, map[string]Rel{"edges": edges})
	if err != nil {
		t.Fatalf("interpret count: %v", err)
	}
	want = relOf([2]uint64{5, 2}, [2]uint64{2, 1}, [2]uint64{1, 1})
	if !got.Equal(want) {
		t.Fatalf("count mismatch: got %v want %v", got, want)
	}
}

// countHeadPrograms are the aggregate programs over edges that
// TestCountHead holds to hand-computed answers and TestBuildMatchesInterpret
// to Interpret under churn.
var countHeadPrograms = []struct{ name, src string }{
	{"one atom", `deg(x, count(y)) :- edges(x, y).`},
	{"join", `two(x, count(z)) :- edges(x, y), edges(y, z).`},
	{"two rules", `nb(x, count(y)) :- edges(x, y).
		nb(x, count(y)) :- edges(y, x).`},
	{"recursive", `reach(x, count(y)) :- tc(x, y).` + datalog.TCSrc},
	{"restricted", `deg(x, count(y)) :- edges(x, y).
		?- deg(3, _).`},
}

// TestCountHead: p(x, count(y)) relates each key to the number of distinct
// values the rules derive for it, whatever the base multiplicities, as the
// brute-force oracle and a hand count say.
func TestCountHead(t *testing.T) {
	edb := map[string]Rel{"edges": testEdges()} // 1→2 2→3 3→4 2→5 5→1 6→3
	edb["edges"][[2]uint64{1, 2}] = 3
	want := []Rel{
		relOf([2]uint64{1, 1}, [2]uint64{2, 2}, [2]uint64{3, 1}, [2]uint64{5, 1}, [2]uint64{6, 1}),
		relOf([2]uint64{1, 2}, [2]uint64{2, 2}, [2]uint64{5, 1}, [2]uint64{6, 1}),
		relOf([2]uint64{1, 2}, [2]uint64{2, 3}, [2]uint64{3, 3}, [2]uint64{4, 1}, [2]uint64{5, 2}, [2]uint64{6, 1}),
		relOf([2]uint64{1, 5}, [2]uint64{2, 5}, [2]uint64{5, 5}, [2]uint64{3, 1}, [2]uint64{6, 2}),
		relOf([2]uint64{3, 1}),
	}
	for i, tc := range countHeadPrograms {
		prog, err := ParseDatalog(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		oracle, err := EvalDatalog(prog, edb)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		if !oracle.Equal(want[i]) {
			t.Fatalf("%s: oracle says %v, hand count %v", tc.name, oracle, want[i])
		}
		got, err := Interpret(mustCompile(t, tc.src), edb)
		if err != nil {
			t.Fatalf("%s: interpret: %v", tc.name, err)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("%s: got %v, want %v", tc.name, map[[2]uint64]int64(got), map[[2]uint64]int64(want[i]))
		}
	}
	// The count reads the fixpoint from outside, with no Distinct between
	// (the fixpoint is a set already): its input is the same fixpoint TC
	// compiles to, so the two share it.
	reach := mustCompile(t, countHeadPrograms[3].src)
	if reach.Op != OpCount || reach.In.Key() != mustCompile(t, datalog.TCSrc).Key() {
		t.Fatalf("recursive count does not read the tc fixpoint from outside it")
	}
	// "count" without a parenthesis is an ordinary variable name.
	root := mustCompile(t, `p(x, count) :- edges(x, count).`)
	if got, _ := Interpret(root, edb); len(got) != len(edb["edges"]) {
		t.Fatalf("count as a variable name: got %v", got)
	}
}

// TestAggregateRejects: a count outside the query predicate, mixed with
// plain heads, referenced by a body (and so possibly inside a fixpoint), in
// the key position or over anything but a bound non-key variable is refused
// with a typed error: a parse error where one rule shows it, a compile error
// where it takes the program.
func TestAggregateRejects(t *testing.T) {
	cases := []struct {
		name, src string
		want      error
	}{
		{"referenced in a body", "deg(x, count(y)) :- e(x, y).\nq(x, y) :- deg(x, y).", ErrPlan},
		{"recursive", "deg(x, count(y)) :- e(x, y).\ndeg(x, count(z)) :- deg(x, y), e(y, z).", ErrPlan},
		{"mixed heads", "deg(x, count(y)) :- e(x, y).\ndeg(x, y) :- f(x, y).", ErrPlan},
		{"key position", "deg(count(y), x) :- e(x, y).", ErrParse},
		{"wildcard", "deg(x, count(_)) :- e(x, y).", ErrParse},
		{"not the query predicate", "q(x, y) :- e(x, y).\ndeg(x, count(y)) :- e(x, y).", ErrPlan},
		{"not the directive's predicate", "deg(x, count(y)) :- e(x, y).\nq(x, y) :- e(x, y).\n?- q(x, y).", ErrPlan},
		{"counts the key", "deg(x, count(x)) :- e(x, y).", ErrPlan},
		{"counts a constant", "deg(x, count(0)) :- e(x, y).", ErrPlan},
		{"unbound", "deg(x, count(z)) :- e(x, y).", ErrPlan},
		{"in a body atom", "p(x, y) :- e(x, count(y)).", ErrParse},
		{"in the directive", "deg(x, count(y)) :- e(x, y).\n?- deg(x, count(y)).", ErrParse},
		{"nested", "deg(x, count(count(y))) :- e(x, y).", ErrParse},
		{"unclosed", "deg(x, count(y) :- e(x, y).", ErrParse},
	}
	for _, tc := range cases {
		prog, err := ParseDatalog(tc.src)
		if err == nil {
			_, _, err = Compile(prog)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: want %v, got %v", tc.name, tc.want, err)
		}
	}
}
