package plan

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/graspan"
)

// FuzzDatalogParse: the parser and planner never panic; malformed programs
// yield typed errors; compiled plans validate and survive the codec; and a
// shuffled, renamed copy of the program compiles to the same bytes.
func FuzzDatalogParse(f *testing.F) {
	seeds := []string{
		datalog.TCSrc,
		datalog.SGSrc,
		datalog.TCSrc + "\n?- tc(1, x).",
		graspan.ReachSrc,
		`p(x, y) :- e(x, 3), f(4, y), x != y, x != 0. % comment`,
		"# hash comment\np(x,x) :- e(x,x).",
		`p(x, y) :- e(x, y)`,
		`p(1, 2).`,
		`?- q(x, y).`,
		`p(x, y) :- e(x, y), 18446744073709551615 != x.`,
		`p(((`,
		`p(x, y) :- e(x, y), x !`,
		// Head aggregates, valid and malformed, with the nesting, trailing
		// operators and bad operands a shell can type.
		`deg(x, count(y)) :- e(x, y).`,
		`r(x, count(y)) :- tc(x, y).` + datalog.TCSrc + `?- r(3, _).`,
		`deg(count(y), x) :- e(x, y).`,
		`deg(x, count(_)) :- e(x, y).`,
		`deg(x, count(0)) :- e(x, y).`,
		`deg(x, count(count(count(y)))) :- e(x, y).`,
		`deg(x, count(y) :- e(x, y).`,
		`deg(x, count(y)) :- e(x, y),`,
		`deg(x, count(y)) :- deg(x, y).`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		prog, err := ParseDatalog(src)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		if len(prog.Rules) > 16 {
			return // bound the planner search during fuzzing
		}
		root, info, err := Compile(prog)
		respelled, _, errCopy := Compile(respell(rand.New(rand.NewSource(int64(len(src)))), prog))
		if (err == nil) != (errCopy == nil) {
			t.Fatalf("respelled copy compiles differently: %v, copy %v", err, errCopy)
		}
		if err != nil {
			if !errors.Is(err, ErrPlan) {
				t.Fatalf("untyped compile error: %v", err)
			}
			return
		}
		if info.PlanNs < 0 {
			t.Fatalf("negative planning time")
		}
		if err := root.Validate(); err != nil {
			t.Fatalf("compiled plan invalid: %v", err)
		}
		enc := Encode(root)
		if string(Encode(respelled)) != string(enc) {
			t.Fatalf("respelled copy compiles to other bytes")
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("compiled plan does not round-trip: %v", err)
		}
		if back.Key() != root.Key() {
			t.Fatalf("codec changed plan key")
		}
	})
}

// FuzzPlanDecode: the wire decoder never panics; malformed bytes yield typed
// errors; accepted plans re-encode canonically.
func FuzzPlanDecode(f *testing.F) {
	for _, n := range samplePlans(f) {
		f.Add(Encode(n))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, byte(OpScan), 1, 0, 0, 0, 'e'})
	f.Add(Encode(Scan("e").Filter(FKeyEqVal, 1))) // an operand where none is read
	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrDecode) && !errors.Is(err, ErrInvalid) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc := Encode(n)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if back.Key() != n.Key() {
			t.Fatalf("re-encode changed plan key")
		}
	})
}
