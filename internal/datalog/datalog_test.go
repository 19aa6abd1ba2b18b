package datalog

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/timely"
)

// step is one epoch of input: updates by relation name.
type step map[string][]core.Update[uint64, uint64]

// inserts adds every edge once.
func inserts(edges []graphs.Edge) []core.Update[uint64, uint64] {
	upds := make([]core.Update[uint64, uint64], len(edges))
	for i, e := range edges {
		upds[i] = core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	return upds
}

// seed adds (d = 1) or retracts (d = -1) the seed a.
func seed(a uint64, d core.Diff) []core.Update[uint64, uint64] {
	return []core.Update[uint64, uint64]{{Key: a, Val: a, Diff: d}}
}

// builder builds a dataflow over named input relations.
type builder func(rels map[string]dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64]

// handTC is the hand-built TC over the edges relation.
func handTC(rels map[string]dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
	return TC(rels["edges"])
}

// program compiles a program text to a builder that arranges each relation
// the program reads from its input. Every worker builds the one compiled plan.
func program(t *testing.T, src string) builder {
	t.Helper()
	prog, err := plan.ParseDatalog(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return func(rels map[string]dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		out, err := plan.Build(root, plan.Env{Source: func(rel string) (*core.Arranged[uint64, uint64], error) {
			in, ok := rels[rel]
			if !ok {
				return nil, fmt.Errorf("no input relation %q", rel)
			}
			return dd.Arrange(in, core.U64(), rel), nil
		}})
		if err != nil {
			panic(err) // on a worker goroutine, where t.Fatal may not run
		}
		return out
	}
}

// run builds b on the given number of workers, with one input for every
// relation the steps name, feeds step e from worker 0 at epoch e, and returns
// the output accumulated at each epoch as a set. Every record must have
// multiplicity one.
func run(t *testing.T, workers int, b builder, steps ...step) []map[[2]uint64]bool {
	t.Helper()
	var names []string
	for _, s := range steps {
		for n := range s {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	slices.Sort(names) // every worker builds the same dataflow
	cap := &dd.Captured[uint64, uint64]{}
	timely.Execute(workers, func(w *timely.Worker) {
		ins := make([]*dd.InputCollection[uint64, uint64], len(names))
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			rels := map[string]dd.Collection[uint64, uint64]{}
			for i, n := range names {
				ins[i], rels[n] = dd.NewInput[uint64, uint64](g)
			}
			out := b(rels)
			dd.Capture(out, cap)
			probe = dd.Probe(out)
		})
		for e, s := range steps {
			for i, n := range names {
				if w.Index() == 0 {
					for _, u := range s[n] {
						ins[i].UpdateAt(u.Key, u.Val, u.Diff)
					}
				}
				ins[i].AdvanceTo(uint64(e + 1))
			}
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
		}
		for _, in := range ins {
			in.Close()
		}
		w.Drain()
	})
	sets := make([]map[[2]uint64]bool, len(steps))
	for e := range steps {
		sets[e] = map[[2]uint64]bool{}
		for kv, d := range cap.At(lattice.Ts(uint64(e))) {
			if d != 1 {
				t.Fatalf("epoch %d: multiplicity %d for %v", e, d, kv)
			}
			sets[e][[2]uint64{kv[0].(uint64), kv[1].(uint64)}] = true
		}
	}
	return sets
}

func sameSet(t *testing.T, name string, got, want map[[2]uint64]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing %v (got %d, want %d)", name, p, len(got), len(want))
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("%s: spurious %v", name, p)
		}
	}
}

// TestTCOnChainAndTree holds the hand-built TC and the compiled TCSrc to the
// oracle.
func TestTCOnChainAndTree(t *testing.T) {
	for _, edges := range [][]graphs.Edge{graphs.Chain(6), graphs.Tree(2, 3)} {
		want := TCOracle(edges)
		sameSet(t, "tc", run(t, 2, handTC, step{"edges": inserts(edges)})[0], want)
		sameSet(t, "tc program", run(t, 2, program(t, TCSrc), step{"edges": inserts(edges)})[0], want)
	}
}

func TestTCOnRandom(t *testing.T) {
	edges := graphs.Random(25, 40, 5)
	want := TCOracle(edges)
	sameSet(t, "tc-random", run(t, 1, handTC, step{"edges": inserts(edges)})[0], want)
	sameSet(t, "tc-random program", run(t, 1, program(t, TCSrc), step{"edges": inserts(edges)})[0], want)
}

func TestSGOnTree(t *testing.T) {
	edges := graphs.Tree(2, 3)
	got := run(t, 2, program(t, SGSrc), step{"edges": inserts(edges)})[0]
	sameSet(t, "sg", got, SGOracle(edges))
}

func TestSGOnGrid(t *testing.T) {
	edges := graphs.Grid(4)
	got := run(t, 1, program(t, SGSrc), step{"edges": inserts(edges)})[0]
	sameSet(t, "sg-grid", got, SGOracle(edges))
}

// TestTCFromInteractive: seeds arrive and depart over epochs; answers must
// match per-seed closures of the oracle at every epoch.
func TestTCFromInteractive(t *testing.T) {
	edges := graphs.Tree(3, 3)
	full := TCOracle(edges)
	got := run(t, 2, program(t, TCFromSrc),
		step{"edges": inserts(edges), "seeds": seed(0, 1)}, // root: reaches everything
		step{"seeds": seed(1, 1)},                          // add subtree root
		step{"seeds": seed(0, -1)},                         // remove root
	)
	live := []map[uint64]bool{{0: true}, {0: true, 1: true}, {1: true}}
	for e := range got {
		want := map[[2]uint64]bool{} // tcf(y, a) for tc(a, y)
		for p := range full {
			if live[e][p[0]] {
				want[[2]uint64{p[1], p[0]}] = true
			}
		}
		sameSet(t, fmt.Sprintf("tcfrom@%d", e), got[e], want)
	}
}

func TestTCToMatchesReverseOracle(t *testing.T) {
	edges := graphs.Chain(7)
	const target = 5
	got := run(t, 1, program(t, TCToSrc), step{"edges": inserts(edges), "seeds": seed(target, 1)})[0]
	want := map[[2]uint64]bool{}
	for p := range TCOracle(edges) {
		if p[1] == target {
			want[p] = true
		}
	}
	sameSet(t, "tcto", got, want)
}

func TestSGFromSeeded(t *testing.T) {
	edges := graphs.Tree(2, 4)
	full := SGOracle(edges)
	const s = 3 // some node at depth 2
	got := run(t, 2, program(t, SGFromSrc), step{"edges": inserts(edges), "seeds": seed(s, 1)})[0]
	// The magic-set result must contain exactly the full sg pairs whose
	// first argument is the seed... and may contain pairs for other nodes in
	// the magic set (ancestors of the seed); the answers for the seed are
	// what the query reads out.
	for p := range full {
		if p[0] == s && !got[p] {
			t.Fatalf("sgfrom: missing %v", p)
		}
	}
	for p := range got {
		if !full[p] {
			t.Fatalf("sgfrom: %v not in full sg", p)
		}
	}
}
