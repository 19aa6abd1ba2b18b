package graspan

import (
	"fmt"
	"slices"
	"sync"
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

// run compiles src once and evaluates it on the given number of workers,
// each building the one compiled plan, with one input for every relation the
// steps name, each arranged once, feeding step e from worker 0 at epoch e. It
// returns the output accumulated at each epoch as a set; every record must
// have multiplicity one.
func run(t *testing.T, workers int, src string, steps ...step) []map[[2]uint64]bool {
	t.Helper()
	prog, err := plan.ParseDatalog(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
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
	var ready sync.WaitGroup // the workers start building the plan together
	ready.Add(workers)
	timely.Execute(workers, func(w *timely.Worker) {
		ins := make([]*dd.InputCollection[uint64, uint64], len(names))
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			rels := map[string]dd.Collection[uint64, uint64]{}
			for i, n := range names {
				ins[i], rels[n] = dd.NewInput[uint64, uint64](g)
			}
			ready.Done()
			ready.Wait()
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
			t.Fatalf("%s: missing %v (got %d want %d)", name, p, len(got), len(want))
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("%s: spurious %v", name, p)
		}
	}
}

func TestDataflowAnalysisInteractiveRemoval(t *testing.T) {
	prog := Generate(60, 3)
	var nulls []core.Update[uint64, uint64]
	for _, o := range prog.Nulls {
		nulls = append(nulls, core.Update[uint64, uint64]{Key: o, Val: o, Diff: 1})
	}
	first := prog.Nulls[0]
	got := run(t, 2, ReachSrc,
		step{"assign": inserts(prog.Assign), "nulls": nulls},
		// Epoch 1: remove the first null source.
		step{"nulls": {{Key: first, Val: first, Diff: -1}}})
	sameSet(t, "dataflow@0", got[0], DataflowOracle(prog.Assign, prog.Nulls))
	// The first source may repeat in Nulls; its facts go only if no
	// duplicate remains.
	sameSet(t, "dataflow@1", got[1], DataflowOracle(prog.Assign, prog.Nulls[1:]))
}

// pointsTo evaluates vf, va and ma over prog's relations.
func pointsTo(t *testing.T, workers int, prog Program) (vf, va, ma map[[2]uint64]bool) {
	t.Helper()
	in := step{"assign": inserts(prog.Assign), "deref": inserts(prog.Deref)}
	var out [3]map[[2]uint64]bool
	for i, rel := range []string{"vf", "va", "ma"} {
		out[i] = run(t, workers, PointsToSrc+"?- "+rel+"(_, _).", in)[0]
	}
	return out[0], out[1], out[2]
}

func TestPointsToMatchesOracle(t *testing.T) {
	prog := Program{
		Assign: []graphs.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 2}, {Src: 4, Dst: 5}},
		Deref:  []graphs.Edge{{Src: 0, Dst: 6}, {Src: 3, Dst: 7}, {Src: 4, Dst: 8}},
	}
	wVF, wVA, wMA := PointsToOracle(prog.Assign, prog.Deref)
	for _, workers := range []int{1, 2} {
		vf, va, ma := pointsTo(t, workers, prog)
		sameSet(t, "vf", vf, wVF)
		sameSet(t, "va", va, wVA)
		sameSet(t, "ma", ma, wMA)
	}
}

// TestWorkersBuildOneSharedPlan: four workers build one compiled plan
// concurrently. Build reads every node's canonical key; the nodes are shared,
// so reading them must be race-free (run this under -race) and every worker
// must build the same dataflow.
func TestWorkersBuildOneSharedPlan(t *testing.T) {
	prog := Generate(24, 5)
	wVF, _, _ := PointsToOracle(prog.Assign, prog.Deref)
	vf := run(t, 4, PointsToSrc, step{"assign": inserts(prog.Assign), "deref": inserts(prog.Deref)})[0]
	sameSet(t, "vf", vf, wVF)
}

func TestPointsToGeneratedGraph(t *testing.T) {
	prog := Generate(24, 9)
	wVF, wVA, wMA := PointsToOracle(prog.Assign, prog.Deref)
	for _, workers := range []int{1, 2} {
		vf, va, ma := pointsTo(t, workers, prog)
		sameSet(t, "vf", vf, wVF)
		sameSet(t, "va", va, wVA)
		sameSet(t, "ma", ma, wMA)
	}
}
