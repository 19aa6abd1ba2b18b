package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/graspan"
	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/timely"
)

// refereePlans is what Build is held to Interpret on: the random rule sets
// TestPlannerOrderIndependence generates (same seed, so the same programs),
// TC, SG, the seeded sg(x, ?), the graspan reachability program and each
// relation of the points-to analysis (three mutually recursive definitions
// with wildcards), the hand-composed sample plans (Count over a multiset and
// a key look-up), and the count-head programs: over one atom, a join, two
// rules, recursive tc, and one key.
func refereePlans(t *testing.T) []*Node {
	plans := samplePlans(t)
	for _, src := range []string{
		datalog.SGFromSrc,
		graspan.ReachSrc,
		graspan.PointsToSrc,
		graspan.PointsToSrc + "?- va(_, _).",
		graspan.PointsToSrc + "?- ma(_, _).",
	} {
		plans = append(plans, mustCompile(t, src))
	}
	for _, p := range countHeadPrograms {
		plans = append(plans, mustCompile(t, p.src))
	}
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		prog := randProgram(r)
		randRel(r, 8) // keep the generator in step with the planner test
		randRel(r, 8)
		if root, _, err := Compile(prog); err == nil {
			plans = append(plans, root)
		}
	}
	return plans
}

// randStep mutates rel by one epoch of churn over a six-value domain and
// returns the updates that did it: retractions of present records, then
// insertions (of absent records, or occasionally a second copy, so
// multiplicities above one reach every operator).
func randStep(r *rand.Rand, rel Rel) []core.Update[uint64, uint64] {
	var upds []core.Update[uint64, uint64]
	change := func(rec [2]uint64, d int64) {
		rel.add(rec, d)
		upds = append(upds, core.Update[uint64, uint64]{Key: rec[0], Val: rec[1], Diff: core.Diff(d)})
	}
	present := make([][2]uint64, 0, len(rel))
	for rec := range rel {
		present = append(present, rec)
	}
	sort.Slice(present, func(i, j int) bool {
		return present[i][0] < present[j][0] || present[i][0] == present[j][0] && present[i][1] < present[j][1]
	})
	for _, rec := range present {
		if r.Intn(3) == 0 {
			change(rec, -rel[rec])
		}
	}
	for n := 3 + r.Intn(4); n > 0; n-- {
		rec := [2]uint64{uint64(r.Intn(6)), uint64(r.Intn(6))}
		if rel[rec] == 0 || r.Intn(4) == 0 {
			change(rec, 1)
		}
	}
	return upds
}

// TestBuildMatchesInterpret is Build's direct referee: every plan is built
// onto a live in-process server, the base relations churn through several
// sealed epochs with retractions, and at each epoch the dataflow's
// accumulated output must equal Interpret over the accumulated relations —
// same records, same multiplicities.
func TestBuildMatchesInterpret(t *testing.T) {
	plans := refereePlans(t)
	if len(plans) < 100 {
		t.Fatalf("only %d plans to referee", len(plans))
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			s := server.New(workers)
			defer s.Close()
			srcs := map[string]*server.Source[uint64, uint64]{}
			var rels []string
			for _, root := range plans {
				for _, rel := range root.Sources() {
					if srcs[rel] != nil {
						continue
					}
					src, err := server.NewSource(s, rel, core.U64())
					if err != nil {
						t.Fatalf("source %q: %v", rel, err)
					}
					srcs[rel] = src
					rels = append(rels, rel)
				}
			}
			sort.Strings(rels)

			queries := make([]*server.Query, len(plans))
			outs := make([]*dd.Captured[uint64, uint64], len(plans))
			for i, root := range plans {
				out := &dd.Captured[uint64, uint64]{}
				q, err := s.Install(fmt.Sprintf("q%d", i), func(w *timely.Worker, g *timely.Graph) server.Built {
					var imports []*core.Arranged[uint64, uint64]
					c, err := Build(root, Env{Source: func(rel string) (*core.Arranged[uint64, uint64], error) {
						a := srcs[rel].ImportInto(g)
						imports = append(imports, a)
						return a, nil
					}})
					if err != nil {
						t.Errorf("plan %d: build: %v", i, err)
						in, empty := dd.NewInput[uint64, uint64](g)
						in.Close()
						c = empty
					}
					dd.Capture(c, out)
					return server.Built{Probe: dd.Probe(c), Teardown: func() {
						for _, a := range imports {
							a.Cancel()
						}
					}}
				})
				if err != nil {
					t.Fatalf("plan %d: install: %v", i, err)
				}
				queries[i], outs[i] = q, out
			}

			r := rand.New(rand.NewSource(7))
			edb := map[string]Rel{}
			for _, rel := range rels {
				edb[rel] = Rel{}
			}
			for epoch := uint64(0); epoch < 5; epoch++ {
				for _, rel := range rels {
					if err := srcs[rel].Update(randStep(r, edb[rel])); err != nil {
						t.Fatalf("epoch %d: update %q: %v", epoch, rel, err)
					}
					if _, err := srcs[rel].Advance(); err != nil {
						t.Fatalf("epoch %d: advance %q: %v", epoch, rel, err)
					}
				}
				for i, root := range plans {
					want, err := Interpret(root, edb)
					if err != nil {
						t.Fatalf("epoch %d: plan %d: interpret: %v", epoch, i, err)
					}
					if !queries[i].WaitDone(lattice.Ts(epoch)) {
						t.Fatalf("epoch %d: plan %d: server closed", epoch, i)
					}
					got := Rel{}
					for kv, d := range outs[i].At(lattice.Ts(epoch)) {
						got[[2]uint64{kv[0].(uint64), kv[1].(uint64)}] = int64(d)
					}
					if !got.Equal(want) {
						t.Fatalf("epoch %d: plan %d: built dataflow holds %v, Interpret says %v\ne=%v\nf=%v",
							epoch, i, map[[2]uint64]int64(got), map[[2]uint64]int64(want), map[[2]uint64]int64(edb["e"]), map[[2]uint64]int64(edb["f"]))
					}
				}
			}
		})
	}
}
