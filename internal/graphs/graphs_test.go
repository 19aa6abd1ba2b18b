package graphs_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/timely"
)

func TestGenerators(t *testing.T) {
	tr := graphs.Tree(2, 3)
	if len(tr) != 2+4+8 {
		t.Fatalf("tree(2,3) has %d edges", len(tr))
	}
	gr := graphs.Grid(3)
	if len(gr) != 12 { // 2 per inner transition: 3*2 right + 3*2 down
		t.Fatalf("grid(3) has %d edges", len(gr))
	}
	ch := graphs.Chain(5)
	if len(ch) != 4 {
		t.Fatalf("chain(5) has %d edges", len(ch))
	}
	rg := graphs.Random(100, 500, 1)
	if len(rg) != 500 {
		t.Fatalf("random graph has %d edges, want 500", len(rg))
	}
	for _, e := range rg {
		if e.Src >= 100 || e.Dst >= 100 {
			t.Fatalf("random graph edge %v outside its 100 nodes", e)
		}
	}
	rg2 := graphs.Random(100, 500, 1)
	for i := range rg {
		if rg[i] != rg2[i] {
			t.Fatalf("generator must be deterministic")
		}
	}
}

// TestReachMatchesBaseline: Reach from a root finds the root and every node
// the brute-force transitive closure says it reaches, at one and two workers.
func TestReachMatchesBaseline(t *testing.T) {
	edges := graphs.Random(100, 300, 11)
	root := edges[0].Src
	want := map[uint64]bool{root: true}
	for p := range datalog.TCOracle(edges) {
		if p[0] == root {
			want[p[1]] = true
		}
	}
	for _, workers := range []int{1, 2} {
		cap := &dd.Captured[uint64, core.Unit]{}
		timely.Execute(workers, func(w *timely.Worker) {
			var ein *dd.InputCollection[uint64, uint64]
			var rin *dd.InputCollection[uint64, core.Unit]
			w.Dataflow(func(g *timely.Graph) {
				e, ec := dd.NewInput[uint64, uint64](g)
				r, rc := dd.NewInput[uint64, core.Unit](g)
				ein, rin = e, r
				dd.Capture(graphs.Reach(dd.Arrange(ec, core.U64(), "edges"), rc), cap)
			})
			if w.Index() == 0 {
				graphs.EdgesInput(ein, edges)
				rin.Insert(root, core.Unit{})
			}
			ein.Close()
			rin.Close()
			w.Drain()
		})
		got := cap.At(lattice.Ts(0))
		for v := range want {
			if d := got[[2]any{v, core.Unit{}}]; d != 1 {
				t.Fatalf("w=%d: reach(%d) has multiplicity %d, want 1", workers, v, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("w=%d: %d reachable entries, want %d", workers, len(got), len(want))
		}
	}
}
