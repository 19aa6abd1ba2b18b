package interactive

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// bfsBounded returns hop distances ≤ bound from src.
func bfsBounded(adj map[uint64][]uint64, src uint64, bound uint64) map[uint64]uint64 {
	dist := map[uint64]uint64{src: 0}
	frontier := []uint64{src}
	for d := uint64(1); d <= bound && len(frontier) > 0; d++ {
		var next []uint64
		for _, u := range frontier {
			for _, v := range adj[u] {
				if _, ok := dist[v]; !ok {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

func TestInteractiveQueriesCorrect(t *testing.T) {
	edges := graphs.Random(50, 150, 31)
	adj := map[uint64][]uint64{}
	deg := map[uint64]int64{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		deg[e.Src]++
	}
	lookupQ := uint64(3)
	oneQ := uint64(5)
	twoQ := uint64(7)
	pathPairs := [][2]uint64{{1, 9}, {2, 40}, {4, 4}}

	for _, shared := range []bool{true, false} {
		capLookup := &dd.Captured[uint64, int64]{}
		cap1 := &dd.Captured[uint64, uint64]{}
		cap2 := &dd.Captured[uint64, uint64]{}
		capPath := &dd.Captured[[2]uint64, uint64]{}
		timely.Execute(2, func(w *timely.Worker) {
			var sys *System
			w.Dataflow(func(g *timely.Graph) {
				sys = BuildSystem(g, shared)
				dd.Capture(sys.Lookup, capLookup)
				dd.Capture(sys.OneHop, cap1)
				dd.Capture(sys.TwoHop, cap2)
				dd.Capture(sys.Path, capPath)
			})
			if w.Index() == 0 {
				graphs.EdgesInput(sys.Edges, edges)
				sys.QLookup.Insert(lookupQ, core.Unit{})
				sys.Q1Hop.Insert(oneQ, core.Unit{})
				sys.Q2Hop.Insert(twoQ, core.Unit{})
				for _, p := range pathPairs {
					sys.QPath.Insert(p[0], p[1])
				}
			}
			sys.CloseAll()
			w.Drain()
		})

		// Lookup: out-degree of lookupQ (if it has edges).
		accL := capLookup.At(lattice.Ts(0))
		if deg[lookupQ] > 0 {
			if accL[[2]any{lookupQ, deg[lookupQ]}] != 1 || len(accL) != 1 {
				t.Fatalf("shared=%v lookup: %v want deg %d", shared, accL, deg[lookupQ])
			}
		} else if len(accL) != 0 {
			t.Fatalf("shared=%v lookup of isolated vertex: %v", shared, accL)
		}

		// 1-hop: multiset of neighbours.
		acc1 := cap1.At(lattice.Ts(0))
		wantN := map[uint64]core.Diff{}
		for _, v := range adj[oneQ] {
			wantN[v]++
		}
		for v, n := range wantN {
			if acc1[[2]any{oneQ, v}] != n {
				t.Fatalf("shared=%v 1hop: neighbour %d count %v want %d", shared, v, acc1[[2]any{oneQ, v}], n)
			}
		}
		if len(acc1) != len(wantN) {
			t.Fatalf("shared=%v 1hop extra: %v vs %v", shared, acc1, wantN)
		}

		// 2-hop: multiset of 2-step walks.
		acc2 := cap2.At(lattice.Ts(0))
		want2 := map[uint64]core.Diff{}
		for _, m := range adj[twoQ] {
			for _, v := range adj[m] {
				want2[v]++
			}
		}
		for v, n := range want2 {
			if acc2[[2]any{twoQ, v}] != n {
				t.Fatalf("shared=%v 2hop: %d count %v want %d", shared, v, acc2[[2]any{twoQ, v}], n)
			}
		}
		if len(acc2) != len(want2) {
			t.Fatalf("shared=%v 2hop size: %d want %d", shared, len(acc2), len(want2))
		}

		// Paths: min hop count ≤ 4 per queried pair.
		accP := capPath.At(lattice.Ts(0))
		expected := 0
		for _, p := range pathPairs {
			dist := bfsBounded(adj, p[0], 4)
			d, ok := dist[p[1]]
			if ok && d == 0 {
				// src == dst: our query counts walks of length ≥ 1.
				// Check whether dst is re-reachable in ≤ 4 steps.
				delete(dist, p[1])
				found := false
				for k := uint64(1); k <= 4 && !found; k++ {
					// re-run bounded BFS treating revisits as fresh
					cur := map[uint64]bool{p[0]: true}
					for s := uint64(0); s < k; s++ {
						nxt := map[uint64]bool{}
						for u := range cur {
							for _, v := range adj[u] {
								nxt[v] = true
							}
						}
						cur = nxt
					}
					if cur[p[1]] {
						found = true
						d = k
					}
				}
				ok = found
			}
			if ok && d >= 1 && d <= 4 {
				expected++
				if accP[[2]any{[2]uint64{p[0], p[1]}, d}] != 1 {
					t.Fatalf("shared=%v path %v: want length %d, acc %v", shared, p, d, accP)
				}
			}
		}
		if len(accP) != expected {
			t.Fatalf("shared=%v paths: %d entries want %d: %v", shared, len(accP), expected, accP)
		}
	}
}

// TestInteractiveEvolvingGraph: queries stay maintained while edges change.
func TestInteractiveEvolvingGraph(t *testing.T) {
	cap1 := &dd.Captured[uint64, uint64]{}
	timely.Execute(1, func(w *timely.Worker) {
		var sys *System
		w.Dataflow(func(g *timely.Graph) {
			sys = BuildSystem(g, true)
			dd.Capture(sys.OneHop, cap1)
		})
		sys.Q1Hop.Insert(1, core.Unit{})
		sys.Edges.Insert(1, 2)
		sys.AdvanceAll(1)
		w.StepUntil(func() bool { return sys.Probe1.Done(lattice.Ts(0)) })
		sys.Edges.Insert(1, 3)
		sys.Edges.Remove(1, 2)
		sys.AdvanceAll(2)
		w.StepUntil(func() bool { return sys.Probe1.Done(lattice.Ts(1)) })
		sys.CloseAll()
		w.Drain()
	})
	if acc := cap1.At(lattice.Ts(0)); acc[[2]any{uint64(1), uint64(2)}] != 1 || len(acc) != 1 {
		t.Fatalf("epoch 0: %v", acc)
	}
	if acc := cap1.At(lattice.Ts(1)); acc[[2]any{uint64(1), uint64(3)}] != 1 || len(acc) != 1 {
		t.Fatalf("epoch 1: %v", acc)
	}
}

// TestLookupDegrees pins the look-up class's output on the cases its
// restrict-then-count shape has to get right: an argument given twice counts
// once, a vertex with no out-edges yields no record, a multi-edge counts its
// multiplicity, and a degree that falls to zero is retracted, not reported
// as zero.
func TestLookupDegrees(t *testing.T) {
	for _, workers := range []int{1, 2} {
		capL := &dd.Captured[uint64, int64]{}
		timely.Execute(workers, func(w *timely.Worker) {
			var sys *System
			w.Dataflow(func(g *timely.Graph) {
				sys = BuildSystem(g, true)
				dd.Capture(sys.Lookup, capL)
			})
			if w.Index() == 0 {
				for _, q := range []uint64{1, 1, 2, 3} {
					sys.QLookup.Insert(q, core.Unit{})
				}
				for _, e := range [][2]uint64{{1, 10}, {1, 11}, {3, 12}, {4, 13}} {
					sys.Edges.Insert(e[0], e[1])
				}
			}
			sys.AdvanceAll(1)
			w.StepUntil(func() bool { return sys.ProbeLookup.Done(lattice.Ts(0)) })
			if w.Index() == 0 {
				sys.Edges.Remove(3, 12)
				sys.Edges.Insert(2, 14)
				sys.Edges.Insert(1, 10)
			}
			sys.CloseAll()
			w.Drain()
		})
		want := []map[[2]any]core.Diff{
			{{uint64(1), int64(2)}: 1, {uint64(3), int64(1)}: 1},
			{{uint64(1), int64(3)}: 1, {uint64(2), int64(1)}: 1},
		}
		for e := range want {
			if got := capL.At(lattice.Ts(uint64(e))); !maps.Equal(got, want[e]) {
				t.Errorf("w%d: degrees at epoch %d are %v, want %v", workers, e, got, want[e])
			}
		}
	}
}

// exactPathLen is the path class's semantics: the least k in 1..4 such that
// dst is reachable from src in exactly k steps, or 0. edges is a multiset;
// an edge is present when its count is positive.
func exactPathLen(edges map[[2]uint64]int, src, dst uint64) uint64 {
	level := map[uint64]bool{src: true}
	for k := uint64(1); k <= 4; k++ {
		next := map[uint64]bool{}
		for e, n := range edges {
			if n > 0 && level[e[0]] {
				next[e[1]] = true
			}
		}
		if next[dst] {
			return k
		}
		level = next
	}
	return 0
}

// pathEpoch is one epoch of edge and pair changes.
type pathEpoch struct {
	edges []core.Update[uint64, uint64]
	pairs []core.Update[uint64, uint64]
}

// runPath drives the path class through the epochs on the given number of
// workers and returns its accumulated output at each epoch.
func runPath(workers int, epochs []pathEpoch) []map[[2]any]core.Diff {
	capP := &dd.Captured[[2]uint64, uint64]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var sys *System
		w.Dataflow(func(g *timely.Graph) {
			sys = BuildSystem(g, true)
			dd.Capture(sys.Path, capP)
		})
		for e, ep := range epochs {
			if w.Index() == 0 {
				for _, u := range ep.edges {
					sys.Edges.UpdateAt(u.Key, u.Val, u.Diff)
				}
				for _, u := range ep.pairs {
					sys.QPath.UpdateAt(u.Key, u.Val, u.Diff)
				}
			}
			sys.AdvanceAll(uint64(e + 1))
			at := lattice.Ts(uint64(e))
			w.StepUntil(func() bool { return sys.ProbePath.Done(at) })
		}
		sys.CloseAll()
		w.Drain()
	})
	got := make([]map[[2]any]core.Diff, len(epochs))
	for e := range epochs {
		got[e] = capP.At(lattice.Ts(uint64(e)))
	}
	return got
}

// wantPaths is the oracle's output after each epoch: one record per pair
// present (at any multiplicity) with a path of length ≤ 4.
func wantPaths(epochs []pathEpoch) []map[[2]any]core.Diff {
	edges := map[[2]uint64]int{}
	pairs := map[[2]uint64]int{}
	var want []map[[2]any]core.Diff
	for _, ep := range epochs {
		for _, u := range ep.edges {
			edges[[2]uint64{u.Key, u.Val}] += int(u.Diff)
		}
		for _, u := range ep.pairs {
			pairs[[2]uint64{u.Key, u.Val}] += int(u.Diff)
		}
		w := map[[2]any]core.Diff{}
		for p, n := range pairs {
			if k := exactPathLen(edges, p[0], p[1]); n > 0 && k > 0 {
				w[[2]any{p, k}] = 1
			}
		}
		want = append(want, w)
	}
	return want
}

func upd(src, dst uint64, diff core.Diff) core.Update[uint64, uint64] {
	return core.Update[uint64, uint64]{Key: src, Val: dst, Diff: diff}
}

// TestPathFromMaxVertex: a path whose src is ^0 is reported like any other.
func TestPathFromMaxVertex(t *testing.T) {
	const top = ^uint64(0)
	epochs := []pathEpoch{{
		edges: []core.Update[uint64, uint64]{upd(top, 5, 1), upd(1, 5, 1)},
		pairs: []core.Update[uint64, uint64]{upd(top, 5, 1), upd(1, 5, 1)},
	}}
	want := map[[2]any]core.Diff{
		{[2]uint64{top, 5}, uint64(1)}: 1,
		{[2]uint64{1, 5}, uint64(1)}:   1,
	}
	for _, workers := range []int{1, 2} {
		if got := runPath(workers, epochs)[0]; !maps.Equal(got, want) {
			t.Errorf("w%d: paths %v, want %v", workers, got, want)
		}
	}
}

// TestPathEvolvingGraph referees the path class, whose levels count walks
// rather than distinct them, against an exact-k-step BFS at every epoch of
// edge insertions and removals: one of two walks retracted keeps the length,
// the only short route retracted lengthens the path or removes its record, a
// pair given twice is one record, and src == dst on a cycle. Random churn
// over a small graph follows the scripted epochs.
func TestPathEvolvingGraph(t *testing.T) {
	e, p := upd, upd
	epochs := []pathEpoch{
		{ // 1→4 by two 2-step walks; 8→9 directly and by 8→10→11→9; cycle 6⇄7.
			edges: []core.Update[uint64, uint64]{e(1, 2, 1), e(2, 4, 1), e(1, 3, 1), e(3, 4, 1), e(4, 5, 1),
				e(8, 9, 1), e(8, 10, 1), e(10, 11, 1), e(11, 9, 1), e(6, 7, 1), e(7, 6, 1)},
			pairs: []core.Update[uint64, uint64]{p(1, 4, 1), p(1, 4, 1), p(1, 5, 1), p(8, 9, 1), p(6, 6, 1), p(2, 1, 1)},
		},
		{ // One of two walks goes: still 2. The only 1-step route goes: 3.
			edges: []core.Update[uint64, uint64]{e(1, 3, -1), e(8, 9, -1)},
		},
		{ // The only route to 5 goes: no record. A multi-edge, and one copy of the twice-given pair goes.
			edges: []core.Update[uint64, uint64]{e(4, 5, -1), e(2, 4, 1), e(1, 3, 1)},
			pairs: []core.Update[uint64, uint64]{p(1, 4, -1)},
		},
		{ // The cycle breaks and a self-loop closes it at length 1; one copy of the multi-edge goes.
			edges: []core.Update[uint64, uint64]{e(7, 6, -1), e(6, 6, 1), e(2, 4, -1), e(4, 1, 1)},
		},
	}
	// Random churn: pairs over a small graph, then removals and insertions.
	g0 := graphs.Random(20, 45, 5)
	var churn pathEpoch
	for _, ed := range g0 {
		churn.edges = append(churn.edges, e(ed.Src+100, ed.Dst+100, 1))
	}
	for i := uint64(0); i < 12; i++ {
		churn.pairs = append(churn.pairs, p(100+i, 100+(i*7)%20, 1))
	}
	epochs = append(epochs, churn)
	for r, ins := range [][]graphs.Edge{graphs.Random(20, 8, 6), graphs.Random(20, 8, 7)} {
		var ep pathEpoch
		for i := r; i < len(g0); i += 4 {
			ep.edges = append(ep.edges, e(g0[i].Src+100, g0[i].Dst+100, -1))
		}
		for _, ed := range ins {
			ep.edges = append(ep.edges, e(ed.Src+100, ed.Dst+100, 1))
		}
		epochs = append(epochs, ep)
	}

	want := wantPaths(epochs)
	for _, workers := range []int{1, 2} {
		got := runPath(workers, epochs)
		for ep := range epochs {
			if !maps.Equal(got[ep], want[ep]) {
				t.Errorf("w%d: paths at epoch %d are %v, want %v", workers, ep, got[ep], want[ep])
			}
		}
	}
}
