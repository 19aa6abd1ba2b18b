// Package graspan holds the Graspan static-analysis workloads (§6.4) as
// program text for internal/plan: the dataflow analysis (null-assignment
// propagation, with interactive removal of null sources) and the points-to
// analysis (mutually recursive value-flow / value-alias / memory-alias
// relations). The paper's linux/psql/httpd program graphs are
// proprietary-scale inputs; a deterministic synthetic generator with the same
// shape (long assignment chains, branching, dereference pairs) stands in for
// them. The oracles evaluate both analyses by brute force.
package graspan

import (
	"math/rand"

	"repro/internal/graphs"
)

const (
	// ReachSrc is the dataflow analysis over assign(p, q) and nulls(o, _):
	// reach(p, o) holds when the null assigned at source o reaches program
	// point p along assignment edges. Retracting a null source retracts
	// exactly its facts (Table 3's interactive experiment).
	ReachSrc = `
reach(o, o) :- nulls(o, _).
reach(q, o) :- reach(p, o), assign(p, q).
`

	// PointsToSrc is the points-to analysis over assign(x, y) and deref(p, x)
	// (x is *p): value flow vf is the reflexive transitive closure of
	// assignment over every variable either relation mentions, and value
	// alias va and memory alias ma are mutually recursive. It answers vf;
	// append `?- va(_, _).` or `?- ma(_, _).` for the others.
	PointsToSrc = `
vf(x, x) :- assign(x, _).
vf(x, x) :- assign(_, x).
vf(x, x) :- deref(x, _).
vf(x, x) :- deref(_, x).
vf(x, z) :- vf(x, y), assign(y, z).
va(x, y) :- vf(z, x), vf(z, y).
va(x, y) :- vf(z, x), ma(z, w), vf(w, y).
ma(x, y) :- deref(z, x), va(z, w), deref(w, y).
`
)

// Program is a synthetic program graph: Assign edges carry value flow
// between variables, Deref edges connect pointers to their dereferences,
// and Nulls are the null-assignment sources of the dataflow analysis.
type Program struct {
	Assign []graphs.Edge
	Deref  []graphs.Edge
	Nulls  []uint64
}

// Generate builds a synthetic program graph over n variables: chains of
// assignments with random branching (the long def-use chains of systems
// code), a fraction of dereference edges, and a set of null sources.
func Generate(n uint64, seed int64) Program {
	r := rand.New(rand.NewSource(seed))
	var p Program
	// Assignment chains: successive variables, with occasional long jumps.
	for i := uint64(0); i+1 < n; i++ {
		if r.Intn(4) != 0 {
			p.Assign = append(p.Assign, graphs.Edge{Src: i, Dst: i + 1})
		}
		if r.Intn(8) == 0 {
			p.Assign = append(p.Assign, graphs.Edge{Src: i, Dst: uint64(r.Int63n(int64(n)))})
		}
	}
	// Dereference edges between random pairs.
	for i := uint64(0); i < n/4; i++ {
		p.Deref = append(p.Deref, graphs.Edge{
			Src: uint64(r.Int63n(int64(n))), Dst: uint64(r.Int63n(int64(n))),
		})
	}
	// Null sources.
	for i := uint64(0); i < n/10+1; i++ {
		p.Nulls = append(p.Nulls, uint64(r.Int63n(int64(n))))
	}
	return p
}

// Oracles for testing.

// DataflowOracle computes (point, origin) pairs by per-origin DFS.
func DataflowOracle(assign []graphs.Edge, nulls []uint64) map[[2]uint64]bool {
	adj := map[uint64][]uint64{}
	for _, e := range assign {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	out := map[[2]uint64]bool{}
	for _, src := range nulls {
		stack := []uint64{src}
		seen := map[uint64]bool{src: true}
		out[[2]uint64{src, src}] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					out[[2]uint64{w, src}] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return out
}

// PointsToOracle evaluates the three relations to fixpoint naively.
func PointsToOracle(assign, deref []graphs.Edge) (vf, va, ma map[[2]uint64]bool) {
	nodes := map[uint64]bool{}
	adj := map[uint64][]uint64{}
	for _, e := range assign {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		nodes[e.Src], nodes[e.Dst] = true, true
	}
	for _, e := range deref {
		nodes[e.Src], nodes[e.Dst] = true, true
	}
	vf = map[[2]uint64]bool{}
	for n := range nodes {
		vf[[2]uint64{n, n}] = true
	}
	// closure of assign
	for _, e := range assign {
		vf[[2]uint64{e.Src, e.Dst}] = true
	}
	for {
		grew := false
		for p := range vf {
			for _, w := range adj[p[1]] {
				if !vf[[2]uint64{p[0], w}] {
					vf[[2]uint64{p[0], w}] = true
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	va = map[[2]uint64]bool{}
	ma = map[[2]uint64]bool{}
	for {
		grew := false
		// va from vf pairs
		bySrc := map[uint64][]uint64{}
		for p := range vf {
			bySrc[p[0]] = append(bySrc[p[0]], p[1])
		}
		for _, xs := range bySrc {
			for _, x := range xs {
				for _, y := range xs {
					if !va[[2]uint64{x, y}] {
						va[[2]uint64{x, y}] = true
						grew = true
					}
				}
			}
		}
		// va from vf-ma-vf
		for p := range ma {
			for x := range nodes {
				if !vf[[2]uint64{p[0], x}] {
					continue
				}
				for y := range nodes {
					if vf[[2]uint64{p[1], y}] && !va[[2]uint64{x, y}] {
						va[[2]uint64{x, y}] = true
						grew = true
					}
				}
			}
		}
		// ma from d-va-d
		for _, d1 := range deref {
			for _, d2 := range deref {
				if va[[2]uint64{d1.Src, d2.Src}] && !ma[[2]uint64{d1.Dst, d2.Dst}] {
					ma[[2]uint64{d1.Dst, d2.Dst}] = true
					grew = true
				}
			}
		}
		if !grew {
			return vf, va, ma
		}
	}
}
