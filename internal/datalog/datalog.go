// Package datalog holds the paper's Datalog workloads (§6.3) as program text
// for internal/plan: bottom-up transitive closure (tc) and same generation
// (sg), and the magic-set transformed, interactively seeded top-down variants
// tc(x,?), tc(?,x) and sg(x,?), whose bound arguments are an input relation.
// TC is the one hand-built dataflow kept beside them, as the referee the
// compiled programs are held to; the oracles evaluate the relations by brute
// force.
package datalog

import (
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
)

// The programs read the graph as edges(x, y). The seeded ones also read
// seeds(a, _): its keys are the bound query arguments, its values are
// ignored, and adding or retracting a seed extends or retracts its answers
// incrementally against the maintained edge arrangement.
const (
	// TCSrc is transitive closure.
	TCSrc = `
tc(x, y) :- edges(x, y).
tc(x, z) :- tc(x, y), edges(y, z).
`

	// SGSrc is same generation: distinct nodes with a common parent, or with
	// parents of the same generation.
	SGSrc = `
sg(x, y) :- edges(p, x), edges(p, y), x != y.
sg(x, y) :- edges(px, x), edges(py, y), sg(px, py), x != y.
`

	// TCFromSrc answers tc(a, ?) for every seed a as tcf(y, a): y is
	// reachable from a. Its magic set is the seeds themselves. The reached
	// node comes first because a relation is keyed, and made distinct, by
	// its first argument: keyed by the seed, all of a seed's answers would
	// pile onto one key.
	TCFromSrc = `
tcf(y, a) :- seeds(a, _), edges(a, y).
tcf(z, a) :- tcf(y, a), edges(y, z).
`

	// TCToSrc answers tc(?, a) for every seed a, walking edges backwards from
	// it with the right-linear rule.
	TCToSrc = `
tct(x, a) :- edges(x, a), seeds(a, _).
tct(x, a) :- edges(x, y), tct(y, a).
`

	// SGFromSrc answers sg(a, ?) for every seed a. The magic predicate sgm
	// holds the seeds and their ancestors, the nodes whose sg facts an answer
	// depends on, and both sg rules are restricted to first arguments in it.
	SGFromSrc = `
sgm(a, a) :- seeds(a, _).
sgm(p, p) :- sgm(x, _), edges(p, x).
sgf(x, y) :- sgm(x, _), edges(p, x), edges(p, y), x != y.
sgf(x, y) :- sgm(x, _), edges(px, x), sgf(px, py), edges(py, y), x != y.
?- sgf(_, _).
`
)

// TC computes the full transitive closure of the edge collection as (x, y)
// pairs: tc(x,y) :- e(x,y); tc(x,z) :- tc(x,y), e(y,z). It is TCSrc built
// by hand, kept only as the tests' referee for that text and as the bench's
// pinned probe; everything else runs the compiled program.
func TC(edges dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
	return dd.IterateFrom(edges,
		func(seed, tc dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
			// tc keyed by its endpoint y, edges by their source y.
			byY := dd.Map(tc, func(x, y uint64) (uint64, uint64) { return y, x })
			aTC := dd.Arrange(byY, core.U64(), "tc-by-y")
			aE := dd.Arrange(seed, core.U64(), "edges")
			ext := dd.JoinCore(aE, aTC, "extend",
				func(y, z, x uint64) (uint64, uint64) { return x, z })
			return dd.Distinct(dd.Concat(seed, ext), core.U64())
		})
}

// Oracles (for tests): straightforward fixpoint evaluation.

// TCOracle computes the transitive closure pairs of an edge list.
func TCOracle(edges []graphs.Edge) map[[2]uint64]bool {
	adj := map[uint64][]uint64{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	out := map[[2]uint64]bool{}
	for src := range adj {
		seen := map[uint64]bool{}
		stack := append([]uint64(nil), adj[src]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			out[[2]uint64{src, v}] = true
			stack = append(stack, adj[v]...)
		}
	}
	return out
}

// SGOracle computes the same-generation pairs of an edge list.
func SGOracle(edges []graphs.Edge) map[[2]uint64]bool {
	children := map[uint64][]uint64{}
	for _, e := range edges {
		children[e.Src] = append(children[e.Src], e.Dst)
	}
	out := map[[2]uint64]bool{}
	// base
	for _, kids := range children {
		for _, a := range kids {
			for _, b := range kids {
				if a != b {
					out[[2]uint64{a, b}] = true
				}
			}
		}
	}
	// recursive to fixpoint
	for {
		grew := false
		for pq := range out {
			for _, x := range children[pq[0]] {
				for _, y := range children[pq[1]] {
					if x != y && !out[[2]uint64{x, y}] {
						out[[2]uint64{x, y}] = true
						grew = true
					}
				}
			}
		}
		if !grew {
			return out
		}
	}
}
