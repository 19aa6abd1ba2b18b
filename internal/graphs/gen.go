// Package graphs provides the graph substrate for the paper's evaluation:
// deterministic generators (random graphs standing in for the LiveJournal /
// Orkut / Twitter datasets, trees and grids for the Datalog benchmarks), a
// loader that feeds an edge list into an input collection, and the paper's
// Figure 1 reachability over a shared edge arrangement.
package graphs

import (
	"math/rand"
)

// Edge is one directed edge.
type Edge struct {
	Src, Dst uint64
}

// Random generates m directed edges over n nodes, uniformly at random with a
// deterministic seed. It stands in for the paper's social-network datasets
// (same code path: build index, then query), at laptop scale.
func Random(n, m uint64, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{uint64(r.Int63n(int64(n))), uint64(r.Int63n(int64(n)))}
	}
	return edges
}

// Tree generates a complete tree with the given branching factor and depth
// (root = 0); edges point parent -> child. Matches the Datalog benchmarks'
// tree-k graphs.
func Tree(branching, depth uint64) []Edge {
	var edges []Edge
	var next uint64 = 1
	frontier := []uint64{0}
	for d := uint64(0); d < depth; d++ {
		var newFrontier []uint64
		for _, p := range frontier {
			for b := uint64(0); b < branching; b++ {
				edges = append(edges, Edge{p, next})
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	return edges
}

// Grid generates an n x n grid with right and down edges (node (i,j) has
// id i*n+j). Matches the Datalog benchmarks' grid-n graphs.
func Grid(n uint64) []Edge {
	var edges []Edge
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			id := i*n + j
			if j+1 < n {
				edges = append(edges, Edge{id, id + 1})
			}
			if i+1 < n {
				edges = append(edges, Edge{id, id + n})
			}
		}
	}
	return edges
}

// Chain generates a path 0 -> 1 -> ... -> n-1.
func Chain(n uint64) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := uint64(0); i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return edges
}
