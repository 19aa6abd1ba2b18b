package graphs

import (
	"repro/internal/core"
	"repro/internal/dd"
)

// fnU64Pair orders (uint64, [2]uint64) collections.
func fnU64Pair() core.Funcs[uint64, [2]uint64] {
	return core.Funcs[uint64, [2]uint64]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: func(a, b [2]uint64) bool {
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		},
		HashK: core.Mix64,
	}
}

// PropagateMin labels every node with the least node id that reaches it
// along the arranged edges (an inner iteration usable at any depth).
func PropagateMin(aEdges *core.Arranged[uint64, uint64],
	nodes dd.Collection[uint64, core.Unit]) dd.Collection[uint64, uint64] {

	seed := dd.Map(nodes, func(n uint64, _ core.Unit) (uint64, uint64) { return n, n })
	return dd.IterateFrom(seed,
		func(sd, labels dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
			ae := dd.EnterArranged(aEdges, "edges-enter")
			al := dd.Arrange(labels, core.U64(), "labels")
			prop := dd.JoinCore(ae, al, "prop",
				func(n, dst, lab uint64) (uint64, uint64) { return dst, lab })
			return minReduce(dd.Concat(sd, prop))
		})
}

// trimEdges keeps the edges of e whose endpoints receive the same label
// under min-propagation along prop (possibly the reversed edges): edges that
// cross label boundaries cannot lie on a cycle.
func trimEdges(e dd.Collection[uint64, uint64], reverse bool) dd.Collection[uint64, uint64] {
	work := e
	if reverse {
		work = dd.Map(e, func(s, d uint64) (uint64, uint64) { return d, s })
	}
	aw := dd.Arrange(work, core.U64(), "trim-edges")
	labels := PropagateMin(aw, Nodes(work))
	al := dd.Arrange(labels, core.U64(), "trim-labels")
	ae := dd.Arrange(e, core.U64(), "trim-orig")
	// Tag each edge with its source label, re-key by destination, compare.
	j1 := dd.JoinCore(ae, al, "src-label",
		func(src, dst, slab uint64) (uint64, [2]uint64) { return dst, [2]uint64{src, slab} })
	a1 := dd.Arrange(j1, fnU64Pair(), "by-dst")
	j2 := dd.JoinCore(a1, al, "dst-label",
		func(dst uint64, sv [2]uint64, dlab uint64) ([2]uint64, bool) {
			return [2]uint64{sv[0], dst}, sv[1] == dlab
		})
	kept := dd.Filter(j2, func(k [2]uint64, same bool) bool { return same })
	return dd.Map(kept, func(k [2]uint64, _ bool) (uint64, uint64) { return k[0], k[1] })
}

// SCC computes the edges internal to strongly connected components using
// doubly nested non-monotonic iteration (§6.3): the outer loop repeatedly
// trims edges whose endpoints lie in different forward (then backward)
// min-label regions; the inner loops are the label propagations.
func SCC(edges dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
	return dd.Iterate(edges, func(e dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		fwd := trimEdges(e, false)
		bwd := trimEdges(fwd, true)
		return dd.Distinct(bwd, core.U64())
	})
}

// SCCLabels assigns every node on a cycle its component representative (the
// least node id in its strongly connected component), by undirected
// connectivity over the SCC-internal edges.
func SCCLabels(edges dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
	internal := SCC(edges)
	sym := dd.Concat(internal, dd.Map(internal, func(s, d uint64) (uint64, uint64) { return d, s }))
	asym := dd.Arrange(sym, core.U64(), "scc-sym")
	return CC(asym, Nodes(internal))
}
