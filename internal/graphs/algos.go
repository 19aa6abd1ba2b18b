package graphs

import (
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
)

// EdgesInput feeds an edge list into an input collection at its current
// epoch.
func EdgesInput(in *dd.InputCollection[uint64, uint64], edges []Edge) {
	upds := make([]core.Update[uint64, uint64], len(edges))
	for i, e := range edges {
		upds[i] = core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Time: lattice.Ts(in.Epoch()), Diff: 1}
	}
	in.SendSlice(upds)
}

// Reach computes the nodes reachable from roots along arranged edges. The
// edge arrangement is entered into the iteration scope, so its index is
// shared rather than rebuilt (the paper's "economy" property).
func Reach(aEdges *core.Arranged[uint64, uint64],
	roots dd.Collection[uint64, core.Unit]) dd.Collection[uint64, core.Unit] {

	return dd.IterateFrom(roots,
		func(seed, recur dd.Collection[uint64, core.Unit]) dd.Collection[uint64, core.Unit] {
			ae := dd.EnterArranged(aEdges, "edges-enter")
			ar := dd.DistinctCore(dd.Arrange(recur, core.U64Key(), "reach"))
			next := dd.JoinCore(ae, ar, "expand",
				func(k, dst uint64, _ core.Unit) (uint64, core.Unit) { return dst, core.Unit{} })
			return dd.Distinct(dd.Concat(seed, next), core.U64Key())
		})
}
