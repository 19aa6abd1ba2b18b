// Package interactive implements the four interactive graph queries of
// Pacaci et al. evaluated in §6.2 as stored-procedure dataflows over an
// evolving graph: point look-ups (vertex degree), 1-hop and 2-hop
// neighbourhoods, and shortest paths of length at most four. Query arguments
// are independent input collections that may be interactively modified, and
// the graph arrangement is either shared across all four query dataflows or
// rebuilt per query (Fig 5b/5c's shared vs not-shared configurations).
//
// Each query class is a standalone builder over an edges arrangement, so the
// same dataflow can be constructed at startup (BuildSystem) or installed
// live against a running server's shared arrangement (live.go), where shared
// versus rebuilt becomes an install-time choice.
package interactive

import (
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/timely"
)

func fnPairU64() core.Funcs[[2]uint64, uint64] {
	return core.Funcs[[2]uint64, uint64]{
		LessK: func(a, b [2]uint64) bool {
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		},
		LessV: func(a, b uint64) bool { return a < b },
		HashK: func(k [2]uint64) uint64 { return core.Mix64(k[0]*0x9e3779b97f4a7c15 + k[1]) },
	}
}

// Lookup builds the point look-up class over an edges arrangement: the
// out-degree of each queried vertex. It restricts before it aggregates — the
// count runs over the queried vertices' edges only — so installing a look-up
// against a shared arrangement reads what its arguments touch, and a standing
// look-up maintains degrees for its arguments, not for every vertex.
func Lookup(aE *core.Arranged[uint64, uint64],
	qc dd.Collection[uint64, core.Unit]) dd.Collection[uint64, int64] {
	aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "ql"))
	hits := dd.JoinCore(aE, aQ, "lookup",
		func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return q, nbr })
	return dd.Count(hits, core.U64())
}

// OneHop builds the 1-hop neighbourhood class: (query, neighbour) pairs.
func OneHop(aE *core.Arranged[uint64, uint64],
	qc dd.Collection[uint64, core.Unit]) dd.Collection[uint64, uint64] {
	aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "q1"))
	return dd.JoinCore(aE, aQ, "1hop",
		func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return q, nbr })
}

// TwoHop builds the 2-hop neighbourhood class: (query, 2-hop neighbour)
// pairs, reusing the same edges arrangement for both hops.
func TwoHop(aE *core.Arranged[uint64, uint64],
	qc dd.Collection[uint64, core.Unit]) dd.Collection[uint64, uint64] {
	aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "q2"))
	hop1 := dd.JoinCore(aE, aQ, "2hop-a",
		func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return nbr, q })
	aH1 := dd.Arrange(hop1, core.U64(), "2hop-mid")
	return dd.JoinCore(aE, aH1, "2hop-b",
		func(mid, nbr2, q uint64) (uint64, uint64) { return q, nbr2 })
}

// ShortestPath builds the 4-hop shortest-path class over (src, dst) query
// pairs: ((src, dst), shortest length ≤ 4).
//
// Level k holds (node, origin) with a count: the number of k-step walks from
// origin to node, times the pairs that ask about origin. Level 0 is each
// queried src at itself; level k is one JoinCore of the edges against level
// k−1, arranged once, and that one arrangement is read both by the next
// expansion and by the level's hit join against the pairs. Walks are never
// distincted: a product of non-negative edge counts is positive exactly when
// some k-step walk exists, so presence in level k is reachability in exactly
// k steps — what a distincted level holds — and the min-path reduce, the only
// reduce, keeps the least k with a positive count. The class holds 8 traces
// (pairs-by-dst, levels 0–4, min-path's input and output) and 1 reduce,
// against 25 and 10 when each level was distincted and re-arranged.
//
// A level-k count is at most (max out-degree × max edge multiplicity)^k
// times the pairs per src, so int64 diffs are safe at k = 4 below ≈ 55 000
// out-degree; TwoHop counts walks the same way, with the same bound at k = 2.
func ShortestPath(aE *core.Arranged[uint64, uint64],
	pc dd.Collection[uint64, uint64]) dd.Collection[[2]uint64, uint64] {
	aL := dd.Arrange(dd.Map(pc, func(src, dst uint64) (uint64, uint64) { return src, src }),
		core.U64(), "level") // (node, origin) at distance 0
	aPd := dd.Arrange(dd.Map(pc, func(src, dst uint64) (uint64, uint64) { return dst, src }),
		core.U64(), "pairs-by-dst")
	var hits dd.Collection[[2]uint64, uint64]
	for k := uint64(1); k <= 4; k++ {
		aL = dd.Arrange(dd.JoinCore(aE, aL, "expand",
			func(n, nbr, origin uint64) (uint64, uint64) { return nbr, origin }),
			core.U64(), "level")
		// A non-matching (pair src, origin) is marked by length 0, which no
		// path has: every vertex, ^0 included, can be an origin.
		hit := dd.Filter(
			dd.JoinCore(aPd, aL, "hit",
				func(node, srcFromPair, origin uint64) ([2]uint64, uint64) {
					if srcFromPair == origin {
						return [2]uint64{origin, node}, k
					}
					return [2]uint64{}, 0
				}),
			func(_ [2]uint64, length uint64) bool { return length != 0 })
		if hits.S == nil {
			hits = hit
		} else {
			hits = dd.Concat(hits, hit)
		}
	}
	return dd.Reduce(hits, fnPairU64(), fnPairU64(), "min-path",
		func(_ [2]uint64, in []dd.ValDiff[uint64], out *[]dd.ValDiff[uint64]) {
			// in is sorted by length: the first present one is the least.
			for _, e := range in {
				if e.Diff > 0 {
					*out = append(*out, dd.ValDiff[uint64]{Val: e.Val, Diff: 1})
					return
				}
			}
		})
}

// System is one worker's handles into the interactive query dataflow.
type System struct {
	Edges   *dd.InputCollection[uint64, uint64]
	QLookup *dd.InputCollection[uint64, core.Unit]
	Q1Hop   *dd.InputCollection[uint64, core.Unit]
	Q2Hop   *dd.InputCollection[uint64, core.Unit]
	QPath   *dd.InputCollection[uint64, uint64] // (src, dst) pairs

	Lookup dd.Collection[uint64, int64]     // (vertex, out-degree)
	OneHop dd.Collection[uint64, uint64]    // (query, neighbour)
	TwoHop dd.Collection[uint64, uint64]    // (query, 2-hop neighbour)
	Path   dd.Collection[[2]uint64, uint64] // ((src, dst), shortest length ≤ 4)

	ProbeLookup *timely.Probe
	Probe1      *timely.Probe
	Probe2      *timely.Probe
	ProbePath   *timely.Probe
}

// AdvanceAll moves every input handle to the given epoch.
func (s *System) AdvanceAll(epoch uint64) {
	s.Edges.AdvanceTo(epoch)
	s.QLookup.AdvanceTo(epoch)
	s.Q1Hop.AdvanceTo(epoch)
	s.Q2Hop.AdvanceTo(epoch)
	s.QPath.AdvanceTo(epoch)
}

// CloseAll retires every input handle.
func (s *System) CloseAll() {
	s.Edges.Close()
	s.QLookup.Close()
	s.Q1Hop.Close()
	s.Q2Hop.Close()
	s.QPath.Close()
}

// BuildSystem constructs the four query dataflows in one graph. With
// shared=true a single edges arrangement serves all queries; otherwise each
// query class arranges the edge stream privately (the not-shared baseline).
func BuildSystem(g *timely.Graph, shared bool) *System {
	s := &System{}
	var ec dd.Collection[uint64, uint64]
	var qlc, q1c, q2c dd.Collection[uint64, core.Unit]
	var pc dd.Collection[uint64, uint64]
	s.Edges, ec = dd.NewInput[uint64, uint64](g)
	s.QLookup, qlc = dd.NewInput[uint64, core.Unit](g)
	s.Q1Hop, q1c = dd.NewInput[uint64, core.Unit](g)
	s.Q2Hop, q2c = dd.NewInput[uint64, core.Unit](g)
	s.QPath, pc = dd.NewInput[uint64, uint64](g)

	arrange := func(name string) *core.Arranged[uint64, uint64] {
		return dd.Arrange(ec, core.U64(), name)
	}
	var aE1, aE2, aE3, aE4 *core.Arranged[uint64, uint64]
	if shared {
		aE := arrange("edges")
		aE1, aE2, aE3, aE4 = aE, aE, aE, aE
	} else {
		aE1, aE2, aE3, aE4 = arrange("edges-lookup"), arrange("edges-1hop"),
			arrange("edges-2hop"), arrange("edges-path")
	}

	s.Lookup = Lookup(aE1, qlc)
	s.ProbeLookup = dd.Probe(s.Lookup)

	s.OneHop = OneHop(aE2, q1c)
	s.Probe1 = dd.Probe(s.OneHop)

	s.TwoHop = TwoHop(aE3, q2c)
	s.Probe2 = dd.Probe(s.TwoHop)

	s.Path = ShortestPath(aE4, pc)
	s.ProbePath = dd.Probe(s.Path)
	return s
}
