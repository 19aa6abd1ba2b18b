package harness

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/timely"
)

// The operator-oracle property suite: every dd operator runs randomized
// multi-epoch insert/delete histories at several worker counts, and each
// epoch's consolidated output is compared against a naive recompute.

var oracleWorkers = []int{1, 3}

func diffMaps(t *testing.T, tag string, e int, got, want map[[2]any]core.Diff) {
	t.Helper()
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("%s epoch %d: record %v got %d want %d", tag, e, k, got[k], d)
		}
	}
	for k, d := range got {
		if want[k] == 0 {
			t.Fatalf("%s epoch %d: unexpected record %v (diff %d)", tag, e, k, d)
		}
	}
}

// mapOracle applies f to every record of a net collection.
func mapOracle(net map[[2]uint64]core.Diff, f func(k, v uint64) (uint64, uint64)) map[[2]any]core.Diff {
	want := map[[2]any]core.Diff{}
	for kv, d := range net {
		k, v := f(kv[0], kv[1])
		want[[2]any{k, v}] += d
	}
	for k, d := range want {
		if d == 0 {
			delete(want, k)
		}
	}
	return want
}

func TestOracleMap(t *testing.T) {
	h := RandomHistory(rand.New(rand.NewSource(11)), 8, 24, 6, 12, 0.3)
	f := func(k, v uint64) (uint64, uint64) { return v % 5, k + v }
	for _, workers := range oracleWorkers {
		got := CollectEpochs(workers, h,
			func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				return dd.Map(c, f)
			})
		for e := 0; e < h.Epochs; e++ {
			diffMaps(t, fmt.Sprintf("map/w%d", workers), e, got[e], mapOracle(NetAt(h, uint64(e)), f))
		}
	}
}

func TestOracleFilter(t *testing.T) {
	h := RandomHistory(rand.New(rand.NewSource(12)), 8, 24, 6, 12, 0.3)
	pred := func(k, v uint64) bool { return (k+v)%3 != 0 }
	for _, workers := range oracleWorkers {
		got := CollectEpochs(workers, h,
			func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				return dd.Filter(c, pred)
			})
		for e := 0; e < h.Epochs; e++ {
			want := map[[2]any]core.Diff{}
			for kv, d := range NetAt(h, uint64(e)) {
				if pred(kv[0], kv[1]) {
					want[[2]any{kv[0], kv[1]}] = d
				}
			}
			diffMaps(t, fmt.Sprintf("filter/w%d", workers), e, got[e], want)
		}
	}
}

func TestOracleConcat(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ha := RandomHistory(r, 6, 16, 5, 9, 0.25)
	hb := RandomHistory(r, 6, 16, 5, 9, 0.25)
	for _, workers := range oracleWorkers {
		got := CollectEpochs2(workers, ha, hb,
			func(g *timely.Graph, a, b dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				return dd.Concat(a, b)
			})
		for e := 0; e < ha.Epochs; e++ {
			want := map[[2]any]core.Diff{}
			for kv, d := range NetAt(ha, uint64(e)) {
				want[[2]any{kv[0], kv[1]}] += d
			}
			for kv, d := range NetAt(hb, uint64(e)) {
				want[[2]any{kv[0], kv[1]}] += d
				if want[[2]any{kv[0], kv[1]}] == 0 {
					delete(want, [2]any{kv[0], kv[1]})
				}
			}
			diffMaps(t, fmt.Sprintf("concat/w%d", workers), e, got[e], want)
		}
	}
}

// joinEnc packs a joined value pair into one value.
const joinEnc = 1 << 20

// joinOracle is the product oracle: two net collections joined on key.
func joinOracle(na, nb map[[2]uint64]core.Diff) map[[2]any]core.Diff {
	want := map[[2]any]core.Diff{}
	for ka, da := range na {
		for kb, db := range nb {
			if ka[0] != kb[0] {
				continue
			}
			key := [2]any{ka[0], ka[1]*joinEnc + kb[1]}
			want[key] += da * db
			if want[key] == 0 {
				delete(want, key)
			}
		}
	}
	return want
}

// checkJoinOracle is shared with FuzzJoinOracle: join two histories on key,
// encoding the value pair, and compare per-epoch with the product oracle.
// It also joins ha with itself through one arrangement (what plan.Build
// makes of a Join of two identical sub-plans): both inputs then deliver each
// batch in the same schedule, and only the arrival order keeps a pair of
// same-batch updates from being counted twice.
func checkJoinOracle(t *testing.T, workers int, ha, hb History) {
	t.Helper()
	pair := func(k, v1, v2 uint64) (uint64, uint64) { return k, v1*joinEnc + v2 }
	got := CollectEpochs2(workers, ha, hb,
		func(g *timely.Graph, a, b dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
			return dd.Join(a, core.U64(), b, core.U64(), "join", pair)
		})
	self := CollectEpochs(workers, ha,
		func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
			a := dd.Arrange(c, core.U64(), "arrange")
			return dd.JoinCore(a, a, "self-join", pair)
		})
	for e := 0; e < ha.Epochs; e++ {
		na := NetAt(ha, uint64(e))
		diffMaps(t, fmt.Sprintf("join/w%d", workers), e, got[e], joinOracle(na, NetAt(hb, uint64(e))))
		diffMaps(t, fmt.Sprintf("self-join/w%d", workers), e, self[e], joinOracle(na, na))
	}
}

func TestOracleJoin(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	ha := RandomHistory(r, 6, 20, 5, 6, 0.3)
	hb := RandomHistory(r, 6, 20, 5, 6, 0.3)
	for _, workers := range oracleWorkers {
		checkJoinOracle(t, workers, ha, hb)
	}
}

// countDistinctOracle recomputes Count and Distinct over a net collection.
func countDistinctOracle(net map[[2]uint64]core.Diff) (count, distinct map[[2]any]core.Diff) {
	count, distinct = map[[2]any]core.Diff{}, map[[2]any]core.Diff{}
	totals := map[uint64]core.Diff{}
	for kv, d := range net {
		totals[kv[0]] += d
		if d > 0 {
			distinct[[2]any{kv[0], kv[1]}] = 1
		}
	}
	for k, n := range totals {
		count[[2]any{k, n}] = 1
	}
	return count, distinct
}

// checkCountDistinctOracle is shared with FuzzReduceOracle: Count and
// Distinct over one history, per-epoch, against recompute oracles.
func checkCountDistinctOracle(t *testing.T, workers int, h History) {
	t.Helper()
	gotCount := CollectEpochs(workers, h,
		func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, int64] {
			return dd.Count(c, core.U64())
		})
	gotDistinct := CollectEpochs(workers, h,
		func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
			return dd.Distinct(c, core.U64())
		})
	for e := 0; e < h.Epochs; e++ {
		wantCount, wantDistinct := countDistinctOracle(NetAt(h, uint64(e)))
		diffMaps(t, fmt.Sprintf("count/w%d", workers), e, gotCount[e], wantCount)
		diffMaps(t, fmt.Sprintf("distinct/w%d", workers), e, gotDistinct[e], wantDistinct)
	}
}

func TestOracleCountDistinct(t *testing.T) {
	h := RandomHistory(rand.New(rand.NewSource(15)), 8, 24, 5, 10, 0.35)
	for _, workers := range oracleWorkers {
		checkCountDistinctOracle(t, workers, h)
	}
}

// sumOracle recomputes Sum over a net collection: per key the sum of its
// values read as v-3 (so sums cancel while records remain), present iff the
// key's net record count is non-zero — multiplicities a fuzzed history drives
// negative included.
func sumOracle(net map[[2]uint64]core.Diff) map[[2]any]core.Diff {
	sums, counts := map[uint64]int64{}, map[uint64]core.Diff{}
	for kv, d := range net {
		sums[kv[0]] += (int64(kv[1]) - 3) * d
		counts[kv[0]] += d
	}
	want := map[[2]any]core.Diff{}
	for k, n := range counts {
		if n != 0 {
			want[[2]any{k, sums[k]}] = 1
		}
	}
	return want
}

// checkSumOracle is shared with FuzzSumOracle: Sum over one history,
// per-epoch, against the recompute oracle.
func checkSumOracle(t *testing.T, workers int, h History) {
	t.Helper()
	fnOut := core.Funcs[uint64, int64]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: func(a, b int64) bool { return a < b },
		HashK: core.Mix64,
	}
	got := CollectEpochs(workers, h,
		func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, int64] {
			return dd.Sum(c, core.U64(), fnOut, "Sum",
				func(acc *int64, v uint64, d core.Diff) { *acc += (int64(v) - 3) * d })
		})
	for e := 0; e < h.Epochs; e++ {
		diffMaps(t, fmt.Sprintf("sum/w%d", workers), e, got[e], sumOracle(NetAt(h, uint64(e))))
	}
}

func TestOracleSum(t *testing.T) {
	h := RandomHistory(rand.New(rand.NewSource(18)), 12, 24, 5, 8, 0.4)
	for _, workers := range oracleWorkers {
		checkSumOracle(t, workers, h)
	}
}

// reduceEvaluations is how many times a depth-1 reduce over h invokes its
// reducer: once per key and epoch at which the key's input changes and is
// not empty afterwards.
func reduceEvaluations(h History) int64 {
	var n int64
	prev := map[[2]uint64]core.Diff{}
	for e := 0; e < h.Epochs; e++ {
		net := NetAt(h, uint64(e))
		changed, present := map[uint64]bool{}, map[uint64]bool{}
		for kv, d := range net {
			present[kv[0]] = true
			if prev[kv] != d {
				changed[kv[0]] = true
			}
		}
		for kv := range prev {
			if net[kv] == 0 {
				changed[kv[0]] = true
			}
		}
		for k := range changed {
			if present[k] {
				n++
			}
		}
		prev = net
	}
	return n
}

// TestOracleReduceCustom also seals four epochs before each step: one
// schedule of the reduce then evaluates each key at several times, with
// retractions among them. It must take them in time order, and evaluate
// each once: a later time evaluated too early reads its predecessors'
// output before their corrections, and only a second evaluation, once they
// are made, sets it right.
func TestOracleReduceCustom(t *testing.T) {
	// A custom reducer: emit the maximum present value of each key.
	h := RandomHistory(rand.New(rand.NewSource(16)), 8, 24, 5, 12, 0.35)
	for _, run := range oracleRuns(h, 4) {
		h, workers := run.h, run.workers
		var calls atomic.Int64
		got := CollectEpochs(workers, h,
			func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				return dd.Reduce(c, core.U64(), core.U64(), "MaxVal",
					func(k uint64, in []dd.ValDiff[uint64], out *[]dd.ValDiff[uint64]) {
						calls.Add(1)
						best, ok := uint64(0), false
						for _, e := range in {
							if e.Diff > 0 && (!ok || e.Val > best) {
								best, ok = e.Val, true
							}
						}
						if ok {
							*out = append(*out, dd.ValDiff[uint64]{Val: best, Diff: 1})
						}
					})
			})
		for e := 0; e < h.Epochs; e++ {
			want := map[[2]any]core.Diff{}
			best := map[uint64]uint64{}
			has := map[uint64]bool{}
			for kv, d := range NetAt(h, uint64(e)) {
				if d > 0 && (!has[kv[0]] || kv[1] > best[kv[0]]) {
					best[kv[0]], has[kv[0]] = kv[1], true
				}
			}
			for k, v := range best {
				want[[2]any{k, v}] = 1
			}
			diffMaps(t, fmt.Sprintf("reduce-max/w%d/seal%d", workers, h.SealEvery), e, got[e], want)
		}
		if got, want := calls.Load(), reduceEvaluations(h); got != want {
			t.Errorf("reduce-max/w%d/seal%d: %d evaluations, want %d", workers, h.SealEvery, got, want)
		}
	}
}

// oracleRun is one way to drive a history: its worker count and how many
// epochs are sealed per step.
type oracleRun struct {
	h       History
	workers int
}

// oracleRuns drives h on every oracle worker count, each epoch sealed and
// stepped alone, then with seal epochs sealed per step.
func oracleRuns(h History, seal int) []oracleRun {
	var runs []oracleRun
	for _, every := range []int{1, seal} {
		h.SealEvery = every
		for _, workers := range oracleWorkers {
			runs = append(runs, oracleRun{h, workers})
		}
	}
	return runs
}

// TestOracleIterate also seals epochs together. Their loops then run side
// by side, and one key can change at incomparable times whose lub is no
// input time of its own. The crafted history makes that certain: key 0
// reaches value 1 at round 2 of epoch 0 (8, 4, 2, 1) and at round 0 of
// epoch 1, which has converged by round 2. Evaluating (0,2), the reduce
// finds the lub (1,2) ready in the same schedule, and only there does value
// 1's second derivation get retracted; deferring it to a later schedule
// emits behind the sealed output.
func TestOracleIterate(t *testing.T) {
	// Fixed point of v -> v/2 closure: every present (k, v) derives the chain
	// v, v/2, ..., 0, each with multiplicity one (the body distinct-s).
	h := RandomHistory(rand.New(rand.NewSource(17)), 6, 16, 4, 16, 0.3)
	meet := History{Epochs: 3, Ops: []HistOp{{0, 8, 1, 0}, {0, 1, 1, 1}, {0, 8, -1, 2}}}
	for _, run := range append(oracleRuns(h, 3), oracleRuns(meet, 3)...) {
		h, workers := run.h, run.workers
		got := CollectEpochs(workers, h,
			func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				return dd.Iterate(c, func(x dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
					halved := dd.Map(x, func(k, v uint64) (uint64, uint64) { return k, v / 2 })
					return dd.Distinct(dd.Concat(x, halved), core.U64())
				})
			})
		for e := 0; e < h.Epochs; e++ {
			want := map[[2]any]core.Diff{}
			for kv, d := range NetAt(h, uint64(e)) {
				if d <= 0 {
					continue
				}
				v := kv[1]
				for {
					want[[2]any{kv[0], v}] = 1
					if v == 0 {
						break
					}
					v /= 2
				}
			}
			diffMaps(t, fmt.Sprintf("iterate/w%d/seal%d", workers, h.SealEvery), e, got[e], want)
		}
	}
}
