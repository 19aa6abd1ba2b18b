package harness

// Operator-oracle property harness: randomized multi-epoch insert/delete
// histories are driven through a dd dataflow (at any worker count) and every
// epoch's consolidated output is cross-checked against a naive from-scratch
// recompute. The generators and runners here are shared by the property
// tests in oracle_test.go and the go test -fuzz targets in fuzz_test.go.

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// HistOp is one update of a randomized operator history.
type HistOp struct {
	Key, Val uint64
	Diff     core.Diff
	Epoch    uint64
}

// History is a multi-epoch sequence of keyed updates.
type History struct {
	Epochs int
	Ops    []HistOp
}

// RandomHistory generates a history of the given shape: perEpoch updates per
// epoch over keys×vals records, each a deletion of a previously live record
// with probability delFrac (otherwise an insertion). Multiplicities can go
// above one and deletions can race ahead of insertions in later epochs —
// exactly the histories differential operators must consolidate correctly.
func RandomHistory(r *rand.Rand, epochs, perEpoch int, keys, vals uint64, delFrac float64) History {
	h := History{Epochs: epochs}
	var live []HistOp
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			if len(live) > 0 && r.Float64() < delFrac {
				pick := live[r.Intn(len(live))]
				h.Ops = append(h.Ops, HistOp{pick.Key, pick.Val, -1, uint64(e)})
				continue
			}
			op := HistOp{uint64(r.Intn(int(keys))), uint64(r.Intn(int(vals))), 1, uint64(e)}
			h.Ops = append(h.Ops, op)
			live = append(live, op)
		}
	}
	return h
}

// DecodeHistory deterministically maps fuzz bytes to a history: three bytes
// per op (key, val, epoch-and-sign). The shape stays small so fuzz
// executions finish quickly.
func DecodeHistory(data []byte, epochs int, keys, vals uint64) History {
	if epochs < 1 {
		epochs = 1
	}
	h := History{Epochs: epochs}
	for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
		op := HistOp{
			Key:   uint64(data[i]) % keys,
			Val:   uint64(data[i+1]) % vals,
			Diff:  1,
			Epoch: uint64(data[i+2]>>1) % uint64(epochs),
		}
		if data[i+2]&1 == 1 {
			op.Diff = -1
		}
		h.Ops = append(h.Ops, op)
	}
	return h
}

// NetAt accumulates the history through epoch e (inclusive): the oracle's
// view of the input collection, keyed by (key, val), zero entries removed.
func NetAt(h History, e uint64) map[[2]uint64]core.Diff {
	out := make(map[[2]uint64]core.Diff)
	for _, op := range h.Ops {
		if op.Epoch <= e {
			k := [2]uint64{op.Key, op.Val}
			out[k] += op.Diff
			if out[k] == 0 {
				delete(out, k)
			}
		}
	}
	return out
}

// TraceAt is a trace's contents as a reader attaching now sees them: every
// run's updates with times advanced to the compaction frontier, consolidated.
// Two traces of the same history at the same compaction frontier agree on it
// however differently their runs are cut and merged. Worker-local, like all
// trace access.
func TraceAt[K, V any](agent *core.TraceAgent[K, V]) []core.Update[K, V] {
	since := agent.CompactionFrontier()
	var upds []core.Update[K, V]
	for _, r := range agent.Runs() {
		r.ForEach(func(k K, v V, t lattice.Time, d core.Diff) {
			if rep, ok := lattice.Compact(t, since); ok {
				upds = append(upds, core.Update[K, V]{Key: k, Val: v, Time: rep, Diff: d})
			}
		})
	}
	return core.SortUpdates(agent.Fn, upds)
}

// sendEpoch sends the history's updates of epoch e on in, at in's current
// epoch.
func (h History) sendEpoch(in *dd.InputCollection[uint64, uint64], e int) {
	for _, op := range h.Ops {
		if op.Epoch == uint64(e) {
			in.UpdateAt(op.Key, op.Val, op.Diff)
		}
	}
}

// feed streams a history's epochs through an input collection on worker 0,
// waiting on the probe after every epoch so per-epoch outputs consolidate.
func feed(w *timely.Worker, in *dd.InputCollection[uint64, uint64], h History, probe *timely.Probe) {
	if w.Index() != 0 {
		in.Close()
		w.Drain()
		return
	}
	for e := 0; e < h.Epochs; e++ {
		h.sendEpoch(in, e)
		in.AdvanceTo(uint64(e) + 1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
	}
	in.Close()
	w.Drain()
}

// CollectEpochs drives one history through build's dataflow on the given
// worker count and returns, per epoch, the consolidated output collection as
// a map from (key, val) to net multiplicity.
func CollectEpochs[K2, V2 comparable](workers int, h History,
	build func(g *timely.Graph, c dd.Collection[uint64, uint64]) dd.Collection[K2, V2]) []map[[2]any]core.Diff {

	cap := &dd.Captured[K2, V2]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			ic, c := dd.NewInput[uint64, uint64](g)
			in = ic
			out := build(g, c)
			dd.Capture(out, cap)
			probe = dd.Probe(out)
		})
		feed(w, in, h, probe)
	})
	return epochAccum(cap, h.Epochs)
}

// CollectEpochs2 is CollectEpochs for two-input operators (join, concat):
// both histories must have the same epoch count.
func CollectEpochs2[K2, V2 comparable](workers int, ha, hb History,
	build func(g *timely.Graph, a, b dd.Collection[uint64, uint64]) dd.Collection[K2, V2]) []map[[2]any]core.Diff {

	cap := &dd.Captured[K2, V2]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var inA, inB *dd.InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			ia, ca := dd.NewInput[uint64, uint64](g)
			ib, cb := dd.NewInput[uint64, uint64](g)
			inA, inB = ia, ib
			out := build(g, ca, cb)
			dd.Capture(out, cap)
			probe = dd.Probe(out)
		})
		if w.Index() != 0 {
			inA.Close()
			inB.Close()
			w.Drain()
			return
		}
		for e := 0; e < ha.Epochs; e++ {
			ha.sendEpoch(inA, e)
			hb.sendEpoch(inB, e)
			inA.AdvanceTo(uint64(e) + 1)
			inB.AdvanceTo(uint64(e) + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
		}
		inA.Close()
		inB.Close()
		w.Drain()
	})
	return epochAccum(cap, ha.Epochs)
}

func epochAccum[K2, V2 comparable](cap *dd.Captured[K2, V2], epochs int) []map[[2]any]core.Diff {
	out := make([]map[[2]any]core.Diff, epochs)
	for e := 0; e < epochs; e++ {
		out[e] = cap.At(lattice.Ts(uint64(e)))
	}
	return out
}
