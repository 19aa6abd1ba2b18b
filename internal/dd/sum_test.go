package dd

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// The sums under test add a signed reading of the value, v-8, so that a
// key's sum can cancel to zero while records remain (5 and 11 are -3 and +3).
func addSigned(acc *int64, v uint64, d core.Diff) { *acc += (int64(v) - 8) * d }

func fnSigned() core.Funcs[uint64, int64] {
	return core.Funcs[uint64, int64]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: func(a, b int64) bool { return a < b },
		HashK: core.Mix64,
	}
}

func sumSigned(c Collection[uint64, uint64]) Collection[uint64, int64] {
	return Sum(c, core.U64(), fnSigned(), "sum", addSigned)
}

// reduceSigned is the reference: the same aggregate as a generic Reduce that
// re-forms the group, with Sum's presence rule.
func reduceSigned(c Collection[uint64, uint64]) Collection[uint64, int64] {
	return Reduce(c, core.U64(), fnSigned(), "sum-ref",
		func(_ uint64, in []ValDiff[uint64], out *[]ValDiff[int64]) {
			var acc int64
			var n core.Diff
			for _, e := range in {
				addSigned(&acc, e.Val, e.Diff)
				n += e.Diff
			}
			if n != 0 {
				*out = append(*out, ValDiff[int64]{Val: acc, Diff: 1})
			}
		})
}

// sumScript drives a scripted history — a sum that cancels while records
// remain, a key that empties and refills, a zero-valued record, several
// epochs sealed in one step — followed by random churn that never takes a
// multiplicity negative.
const sumScriptEpochs = 24

func sumScript(in *InputCollection[uint64, uint64], step func(uint64)) {
	in.Insert(1, 5)  // -3
	in.Insert(1, 11) // +3: key 1 sums to zero over two records
	in.Insert(2, 9)
	step(0)
	in.Remove(2, 9) // key 2 empties
	in.Insert(3, 8) // a record worth zero: present, sum 0
	step(1)
	in.UpdateAt(2, 10, 2) // key 2 refills
	step(2)
	in.Remove(1, 5)
	step(3)
	in.Remove(1, 11) // key 1 empties
	in.Remove(3, 8)
	step(4)
	// Three epochs' updates sent at once and sealed by one advance: the
	// operator sees them complete together and must still report each time.
	in.SendSlice([]core.Update[uint64, uint64]{
		{Key: 4, Val: 20, Time: lattice.Ts(7), Diff: 1},
		{Key: 4, Val: 9, Time: lattice.Ts(5), Diff: 1},
		{Key: 4, Val: 9, Time: lattice.Ts(6), Diff: -1},
		{Key: 4, Val: 30, Time: lattice.Ts(6), Diff: 1},
		{Key: 1, Val: 12, Time: lattice.Ts(6), Diff: 1},
		{Key: 4, Val: 30, Time: lattice.Ts(7), Diff: -1},
	})
	step(7)
	r := rand.New(rand.NewSource(26))
	var live [][2]uint64
	for e := uint64(8); e < sumScriptEpochs; e++ {
		for i := 0; i < 12; i++ {
			if len(live) > 0 && r.Intn(3) == 0 {
				j := r.Intn(len(live))
				in.Remove(live[j][0], live[j][1])
				live = append(live[:j], live[j+1:]...)
				continue
			}
			rec := [2]uint64{10 + uint64(r.Intn(6)), uint64(r.Intn(16))}
			in.Insert(rec[0], rec[1])
			live = append(live, rec)
		}
		step(e)
	}
}

func requireSameEpochs[K, V comparable](t *testing.T, tag string, got, want *Captured[K, V], epochs uint64) {
	t.Helper()
	for e := uint64(0); e < epochs; e++ {
		g, w := got.At(lattice.Ts(e)), want.At(lattice.Ts(e))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s epoch %d: got %v, want %v", tag, e, g, w)
		}
	}
}

func TestSumMatchesReduce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tag := fmt.Sprintf("w%d", workers)
		got := runCollected(t, workers, sumSigned, sumScript)
		want := runCollected(t, workers, reduceSigned, sumScript)
		requireSameEpochs(t, tag, got, want, sumScriptEpochs)

		// The shapes the script exists for, spelled out.
		at := func(e uint64) map[[2]any]core.Diff { return got.At(lattice.Ts(e)) }
		if d := at(0)[[2]any{uint64(1), int64(0)}]; d != 1 {
			t.Fatalf("%s: a sum cancelling over two records must report 0, got %v", tag, at(0))
		}
		if _, ok := at(1)[[2]any{uint64(2), int64(1)}]; ok || at(1)[[2]any{uint64(3), int64(0)}] != 1 {
			t.Fatalf("%s epoch 1: key 2 must be gone and key 3 present with 0, got %v", tag, at(1))
		}
		if at(2)[[2]any{uint64(2), int64(4)}] != 1 {
			t.Fatalf("%s epoch 2: refilled key 2 must sum to 4, got %v", tag, at(2))
		}
		for e, want := range map[uint64]int64{5: 1, 6: 22, 7: 12} {
			if at(e)[[2]any{uint64(4), want}] != 1 {
				t.Fatalf("%s epoch %d: key 4 must sum to %d, got %v", tag, e, want, at(e))
			}
		}
	}
}

// TestSumInsideIterate: at depth 2 Sum is the generic reduce, retractions
// around the loop included. The body closes x under "add the key's sum mod
// 7 as a record", which keeps re-deriving sums as x grows.
func TestSumInsideIterate(t *testing.T) {
	addVal := func(acc *int64, v uint64, d core.Diff) { *acc += int64(v) * d }
	loop := func(sum func(Collection[uint64, uint64]) Collection[uint64, int64]) func(Collection[uint64, uint64]) Collection[uint64, uint64] {
		return func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			return Iterate(c, func(x Collection[uint64, uint64]) Collection[uint64, uint64] {
				derived := Map(sum(x), func(k uint64, s int64) (uint64, uint64) { return k, uint64(s) % 7 })
				return Distinct(Concat(x, derived), core.U64())
			})
		}
	}
	withSum := loop(func(x Collection[uint64, uint64]) Collection[uint64, int64] {
		if x.S.Depth() != 2 {
			t.Errorf("loop body at depth %d, want 2", x.S.Depth())
		}
		return Sum(x, core.U64(), fnSigned(), "sum", addVal)
	})
	withReduce := loop(func(x Collection[uint64, uint64]) Collection[uint64, int64] {
		return Reduce(x, core.U64(), fnSigned(), "sum-ref",
			func(_ uint64, in []ValDiff[uint64], out *[]ValDiff[int64]) {
				var acc int64
				for _, e := range in {
					addVal(&acc, e.Val, e.Diff)
				}
				*out = append(*out, ValDiff[int64]{Val: acc, Diff: 1})
			})
	})
	const epochs = 6
	drive := func(in *InputCollection[uint64, uint64], step func(uint64)) {
		r := rand.New(rand.NewSource(27))
		var live [][2]uint64
		for e := uint64(0); e < epochs; e++ {
			for i := 0; i < 6; i++ {
				if len(live) > 0 && r.Intn(3) == 0 {
					j := r.Intn(len(live))
					in.Remove(live[j][0], live[j][1])
					live = append(live[:j], live[j+1:]...)
					continue
				}
				rec := [2]uint64{uint64(r.Intn(4)), 7 + uint64(r.Intn(30))}
				in.Insert(rec[0], rec[1])
				live = append(live, rec)
			}
			step(e)
		}
	}
	for _, workers := range []int{1, 3} {
		got := runCollected(t, workers, withSum, drive)
		want := runCollected(t, workers, withReduce, drive)
		requireSameEpochs(t, fmt.Sprintf("w%d", workers), got, want, epochs)
		if len(got.At(lattice.Ts(epochs-1))) == 0 {
			t.Fatal("the loop derived nothing")
		}
	}
}

// TestSumAddsEachUpdateOnce: add runs exactly once per input update, on
// whichever worker owns the key — never again when a later epoch touches the
// key, which is what re-forming the group would do.
func TestSumAddsEachUpdateOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var adds, sent atomic.Int64
		counted := func(c Collection[uint64, uint64]) Collection[uint64, int64] {
			return Sum(c, core.U64(), fnSigned(), "sum", func(acc *int64, v uint64, d core.Diff) {
				adds.Add(1)
				addSigned(acc, v, d)
			})
		}
		runCollected(t, workers, counted, func(in *InputCollection[uint64, uint64], step func(uint64)) {
			for e := uint64(0); e < 40; e++ {
				for k := uint64(0); k < 5; k++ {
					in.Insert(k, e) // every epoch touches every key again
					sent.Add(1)
					if e > 0 {
						in.Remove(k, e-1)
						sent.Add(1)
					}
				}
				step(e)
			}
		})
		if adds.Load() != sent.Load() {
			t.Fatalf("w%d: add ran %d times for %d input updates", workers, adds.Load(), sent.Load())
		}
	}
}

// growingGroups drives epochs [from, to) of a history whose groups only grow:
// every epoch each of four keys gains eight records and loses one old one, so
// by epoch e a group holds 7e records. It returns the bytes allocated by the
// (otherwise idle) process meanwhile.
const growKeys, growPerKey = 4, 8

func growingGroups(w *timely.Worker, in *InputCollection[uint64, uint64], probe *timely.Probe, from, to uint64) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := from; e < to; e++ {
		for k := uint64(0); k < growKeys; k++ {
			for i := uint64(0); i < growPerKey; i++ {
				in.Insert(k, e*growPerKey+i)
			}
			if e > 0 {
				in.Remove(k, (e-1)*growPerKey)
			}
		}
		in.AdvanceTo(e + 1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSumEpochCostIndependentOfHistory: an epoch costs its own updates, not
// the group they land in. add calls and bytes allocated over ten epochs a
// thousand epochs in — groups of 7 000 records, which re-forming a group
// would pass through add again every epoch — stay within 1.5x of the same ten
// epochs at the start. Counted, not timed.
func TestSumEpochCostIndependentOfHistory(t *testing.T) {
	var adds uint64 // single worker: no synchronisation needed
	var early, late [2]uint64
	timely.Execute(1, func(w *timely.Worker) {
		var in *InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			input, c := NewInput[uint64, uint64](g)
			in = input
			probe = Probe(Sum(c, core.U64(), fnSigned(), "sum", func(acc *int64, v uint64, d core.Diff) {
				adds++
				addSigned(acc, v, d)
			}))
		})
		growingGroups(w, in, probe, 0, 10)
		a0 := adds
		early[1] = growingGroups(w, in, probe, 10, 20)
		early[0] = adds - a0
		growingGroups(w, in, probe, 20, 1000)
		a0 = adds
		late[1] = growingGroups(w, in, probe, 1000, 1010)
		late[0] = adds - a0
		in.Close()
		w.Drain()
	})
	t.Logf("epochs 10-19: %d adds, %d bytes; epochs 1000-1009: %d adds, %d bytes", early[0], early[1], late[0], late[1])
	if want := uint64(10 * growKeys * (growPerKey + 1)); early[0] != want || late[0] != want {
		t.Errorf("add ran %d times over epochs 10-19 and %d over 1000-1009, want %d both", early[0], late[0], want)
	}
	if 2*late[1] > 3*early[1] {
		t.Errorf("ten epochs allocated %d bytes at epoch 10 and %d at epoch 1000: the cost grows with history", early[1], late[1])
	}
}

// TestFlattenKeyMatchesFilteredFlatten: over a snapshot import of a churned
// arrangement and the live batches that follow, FlattenKey emits exactly what
// filtering the flattened arrangement does — record for record, time for time.
func TestFlattenKeyMatchesFilteredFlatten(t *testing.T) {
	const epochs = uint64(6)
	workload := importWorkload(40, 10, epochs)
	type upd = core.Update[uint64, uint64]
	consolidated := func(c *Captured[uint64, uint64]) map[upd]core.Diff {
		out := map[upd]core.Diff{}
		for _, u := range c.Updates() {
			d := u.Diff
			u.Diff = 0
			if out[u] += d; out[u] == 0 {
				delete(out, u)
			}
		}
		return out
	}
	for _, workers := range []int{1, 3} {
		for _, key := range []uint64{3, 1007, 1039, 555 /* absent */} {
			byKey, filtered := &Captured[uint64, uint64]{}, &Captured[uint64, uint64]{}
			timely.Execute(workers, func(w *timely.Worker) {
				var in *InputCollection[uint64, uint64]
				var arr *core.Arranged[uint64, uint64]
				var probe *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					input, c := NewInput[uint64, uint64](g)
					in = input
					arr = Arrange(c, core.U64(), "base")
					probe = timely.NewProbe(arr.Stream)
				})
				if w.Index() == 0 {
					in.SendSlice(workload)
				}
				in.AdvanceTo(epochs)
				w.StepUntil(func() bool { return probe.Done(lattice.Ts(epochs - 1)) })

				var p1, p2 *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					imported := core.ImportOpts(g, arr.Agent, "import", core.ImportOptions{Snapshot: true})
					one := FlattenKey(imported, key)
					all := Filter(Flatten(imported), func(k, _ uint64) bool { return k == key })
					Capture(one, byKey)
					Capture(all, filtered)
					p1, p2 = Probe(one), Probe(all)
				})
				// Two live epochs behind the replay, touching the key and others.
				for e := epochs; e < epochs+2; e++ {
					if w.Index() == 0 {
						in.Insert(key, 100+e)
						in.Insert(key+1, e)
						if e > epochs {
							in.Remove(key, 100+e-1)
						}
					}
					in.AdvanceTo(e + 1)
					w.StepUntil(func() bool { return p1.Done(lattice.Ts(e)) && p2.Done(lattice.Ts(e)) })
				}
				in.Close()
				w.Drain()
			})
			got, want := consolidated(byKey), consolidated(filtered)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("w%d key %d: FlattenKey emitted %v, filtered Flatten %v", workers, key, got, want)
			}
			if key != 555 && len(want) < 2 {
				t.Fatalf("w%d key %d: only %d updates to compare", workers, key, len(want))
			}
			for u := range got {
				if u.Key != key {
					t.Fatalf("w%d: FlattenKey(%d) emitted key %d", workers, key, u.Key)
				}
			}
		}
	}
}
