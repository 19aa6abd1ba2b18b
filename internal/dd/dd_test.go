package dd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// runCollected executes a single-input dataflow program and returns the
// captured output updates. The build function receives the input collection
// and returns the output to capture; drive feeds the input handle.
func runCollected[K comparable, V comparable](t *testing.T, workers int,
	build func(Collection[uint64, uint64]) Collection[K, V],
	drive func(in *InputCollection[uint64, uint64], step func(epoch uint64))) *Captured[K, V] {

	t.Helper()
	cap := &Captured[K, V]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var input *InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			in, c := NewInput[uint64, uint64](g)
			input = in
			out := build(c)
			Capture(out, cap)
			probe = Probe(out)
		})
		step := func(epoch uint64) {
			input.AdvanceTo(epoch + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(epoch)) })
		}
		if w.Index() == 0 {
			drive(input, step)
		}
		input.Close()
		w.Drain()
	})
	return cap
}

func TestMapFilterNegateConcat(t *testing.T) {
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			doubled := Map(c, func(k, v uint64) (uint64, uint64) { return k, 2 * v })
			odd := Filter(doubled, func(k, v uint64) bool { return k%2 == 1 })
			return Concat(odd, Negate(odd))
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			for i := uint64(0); i < 10; i++ {
				in.Insert(i, i)
			}
			step(0)
		})
	// Everything cancels.
	acc := cap.At(lattice.Ts(0))
	if len(acc) != 0 {
		t.Fatalf("concat(x, -x) must cancel, got %v", acc)
	}
}

func TestConsolidateCancelsAndCoalesces(t *testing.T) {
	cap := runCollected(t, 2,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			noisy := Concat(c, Concat(c, Negate(c))) // x + x - x = x, but 3 updates per record
			return Consolidate(noisy, core.U64())
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			in.Insert(1, 10)
			in.Insert(2, 20)
			step(0)
		})
	upds := cap.Updates()
	if len(upds) != 2 {
		t.Fatalf("consolidate must emit exactly 2 updates, got %d: %v", len(upds), upds)
	}
	for _, u := range upds {
		if u.Diff != 1 {
			t.Fatalf("consolidated diff = %d", u.Diff)
		}
	}
}

func TestCountIncremental(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cap := runCollected(t, workers,
			func(c Collection[uint64, uint64]) Collection[uint64, int64] {
				return Count(c, core.U64())
			},
			func(in *InputCollection[uint64, uint64], step func(uint64)) {
				// epoch 0: key 1 has 3 records, key 2 has 1.
				in.Insert(1, 100)
				in.Insert(1, 101)
				in.Insert(1, 102)
				in.Insert(2, 200)
				step(0)
				// epoch 1: remove one of key 1's records.
				in.Remove(1, 101)
				step(1)
				// epoch 2: remove key 2 entirely.
				in.Remove(2, 200)
				step(2)
			})
		check := func(epoch uint64, want map[uint64]int64) {
			acc := cap.At(lattice.Ts(epoch))
			for k, n := range want {
				if acc[[2]any{k, n}] != 1 {
					t.Fatalf("w=%d epoch %d: key %d count %d missing: %v", workers, epoch, k, n, acc)
				}
			}
			if len(acc) != len(want) {
				t.Fatalf("w=%d epoch %d: extra entries: %v", workers, epoch, acc)
			}
		}
		check(0, map[uint64]int64{1: 3, 2: 1})
		check(1, map[uint64]int64{1: 2, 2: 1})
		check(2, map[uint64]int64{1: 2})
	}
}

func TestDistinctIncremental(t *testing.T) {
	cap := runCollected(t, 2,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			return Distinct(c, core.U64())
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			in.Insert(1, 7)
			in.Insert(1, 7) // duplicate
			in.Insert(2, 8)
			step(0)
			in.Remove(1, 7) // one copy remains -> still distinct
			step(1)
			in.Remove(1, 7) // gone
			step(2)
		})
	if acc := cap.At(lattice.Ts(0)); acc[[2]any{uint64(1), uint64(7)}] != 1 || len(acc) != 2 {
		t.Fatalf("epoch 0: %v", acc)
	}
	if acc := cap.At(lattice.Ts(1)); acc[[2]any{uint64(1), uint64(7)}] != 1 || len(acc) != 2 {
		t.Fatalf("epoch 1 (still one copy): %v", acc)
	}
	if acc := cap.At(lattice.Ts(2)); len(acc) != 1 {
		t.Fatalf("epoch 2 (removed): %v", acc)
	}
}

// TestJoinRandomizedOracle drives random inserts/removes on both join inputs
// across epochs and compares every epoch's accumulated join output with a
// brute-force evaluation.
func TestJoinRandomizedOracle(t *testing.T) {
	type rec struct {
		k, v uint64
		d    core.Diff
		e    uint64
	}
	const epochs = 8
	r := rand.New(rand.NewSource(123))
	var logA, logB []rec
	for e := uint64(0); e < epochs; e++ {
		for n := 0; n < 10; n++ {
			logA = append(logA, rec{uint64(r.Intn(5)), uint64(r.Intn(4)), 1, e})
			if r.Intn(3) == 0 && len(logA) > 1 {
				old := logA[r.Intn(len(logA)-1)]
				if old.e <= e {
					logA = append(logA, rec{old.k, old.v, -1, e})
				}
			}
			logB = append(logB, rec{uint64(r.Intn(5)), uint64(r.Intn(4)), 1, e})
		}
	}
	oracle := func(e uint64) map[[3]uint64]core.Diff {
		accA := map[[2]uint64]core.Diff{}
		accB := map[[2]uint64]core.Diff{}
		for _, x := range logA {
			if x.e <= e {
				accA[[2]uint64{x.k, x.v}] += x.d
			}
		}
		for _, x := range logB {
			if x.e <= e {
				accB[[2]uint64{x.k, x.v}] += x.d
			}
		}
		out := map[[3]uint64]core.Diff{}
		for a, da := range accA {
			for b, db := range accB {
				if a[0] == b[0] && da*db != 0 {
					out[[3]uint64{a[0], a[1], b[1]}] += da * db
					if out[[3]uint64{a[0], a[1], b[1]}] == 0 {
						delete(out, [3]uint64{a[0], a[1], b[1]})
					}
				}
			}
		}
		return out
	}

	for _, workers := range []int{1, 2} {
		cap := &Captured[uint64, [2]uint64]{}
		timely.Execute(workers, func(w *timely.Worker) {
			var inA, inB *InputCollection[uint64, uint64]
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				a, ca := NewInput[uint64, uint64](g)
				b, cb := NewInput[uint64, uint64](g)
				inA, inB = a, b
				joined := Join(ca, core.U64(), cb, core.U64(), "join",
					func(k, v1, v2 uint64) (uint64, [2]uint64) { return k, [2]uint64{v1, v2} })
				Capture(joined, cap)
				probe = Probe(joined)
			})
			if w.Index() == 0 {
				for e := uint64(0); e < epochs; e++ {
					for _, x := range logA {
						if x.e == e {
							inA.UpdateAt(x.k, x.v, x.d)
						}
					}
					for _, x := range logB {
						if x.e == e {
							inB.UpdateAt(x.k, x.v, x.d)
						}
					}
					inA.AdvanceTo(e + 1)
					inB.AdvanceTo(e + 1)
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
				}
			} else {
				inA.Close()
				inB.Close()
			}
			if w.Index() == 0 {
				inA.Close()
				inB.Close()
			}
			w.Drain()
		})
		for e := uint64(0); e < epochs; e++ {
			want := oracle(e)
			acc := cap.At(lattice.Ts(e))
			for kv, d := range want {
				got := acc[[2]any{kv[0], [2]uint64{kv[1], kv[2]}}]
				if got != d {
					t.Fatalf("w=%d epoch %d: join(%v) = %d, want %d", workers, e, kv, got, d)
				}
			}
			if len(acc) != len(want) {
				t.Fatalf("w=%d epoch %d: %d entries, want %d\n got: %v\nwant: %v",
					workers, e, len(acc), len(want), acc, want)
			}
		}
	}
}

func TestReduceMax(t *testing.T) {
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			return Reduce(c, core.U64(), core.U64(), "max",
				func(k uint64, in []ValDiff[uint64], out *[]ValDiff[uint64]) {
					max := in[0].Val
					for _, e := range in {
						if e.Val > max {
							max = e.Val
						}
					}
					*out = append(*out, ValDiff[uint64]{Val: max, Diff: 1})
				})
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			in.Insert(1, 5)
			in.Insert(1, 9)
			in.Insert(1, 3)
			step(0)
			in.Remove(1, 9) // max drops to 5
			step(1)
			in.Insert(1, 100)
			step(2)
		})
	for e, want := range map[uint64]uint64{0: 9, 1: 5, 2: 100} {
		acc := cap.At(lattice.Ts(e))
		if acc[[2]any{uint64(1), want}] != 1 || len(acc) != 1 {
			t.Fatalf("epoch %d: want max %d, got %v", e, want, acc)
		}
	}
}

func TestSemiJoinAntiJoin(t *testing.T) {
	for _, anti := range []bool{false, true} {
		cap := &Captured[uint64, uint64]{}
		timely.Execute(2, func(w *timely.Worker) {
			var data *InputCollection[uint64, uint64]
			var keys *InputCollection[uint64, core.Unit]
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				d, cd := NewInput[uint64, uint64](g)
				k, ck := NewInput[uint64, core.Unit](g)
				data, keys = d, k
				var out Collection[uint64, uint64]
				if anti {
					out = AntiJoin(cd, core.U64(), ck, core.U64Key())
					out = Consolidate(out, core.U64())
				} else {
					out = SemiJoin(cd, core.U64(), ck, core.U64Key())
				}
				Capture(out, cap)
				probe = Probe(out)
			})
			if w.Index() == 0 {
				data.Insert(1, 10)
				data.Insert(2, 20)
				data.Insert(3, 30)
				keys.Insert(1, core.Unit{})
				keys.Insert(3, core.Unit{})
				keys.Insert(3, core.Unit{}) // duplicate key must not duplicate output
			}
			data.AdvanceTo(1)
			keys.AdvanceTo(1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
			data.Close()
			keys.Close()
			w.Drain()
		})
		acc := cap.At(lattice.Ts(0))
		if anti {
			if len(acc) != 1 || acc[[2]any{uint64(2), uint64(20)}] != 1 {
				t.Fatalf("antijoin: %v", acc)
			}
		} else {
			if len(acc) != 2 || acc[[2]any{uint64(1), uint64(10)}] != 1 || acc[[2]any{uint64(3), uint64(30)}] != 1 {
				t.Fatalf("semijoin: %v", acc)
			}
		}
	}
}

// reachOracle computes reachable nodes from src over edges.
func reachOracle(edges map[[2]uint64]bool, src uint64) map[uint64]bool {
	out := map[uint64]bool{src: true}
	for {
		grew := false
		for e := range edges {
			if out[e[0]] && !out[e[1]] {
				out[e[1]] = true
				grew = true
			}
		}
		if !grew {
			return out
		}
	}
}

// TestIterateReachability is the paper's Figure 1 program: interactive
// reachability over an evolving graph, checked against an oracle at every
// epoch, including edge deletions.
func TestIterateReachability(t *testing.T) {
	type edgeOp struct {
		src, dst uint64
		d        core.Diff
		e        uint64
	}
	const src = 0
	ops := []edgeOp{
		{0, 1, 1, 0}, {1, 2, 1, 0}, {2, 3, 1, 0}, {5, 6, 1, 0},
		{3, 4, 1, 1},  // extend the chain
		{1, 2, -1, 2}, // cut the chain: 2,3,4 unreachable
		{0, 5, 1, 3},  // connect the 5-6 component
	}
	const epochs = 4
	for _, workers := range []int{1, 2} {
		cap := &Captured[uint64, core.Unit]{}
		timely.Execute(workers, func(w *timely.Worker) {
			var edges *InputCollection[uint64, uint64]
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				ein, ec := NewInput[uint64, uint64](g)
				edges = ein
				// roots: the single source node.
				roots := Filter(Map(ec, func(s, d uint64) (uint64, core.Unit) { return src, core.Unit{} }),
					func(k uint64, v core.Unit) bool { return true })
				roots = Distinct(roots, core.U64Key())
				reach := IterateFrom(roots,
					func(seed, recur Collection[uint64, core.Unit]) Collection[uint64, core.Unit] {
						eEntered := Enter(ec)
						ae := Arrange(eEntered, core.U64(), "edges")
						ar := DistinctCore(Arrange(recur, core.U64Key(), "reach"))
						next := JoinCore(ae, ar, "expand",
							func(k, dst uint64, _ core.Unit) (uint64, core.Unit) {
								return dst, core.Unit{}
							})
						return Distinct(Concat(seed, next), core.U64Key())
					})
				out := Consolidate(reach, core.U64Key())
				Capture(out, cap)
				probe = Probe(out)
			})
			if w.Index() == 0 {
				for e := uint64(0); e < epochs; e++ {
					for _, op := range ops {
						if op.e == e {
							edges.UpdateAt(op.src, op.dst, op.d)
						}
					}
					edges.AdvanceTo(e + 1)
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
				}
			}
			edges.Close()
			w.Drain()
		})
		for e := uint64(0); e < epochs; e++ {
			g := map[[2]uint64]bool{}
			for _, op := range ops {
				if op.e <= e {
					if op.d > 0 {
						g[[2]uint64{op.src, op.dst}] = true
					} else {
						delete(g, [2]uint64{op.src, op.dst})
					}
				}
			}
			want := reachOracle(g, src)
			acc := cap.At(lattice.Ts(e))
			for n := range want {
				if acc[[2]any{n, core.Unit{}}] != 1 {
					t.Fatalf("w=%d epoch %d: node %d must be reachable; acc=%v", workers, e, n, acc)
				}
			}
			if len(acc) != len(want) {
				t.Fatalf("w=%d epoch %d: got %d reachable, want %d (%v vs %v)",
					workers, e, len(acc), len(want), acc, want)
			}
		}
	}
}

// TestIterateCollatzSteps exercises deep iteration: each number circulates
// until it reaches 1 via the Collatz step; the loop must terminate.
func TestIterateCollatzSteps(t *testing.T) {
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			return Iterate(c, func(x Collection[uint64, uint64]) Collection[uint64, uint64] {
				stepped := Map(x, func(k, v uint64) (uint64, uint64) {
					switch {
					case v <= 1:
						return k, 1
					case v%2 == 0:
						return k, v / 2
					default:
						return k, 3*v + 1
					}
				})
				return Distinct(stepped, core.U64())
			})
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			in.Insert(7, 7) // 7 -> 22 -> 11 -> ... -> 1 (16 steps)
			in.Insert(3, 3)
			step(0)
		})
	acc := cap.At(lattice.Ts(0))
	if acc[[2]any{uint64(7), uint64(1)}] != 1 || acc[[2]any{uint64(3), uint64(1)}] != 1 {
		t.Fatalf("collatz fixed point missing: %v", acc)
	}
}

func TestFlattenMatchesArrangement(t *testing.T) {
	cap := runCollected(t, 1,
		func(c Collection[uint64, uint64]) Collection[uint64, uint64] {
			arr := Arrange(c, core.U64(), "arr")
			return Flatten(arr)
		},
		func(in *InputCollection[uint64, uint64], step func(uint64)) {
			for i := uint64(0); i < 20; i++ {
				in.Insert(i%4, i)
			}
			step(0)
		})
	acc := cap.At(lattice.Ts(0))
	if len(acc) != 20 {
		t.Fatalf("flatten lost updates: %d", len(acc))
	}
}

func TestCapturedAt(t *testing.T) {
	cp := &Captured[uint64, uint64]{}
	cp.upds = append(cp.upds,
		core.Update[uint64, uint64]{Key: 1, Val: 1, Time: lattice.Ts(0), Diff: 1},
		core.Update[uint64, uint64]{Key: 1, Val: 1, Time: lattice.Ts(2), Diff: -1},
	)
	if n := len(cp.At(lattice.Ts(1))); n != 1 {
		t.Fatalf("at(1): %d", n)
	}
	if n := len(cp.At(lattice.Ts(2))); n != 0 {
		t.Fatalf("at(2): %d", n)
	}
	_ = fmt.Sprintf("%v", cp.Updates())
}
