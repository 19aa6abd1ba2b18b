package timely

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lattice"
)

// capSetRun drives one operator's CapSet through random Inserts and
// Downgrades, one per schedule, and holds it after every schedule to a
// multiset model of the times asserted so far: the set holds exactly the
// model's minimal antichain, and the progress tracker counts each held time
// once on the operator's port and nothing else there. Every Insert is
// justified by a message the operator consumes in the same schedule and
// every Downgrade by what the set holds before it (no message is consumed in
// that schedule), so an unjustified-retain panic fails the run. The run ends
// with a downgrade to empty, after which the probe downstream must complete.
//
// The operator enters an iteration scope (SumEnter), so its times are
// (epoch, round) pairs and the held antichains have more than one element.
// more reports whether the run takes another step.
func capSetRun(t *testing.T, r *rand.Rand, more func(step int) bool) {
	Execute(1, func(w *Worker) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("panic: %v", p)
			}
		}()
		var input *Input[int]
		var probe *Probe
		var caps *CapSet
		var act func(caps *CapSet)
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			held := Unary[int, int](s, "caps", nil, SumEnter, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					caps = out.Caps()
					in.ForEach(func([]lattice.Time, []int) {})
					if act != nil {
						act(caps)
						act = nil
					}
				})
			probe = NewProbe(held)
		})
		w.Step()
		tracker := caps.o.g.tracker

		var model []lattice.Time // every time asserted since the last downgrade
		check := func(what string) error {
			want := lattice.NewFrontier(model...).Sorted()
			got := slices.Clone(caps.held)
			slices.SortFunc(got, func(a, b lattice.Time) int {
				if a.TotalLess(b) {
					return -1
				}
				if b.TotalLess(a) {
					return 1
				}
				return 0
			})
			if !slices.Equal(got, want) {
				return fmt.Errorf("after %s: holds %v, model's minimal antichain is %v", what, got, want)
			}
			counted := map[lattice.Time]int64{}
			for pt, n := range countsOf(tracker) {
				if pt.key == (portKey{caps.o.id, 0, true}) {
					counted[pt.t] = n
				}
			}
			if len(counted) != len(want) {
				return fmt.Errorf("after %s: tracker counts %v for held %v", what, counted, want)
			}
			for _, h := range want {
				if counted[h] != 1 {
					return fmt.Errorf("after %s: tracker counts %v for held %v", what, counted, want)
				}
			}
			return nil
		}

		for step := 0; more(step); step++ {
			var what string
			if len(caps.held) == 0 || r.Intn(2) == 0 {
				// A message at epoch e justifies every (e', round) with e' ≥ e.
				e := uint64(r.Intn(6))
				input.SendAtEpoch(e, []int{0})
				ts := make([]lattice.Time, 1+r.Intn(3))
				for i := range ts {
					ts[i] = lattice.Ts(e+uint64(r.Intn(3)), uint64(r.Intn(6)))
				}
				model = append(model, ts...)
				what = fmt.Sprintf("Insert%v", ts)
				act = func(caps *CapSet) { caps.Insert(ts...) }
			} else {
				// Each target is at or beyond some held time; some are held.
				var f lattice.Frontier
				for n := r.Intn(4); n > 0; n-- {
					h := caps.held[r.Intn(len(caps.held))]
					f.Insert(lattice.Ts(h.Epoch()+uint64(r.Intn(3)), h.Coord(1)+uint64(r.Intn(3))))
				}
				model = slices.Clone(f.Elements())
				what = fmt.Sprintf("Downgrade(%v)", f)
				act = func(caps *CapSet) { caps.Downgrade(f) }
			}
			w.Step()
			if err := check(what); err != nil {
				t.Error(err)
				return
			}
		}

		act = func(caps *CapSet) { caps.Downgrade(lattice.Frontier{}) }
		w.Step()
		model = nil
		if err := check("Downgrade({})"); err != nil {
			t.Error(err)
			return
		}
		input.Close()
		for i := 0; i < 10 && !probe.Frontier().Empty(); i++ {
			w.Step()
		}
		if !probe.Frontier().Empty() {
			t.Errorf("probe frontier %v after releasing every capability and closing the input", probe.Frontier())
		}
	})
}

func TestCapSetMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		capSetRun(t, rand.New(rand.NewSource(seed)), func(step int) bool { return step < 200 })
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzCapSet is TestCapSetMatchesModel with the moves drawn from the fuzzer's
// bytes; the run lasts as long as the bytes do.
func FuzzCapSet(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		src := &byteSource{data: data}
		capSetRun(t, rand.New(src), func(int) bool { return len(src.data) > 0 })
	})
}
