package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/timely"
)

// batchLog records batches observed on an arranged stream.
type batchLog struct {
	mu      sync.Mutex
	batches []*Batch[uint64, uint64]
}

func (l *batchLog) add(bs []*Batch[uint64, uint64]) {
	l.mu.Lock()
	l.batches = append(l.batches, bs...)
	l.mu.Unlock()
}

func (l *batchLog) accumulate(k, v uint64, t lattice.Time) Diff {
	l.mu.Lock()
	defer l.mu.Unlock()
	var acc Diff
	for _, b := range l.batches {
		b.ForEach(func(bk, bv uint64, bt lattice.Time, d Diff) {
			if bk == k && bv == v && bt.LessEqual(t) {
				acc += d
			}
		})
	}
	return acc
}

// sendAt is one message: updates introduced at an epoch.
type sendAt struct {
	epoch uint64
	upds  []Update[uint64, uint64]
}

// arrangeSeals runs steps through an arrangement on the given number of
// workers. Worker 0 sends step e's messages while the input is at epoch e,
// then every worker advances it to e+1 and waits for the seal; the input
// closes after the last step. It returns each worker's sealed batches in
// the order they were emitted.
func arrangeSeals(workers int, steps [][]sendAt) [][]*Batch[uint64, uint64] {
	sealed := make([][]*Batch[uint64, uint64], workers)
	timely.Execute(workers, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			arr := Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
			timely.Sink(arr.Stream, "log", nil, func(ctx *timely.Ctx, in *timely.In[*Batch[uint64, uint64]]) {
				in.ForEach(func(stamp []lattice.Time, data []*Batch[uint64, uint64]) {
					sealed[w.Index()] = append(sealed[w.Index()], data...)
				})
			})
			probe = timely.NewProbe(arr.Stream)
		})
		for e, step := range steps {
			if w.Index() == 0 {
				for _, m := range step {
					input.SendAtEpoch(m.epoch, slices.Clone(m.upds))
				}
			}
			input.AdvanceTo(uint64(e) + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
		}
		input.Close()
		w.Drain()
	})
	return sealed
}

// randomSteps spreads a random history over random messages. Each epoch's
// updates, cancelling pairs among them, are cut at random points; each
// piece goes out at a random step up to three before its epoch, so updates
// sent ahead must wait in the arrange operator's buffer across the seals
// before theirs.
func randomSteps(r *rand.Rand, epochs int) [][]sendAt {
	steps := make([][]sendAt, epochs)
	for e := 0; e < epochs; e++ {
		var upds []Update[uint64, uint64]
		for n := r.Intn(40); len(upds) < n; {
			u := Update[uint64, uint64]{Key: uint64(r.Intn(12)), Val: uint64(r.Intn(4)),
				Time: lattice.Ts(uint64(e)), Diff: Diff(r.Intn(5) - 2)}
			upds = append(upds, u)
			if r.Intn(4) == 0 {
				u.Diff = -u.Diff
				upds = append(upds, u)
			}
		}
		r.Shuffle(len(upds), func(i, j int) { upds[i], upds[j] = upds[j], upds[i] })
		for len(upds) > 0 {
			n := 1 + r.Intn(len(upds))
			at := max(0, e-r.Intn(4))
			steps[at] = append(steps[at], sendAt{uint64(e), upds[:n]})
			upds = upds[n:]
		}
	}
	for _, step := range steps {
		r.Shuffle(len(step), func(i, j int) { step[i], step[j] = step[j], step[i] })
	}
	return steps
}

// TestArrangeSealsPerFrontierAdvance: each worker's batches chain from the
// minimal frontier to the closed one, one per frontier advance it observes,
// and each batch is BuildBatch of exactly the updates in its range routed to
// that worker, whether they arrived in their own epoch or were sent ahead
// and stayed buffered across the seals before it.
func TestArrangeSealsPerFrontierAdvance(t *testing.T) {
	u := func(k, v, e uint64, d Diff) Update[uint64, uint64] {
		return Update[uint64, uint64]{Key: k, Val: v, Time: lattice.Ts(e), Diff: d}
	}
	inputs := map[string][][]sendAt{
		// epoch 0: two updates; epoch 1: a retraction.
		"in order": {
			{{0, []Update[uint64, uint64]{u(3, 30, 0, 1), u(4, 40, 0, 2)}}},
			{{1, []Update[uint64, uint64]{u(3, 30, 1, -1)}}},
		},
		// The retraction goes out with the insertions, two seals ahead of
		// its epoch, and a record is inserted and retracted ahead of time.
		"ahead": {
			{{2, []Update[uint64, uint64]{u(3, 30, 2, -1), u(5, 50, 2, 1)}},
				{0, []Update[uint64, uint64]{u(3, 30, 0, 1), u(4, 40, 0, 2)}},
				{1, []Update[uint64, uint64]{u(5, 50, 1, 1)}}},
			{{2, []Update[uint64, uint64]{u(5, 50, 2, -1)}}},
			{},
		},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		inputs[fmt.Sprintf("random %d", i)] = randomSteps(r, 2+r.Intn(8))
	}
	for name, steps := range inputs {
		for _, workers := range []int{1, 3} {
			sealed := arrangeSeals(workers, steps)
			for wi, batches := range sealed {
				lower := lattice.NewFrontier(lattice.Ts(0))
				for i, b := range batches {
					if !b.Lower.Equal(lower) || b.Upper.Empty() != (i == len(batches)-1) {
						t.Fatalf("%s, w=%d: worker %d batch %d covers [%v, %v) after %d batches",
							name, workers, wi, i, b.Lower, b.Upper, len(batches))
					}
					var want []Update[uint64, uint64]
					for _, step := range steps {
						for _, m := range step {
							if !lower.LessEqual(lattice.Ts(m.epoch)) || b.Upper.LessEqual(lattice.Ts(m.epoch)) {
								continue
							}
							for _, up := range m.upds {
								if Mix64(up.Key)%uint64(workers) == uint64(wi) {
									want = append(want, up)
								}
							}
						}
					}
					wb := BuildBatch(U64(), want, b.Lower, b.Upper, b.Since)
					if got, want := batchUpdates(b), batchUpdates(wb); !slices.Equal(got, want) {
						t.Fatalf("%s, w=%d: worker %d batch %d [%v, %v) holds %v, want %v",
							name, workers, wi, i, b.Lower, b.Upper, got, want)
					}
					lower = b.Upper
				}
			}
		}
	}
}

// batchUpdates lists a batch's updates in storage order.
func batchUpdates(b *Batch[uint64, uint64]) []Update[uint64, uint64] {
	var out []Update[uint64, uint64]
	b.ForEach(func(k, v uint64, t lattice.Time, d Diff) {
		out = append(out, Update[uint64, uint64]{Key: k, Val: v, Time: t, Diff: d})
	})
	return out
}

// TestSealReleasesCancelledUpdates: once an epoch seals, the arrange
// operator holds nothing of the updates that cancelled: the batch keeps the
// survivor, and the buffer lets go of the rest while the dataflow is live.
func TestSealReleasesCancelledUpdates(t *testing.T) {
	type tagged struct {
		id uint64
		p  *[64]byte
	}
	fn := Funcs[uint64, tagged]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: func(a, b tagged) bool { return a.id < b.id },
		HashK: Mix64,
	}
	var released atomic.Bool
	timely.Execute(1, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, tagged]]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, tagged]](g)
			input = in
			probe = timely.NewProbe(Arrange(s, fn, "arrange", ArrangeOptions[uint64, tagged]{}).Stream)
		})
		func() {
			gone := tagged{id: 1, p: new([64]byte)}
			runtime.SetFinalizer(gone.p, func(*[64]byte) { released.Store(true) })
			input.Send(
				Update[uint64, tagged]{Key: 1, Val: gone, Time: lattice.Ts(0), Diff: 1},
				Update[uint64, tagged]{Key: 2, Val: tagged{id: 2, p: new([64]byte)}, Time: lattice.Ts(0), Diff: 1},
				Update[uint64, tagged]{Key: 1, Val: gone, Time: lattice.Ts(0), Diff: -1},
			)
		}()
		input.AdvanceTo(1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
		for deadline := time.Now().Add(2 * time.Second); !released.Load() && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !released.Load() {
			t.Error("a record cancelled within its sealed epoch is still reachable")
		}
		input.Close()
		w.Drain()
	})
}

// TestArrangeTraceReadable: the trace accumulates to the input collection
// and is navigable while the computation runs.
func TestArrangeTraceReadable(t *testing.T) {
	timely.Execute(1, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe *timely.Probe
		var arr *Arranged[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
			probe = timely.NewProbe(arr.Stream)
		})
		for epoch := uint64(0); epoch < 20; epoch++ {
			input.Send(Update[uint64, uint64]{Key: epoch % 5, Val: epoch, Time: lattice.Ts(epoch), Diff: 1})
			input.AdvanceTo(epoch + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(epoch)) })
		}
		// Key 2 got vals {2, 7, 12, 17}.
		cur := arr.Agent.NewHandle().Cursor()
		if !cur.SeekKey(2) {
			t.Errorf("key 2 missing from trace")
		}
		n := 0
		cur.ForUpdates(2, func(v uint64, tm lattice.Time, d Diff) {
			if v%5 != 2 || d != 1 {
				t.Errorf("unexpected update (%d, %v, %d)", v, tm, d)
			}
			n++
		})
		if n != 4 {
			t.Errorf("key 2 has %d updates, want 4", n)
		}
		input.Close()
		w.Drain()
	})
}

// TestImportMirrorsTrace: a second dataflow imports the trace and sees the
// full history plus subsequent updates.
func TestImportMirrorsTrace(t *testing.T) {
	log := &batchLog{}
	timely.Execute(1, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe1 *timely.Probe
		var arr *Arranged[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
			probe1 = timely.NewProbe(arr.Stream)
		})
		// Feed some history before the second dataflow exists.
		for epoch := uint64(0); epoch < 5; epoch++ {
			input.Send(Update[uint64, uint64]{Key: 1, Val: epoch, Time: lattice.Ts(epoch), Diff: 1})
			input.AdvanceTo(epoch + 1)
			w.StepUntil(func() bool { return probe1.Done(lattice.Ts(epoch)) })
		}
		// Import into a new dataflow.
		var probe2 *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			imported := ImportOpts(g, arr.Agent, "import", ImportOptions{})
			timely.Sink(imported.Stream, "log", nil, func(ctx *timely.Ctx, in *timely.In[*Batch[uint64, uint64]]) {
				in.ForEach(func(stamp []lattice.Time, data []*Batch[uint64, uint64]) {
					log.add(data)
				})
			})
			probe2 = timely.NewProbe(imported.Stream)
		})
		w.StepUntil(func() bool { return probe2.Done(lattice.Ts(4)) })
		// Historical accumulation visible in the import, from the trace's
		// compaction frontier (the sealed upper, epoch 5) onwards.
		if got := log.accumulate(1, 3, lattice.Ts(5)); got != 1 {
			t.Errorf("import missed history: %d", got)
		}
		// New updates flow to the import too.
		input.Send(Update[uint64, uint64]{Key: 9, Val: 99, Time: lattice.Ts(5), Diff: 1})
		input.AdvanceTo(7)
		w.StepUntil(func() bool { return probe2.Done(lattice.Ts(5)) })
		if got := log.accumulate(9, 99, lattice.Ts(5)); got != 1 {
			t.Errorf("import missed live update: %d", got)
		}
		input.Close()
		w.Drain()
	})
}

// TestArrangeCompactsBehindSealedUpper: the arrangement's own handle trails
// the sealed upper, so with no other reader a churned trace stays
// proportional to the live collection, a closing seal leaves the finished
// trace readable, and a reader attaching late starts at the compaction
// frontier rather than behind it.
func TestArrangeCompactsBehindSealedUpper(t *testing.T) {
	timely.Execute(1, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe *timely.Probe
		var arr *Arranged[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
			probe = timely.NewProbe(arr.Stream)
		})
		const epochs = 400
		for e := uint64(0); e < epochs; e++ {
			input.Send(Update[uint64, uint64]{Key: 1, Val: e, Time: lattice.Ts(e), Diff: 1})
			if e > 0 {
				input.Send(Update[uint64, uint64]{Key: 1, Val: e - 1, Time: lattice.Ts(e), Diff: -1})
			}
			input.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
			if got := arr.Agent.CompactionFrontier(); !got.Equal(arr.Agent.Upper()) {
				t.Fatalf("epoch %d: compaction frontier %v, want the sealed upper %v", e, got, arr.Agent.Upper())
			}
		}
		if n := arr.Agent.Spine().UpdateCount(); n > 32 {
			t.Errorf("one live record after %d epochs of churn holds %d updates", epochs, n)
		}
		h := arr.Agent.NewHandle()
		if !h.Logical().Equal(arr.Agent.Upper()) {
			t.Errorf("late handle starts at %v, want the compaction frontier %v", h.Logical(), arr.Agent.Upper())
		}
		input.Close()
		w.Drain()
		sum := Diff(0)
		cur := h.Cursor()
		if cur.SeekKey(1) {
			cur.ForUpdates(1, func(v uint64, tm lattice.Time, d Diff) { sum += d })
		}
		if sum != 1 {
			t.Errorf("closed trace accumulates key 1 to %d, want 1", sum)
		}
	})
}

// TestArrangeMultiWorkerPartition: each worker's trace holds exactly the
// keys hashed to it, and together they hold everything.
func TestArrangeMultiWorkerPartition(t *testing.T) {
	const peers = 4
	const keys = 100
	var mu sync.Mutex
	perWorker := make([]int, peers)
	timely.Execute(peers, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe *timely.Probe
		var arr *Arranged[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
			probe = timely.NewProbe(arr.Stream)
		})
		if w.Index() == 0 {
			var upds []Update[uint64, uint64]
			for k := uint64(0); k < keys; k++ {
				upds = append(upds, Update[uint64, uint64]{Key: k, Val: k, Time: lattice.Ts(0), Diff: 1})
			}
			input.SendSlice(upds)
		}
		input.Close()
		w.StepUntil(func() bool { return probe.Frontier().Empty() })
		cur := arr.Agent.NewHandle().Cursor()
		n := 0
		for k := uint64(0); k < keys; k++ {
			if Mix64(k)%peers != uint64(w.Index()) {
				continue
			}
			if !cur.SeekKey(k) {
				t.Errorf("worker %d missing key %d", w.Index(), k)
				continue
			}
			n++
		}
		mu.Lock()
		perWorker[w.Index()] = n
		mu.Unlock()
		w.Drain()
	})
	total := 0
	for _, n := range perWorker {
		total += n
	}
	if total != keys {
		t.Fatalf("workers hold %d keys, want %d", total, keys)
	}
}

// BenchmarkArrange: one worker; each iteration sends 100 k u64/u64 updates
// in 64 messages and seals them as one batch. Iterations alternate inserting
// and retracting the same records, so the trace stays the size of one
// iteration's input.
func BenchmarkArrange(b *testing.B) {
	const n, msgs = 100_000, 64
	r := rand.New(rand.NewSource(1))
	upds := make([]Update[uint64, uint64], n)
	for i := range upds {
		upds[i] = Update[uint64, uint64]{Key: uint64(r.Intn(n / 4)), Val: r.Uint64(), Diff: 1}
	}
	timely.Execute(1, func(w *timely.Worker) {
		var input *timely.Input[Update[uint64, uint64]]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			in, s := timely.NewInput[Update[uint64, uint64]](g)
			input = in
			probe = timely.NewProbe(Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{}).Stream)
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := uint64(i)
			for m := 0; m < msgs; m++ {
				msg := StampAt(upds[m*n/msgs:(m+1)*n/msgs], lattice.Ts(e))
				if i%2 == 1 {
					for j := range msg {
						msg[j].Diff = -1
					}
				}
				input.SendSlice(msg)
			}
			input.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
		}
		b.StopTimer()
		input.Close()
		w.Drain()
	})
}
