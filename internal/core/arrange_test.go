package core

import (
	"sync"
	"testing"

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

func TestArrangeSealsPerFrontierAdvance(t *testing.T) {
	log := &batchLog{}
	Execute1 := func(workers int) {
		timely.Execute(workers, func(w *timely.Worker) {
			var input *timely.Input[Update[uint64, uint64]]
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				in, s := timely.NewInput[Update[uint64, uint64]](g)
				input = in
				arr := Arrange(s, U64(), "arrange", ArrangeOptions{})
				timely.Sink(arr.Stream, "log", nil, func(ctx *timely.Ctx, in *timely.In[*Batch[uint64, uint64]]) {
					in.ForEach(func(stamp []lattice.Time, data []*Batch[uint64, uint64]) {
						log.add(data)
					})
				})
				probe = timely.NewProbe(arr.Stream)
			})
			if w.Index() == 0 {
				// epoch 0: two updates; epoch 1: a retraction.
				input.Send(
					Update[uint64, uint64]{Key: 3, Val: 30, Time: lattice.Ts(0), Diff: 1},
					Update[uint64, uint64]{Key: 4, Val: 40, Time: lattice.Ts(0), Diff: 2},
				)
			}
			input.AdvanceTo(1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
			if w.Index() == 0 {
				input.Send(Update[uint64, uint64]{Key: 3, Val: 30, Time: lattice.Ts(1), Diff: -1})
			}
			input.Close()
			w.Drain()
		})
	}
	Execute1(2)
	if got := log.accumulate(3, 30, lattice.Ts(0)); got != 1 {
		t.Fatalf("k3@0 = %d, want 1", got)
	}
	if got := log.accumulate(3, 30, lattice.Ts(1)); got != 0 {
		t.Fatalf("k3@1 = %d, want 0 (retracted)", got)
	}
	if got := log.accumulate(4, 40, lattice.Ts(1)); got != 2 {
		t.Fatalf("k4@1 = %d, want 2", got)
	}
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
			arr = Arrange(s, U64(), "arrange", ArrangeOptions{})
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
			arr = Arrange(s, U64(), "arrange", ArrangeOptions{})
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
			imported := Import(g, arr.Agent, "import")
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
			arr = Arrange(s, U64(), "arrange", ArrangeOptions{})
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
			arr = Arrange(s, U64(), "arrange", ArrangeOptions{})
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
