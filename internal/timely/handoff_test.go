package timely

import (
	"slices"
	"testing"
	"time"

	"repro/internal/lattice"
)

// TestWorkerHandsOffToParkedWaiter: a worker yields its core once after a
// step that published progress, and never after a step that did not. The
// first half parks a driver on a probe behind a pass-through operator and
// counts the yields of the step that moves the probe; the second steps an
// operator that re-activates itself every schedule and publishes nothing.
func TestWorkerHandsOffToParkedWaiter(t *testing.T) {
	t.Run("progress", func(t *testing.T) {
		c := StartCluster(NewLocalFabric(1))
		defer c.Shutdown()
		var input *Input[int]
		var probe *Probe
		c.Install(func(w *Worker, g *Graph) {
			in, s := NewInput[int](g)
			input = in
			pass := Unary[int, int](s, "pass", nil, SumID, nil, func(ctx *Ctx, in *In[int], out *Out[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					out.SendSlice(stamp, data)
				})
			})
			probe = NewProbe(pass)
		}).Wait()

		var before, after int
		c.PostEach(func(w *Worker) {
			before = w.handoffs
			input.Send(1)
			input.AdvanceTo(1)
		})
		if !c.WaitUntil(func() bool { return probe.Done(lattice.Ts(0)) }) {
			t.Fatal("cluster stopped before the probe passed epoch 0")
		}
		c.PostEach(func(w *Worker) { after = w.handoffs }).Wait()
		if got := after - before; got != 1 {
			t.Errorf("the step that moved the probe yielded %d times, want 1", got)
		}
		c.PostEach(func(w *Worker) { input.Close() }).Wait()
	})

	t.Run("quiet", func(t *testing.T) {
		const steps = 1000
		Execute(1, func(w *Worker) {
			done := false
			w.Dataflow(func(g *Graph) {
				s := Source[int](g, "busy", 1, lattice.Ts(0), func(ctx *Ctx, out *Out[int]) {
					if done {
						out.Caps().Downgrade(lattice.Frontier{})
					} else {
						ctx.Activate()
					}
				})
				Sink(s, "sink", nil, func(ctx *Ctx, in *In[int]) {})
			})
			before := w.handoffs
			n := 0
			w.StepUntil(func() bool { n++; return n > steps })
			if got := w.handoffs - before; got != 0 {
				t.Errorf("%d active steps that published no progress yielded %d times, want 0", steps, got)
			}
			done = true
			w.Drain()
		})
	})
}

// BenchmarkWaiterWake is the wait a driver pays behind busy workers: two
// workers each run an operator that re-activates itself and spins a fixed
// slice of work every schedule, as owed merge fuel does, while the driver
// sends a record, closes the epoch on both inputs and parks in WaitUntil on
// the probe. wake_p50_us and wake_p95_us time each epoch from the close to
// WaitUntil's return; handoffs/op counts the yields of both workers. The
// times are a gauge, not a floor: they depend on the machine.
func BenchmarkWaiterWake(b *testing.B) {
	const workers = 2
	c := StartCluster(NewLocalFabric(workers))
	inputs := make([]*Input[int], workers)
	probes := make([]*Probe, workers)
	c.Install(func(w *Worker, g *Graph) {
		in, s := NewInput[int](g)
		inputs[w.Index()] = in
		var spun uint64
		busy := Unary[int, int](s, "fuel", nil, SumID, nil, func(ctx *Ctx, in *In[int], out *Out[int]) {
			in.ForEach(func(stamp []lattice.Time, data []int) {
				out.SendSlice(stamp, data)
			})
			if in.Frontier().Empty() {
				return
			}
			x := spun | 1
			for range 20_000 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spun = x
			ctx.Activate()
		})
		probes[w.Index()] = NewProbe(busy)
	}).Wait()

	waits := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for e := range uint64(b.N) {
		inputs[0].Send(int(e))
		start := time.Now()
		for _, in := range inputs {
			in.AdvanceTo(e + 1)
		}
		c.WaitUntil(func() bool { return probes[0].Done(lattice.Ts(e)) })
		waits = append(waits, time.Since(start))
	}
	b.StopTimer()

	for _, in := range inputs {
		in.Close()
	}
	c.Shutdown()
	handoffs := 0
	for _, w := range c.workers {
		handoffs += w.handoffs
	}
	slices.Sort(waits)
	q := func(p float64) float64 { return float64(waits[int(p*float64(len(waits)-1))]) / 1e3 }
	b.ReportMetric(q(0.5), "wake_p50_us")
	b.ReportMetric(q(0.95), "wake_p95_us")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
