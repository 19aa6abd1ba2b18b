package timely

import (
	"sync/atomic"
	"testing"

	"repro/internal/lattice"
)

// installCounting installs an input -> exchange -> probe dataflow on a
// running cluster and returns the per-worker inputs plus a shared received
// counter and the worker-0 probe.
func installCounting(t *testing.T, c *Cluster) ([]*Input[int], *atomic.Int64, *Probe, *Installed) {
	t.Helper()
	var received atomic.Int64
	inputs := make([]*Input[int], c.Peers())
	probes := make([]*Probe, c.Peers())
	in := c.Install(func(w *Worker, g *Graph) {
		h, s := NewInput[int](g)
		inputs[w.Index()] = h
		exchanged := Unary[int, int](s, "exchange", func(d int) uint64 { return uint64(d) }, SumID, nil,
			func(ctx *Ctx, in *In[int], out *Out[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					received.Add(int64(len(data)))
					// Exchanged slices are pooled: copy before forwarding.
					out.SendSlice(stamp, append([]int(nil), data...))
				})
			})
		probes[w.Index()] = NewProbe(exchanged)
	})
	in.Wait()
	return inputs, &received, probes[0], in
}

// TestClusterLiveInstall drives two dataflows installed at different times
// on a running cluster from a driver goroutine, checking per-epoch
// completion and record conservation for both.
func TestClusterLiveInstall(t *testing.T) {
	c := StartCluster(3)
	defer c.Shutdown()

	in1, rec1, probe1, _ := installCounting(t, c)
	for e := uint64(0); e < 5; e++ {
		in1[0].Send(1, 2, 3, 4, 5)
		for _, h := range in1 {
			h.AdvanceTo(e + 1)
		}
		if !c.WaitUntil(func() bool { return probe1.Done(lattice.Ts(e)) }) {
			t.Fatalf("cluster stopped before epoch %d completed", e)
		}
	}
	if got := rec1.Load(); got != 25 {
		t.Fatalf("dataflow 1 received %d records, want 25", got)
	}

	// Install a second dataflow while the first is still live.
	in2, rec2, probe2, _ := installCounting(t, c)
	in2[0].Send(7, 8, 9)
	for _, h := range in2 {
		h.AdvanceTo(1)
	}
	c.WaitUntil(func() bool { return probe2.Done(lattice.Ts(0)) })
	if got := rec2.Load(); got != 3 {
		t.Fatalf("dataflow 2 received %d records, want 3", got)
	}

	// The first dataflow keeps serving after the second arrived.
	in1[0].Send(6)
	for _, h := range in1 {
		h.AdvanceTo(6)
	}
	c.WaitUntil(func() bool { return probe1.Done(lattice.Ts(5)) })
	if got := rec1.Load(); got != 26 {
		t.Fatalf("dataflow 1 received %d records after reuse, want 26", got)
	}

	for _, h := range in1 {
		h.Close()
	}
	for _, h := range in2 {
		h.Close()
	}
}

// TestClusterUninstall closes an installed dataflow's inputs, waits for it
// to drain, and removes it; the cluster then accepts a fresh install whose
// operators reuse the freed schedule slots without interference.
func TestClusterUninstall(t *testing.T) {
	c := StartCluster(2)
	defer c.Shutdown()

	inputs := make([]*Input[int], c.Peers())
	probes := make([]*Probe, c.Peers())
	inst := c.Install(func(w *Worker, g *Graph) {
		h, s := NewInput[int](g)
		inputs[w.Index()] = h
		probes[w.Index()] = NewProbe(s)
	})
	inst.Wait()
	inputs[0].Send(1, 2, 3)
	for _, h := range inputs {
		h.Close()
	}
	if !c.WaitUntil(inst.Complete) {
		t.Fatal("dataflow never drained")
	}
	c.Uninstall(inst)

	// Post-uninstall, a new install still works end to end.
	in2, rec2, probe2, _ := installCounting(t, c)
	in2[0].Send(4, 5)
	for _, h := range in2 {
		h.Close()
	}
	c.WaitUntil(func() bool { return probe2.Frontier().Empty() })
	if got := rec2.Load(); got != 2 {
		t.Fatalf("post-uninstall dataflow received %d records, want 2", got)
	}
	_ = probe2
}

// TestClusterPost runs worker-local actions on every worker and observes
// their effects from the driver after Wait.
func TestClusterPost(t *testing.T) {
	c := StartCluster(4)
	defer c.Shutdown()
	seen := make([]int, c.Peers())
	c.PostEach(func(w *Worker) { seen[w.Index()] = w.Index() + 1 }).Wait()
	for i, v := range seen {
		if v != i+1 {
			t.Fatalf("worker %d action did not run (got %d)", i, v)
		}
	}
}

// TestRemoveSchedulesOnceMore: a dataflow can go quiescent without this
// worker stepping it again (closing an input acts on the shared tracker
// directly; on a cluster, another worker's step may be what drains the last
// message). An operator that lets go of something outside the dataflow when
// it sees its input closed must still get to see that, so Remove schedules
// every operator one last time. Driven by hand on one worker so the "not
// stepped since quiescence" schedule is certain rather than likely.
func TestRemoveSchedulesOnceMore(t *testing.T) {
	Execute(1, func(w *Worker) {
		var in *Input[int]
		var probe *Probe
		released := false
		g := w.Dataflow(func(g *Graph) {
			h, s := NewInput[int](g)
			in = h
			probe = NewProbe(s)
			Sink[int](s, "holder", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func([]lattice.Time, []int) {})
				if in.Frontier().Empty() {
					released = true
				}
			})
		})
		in.Send(1, 2, 3)
		in.AdvanceTo(1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
		if released {
			t.Fatal("operator saw its input closed while the input was open")
		}
		in.Close()
		if !g.Complete() {
			t.Fatal("closing the only input of a drained dataflow should leave it quiescent")
		}
		if released {
			t.Fatal("operator was scheduled by Close; the test no longer covers Remove")
		}
		w.Remove(g)
		if !released {
			t.Fatal("Remove dropped the dataflow without letting its operator see the closed input")
		}
		if w.Step() {
			t.Fatal("a removed dataflow was stepped")
		}
	})
}
