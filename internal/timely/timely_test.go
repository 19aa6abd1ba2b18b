package timely

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lattice"
)

// collectSink attaches a sink that appends (epoch, value) pairs.
type obs struct {
	mu   sync.Mutex
	seen map[uint64][]int
}

func newObs() *obs { return &obs{seen: make(map[uint64][]int)} }

func (o *obs) add(e uint64, vs ...int) {
	o.mu.Lock()
	o.seen[e] = append(o.seen[e], vs...)
	o.mu.Unlock()
}

func (o *obs) get(e uint64) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]int(nil), o.seen[e]...)
	sort.Ints(out)
	return out
}

func TestSingleWorkerPipeline(t *testing.T) {
	got := newObs()
	Execute(1, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			doubled := Unary[int, int](s, "double", nil, SumID, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						mapped := make([]int, len(data))
						for i, d := range data {
							mapped[i] = 2 * d
						}
						out.SendSlice(stamp, mapped)
					})
				})
			Sink(doubled, "collect", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					got.add(stamp[0].Epoch(), data...)
				})
			})
			probe = NewProbe(doubled)
		})
		input.Send(1, 2, 3)
		input.AdvanceTo(1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
		input.Send(10)
		input.Close()
		w.Drain()
	})
	if want := []int{2, 4, 6}; !equalInts(got.get(0), want) {
		t.Fatalf("epoch 0: got %v want %v", got.get(0), want)
	}
	if want := []int{20}; !equalInts(got.get(1), want) {
		t.Fatalf("epoch 1: got %v want %v", got.get(1), want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProbeTracksEpochs(t *testing.T) {
	Execute(1, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			probe = NewProbe(s)
		})
		if probe.Done(lattice.Ts(0)) {
			t.Errorf("epoch 0 must be open before AdvanceTo")
		}
		input.Send(7)
		input.AdvanceTo(5)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(4)) })
		if probe.Done(lattice.Ts(5)) {
			t.Errorf("epoch 5 must still be open")
		}
		input.Close()
		w.Drain()
		if !probe.Done(lattice.Ts(5)) {
			t.Errorf("all epochs must close after Close+Drain")
		}
	})
}

// TestInputConnected: an input is connected once any operator reads its
// stream, whether over a pipeline channel (what dd.Map attaches) or an
// exchanged one (what core.Arrange attaches), and not before.
func TestInputConnected(t *testing.T) {
	pass := func(ctx *Ctx, in *In[int], out *Out[int]) {
		in.ForEach(func(stamp []lattice.Time, data []int) {})
	}
	for _, tc := range []struct {
		name string
		exch func(int) uint64
	}{
		{"pipeline", nil},
		{"exchanged", func(d int) uint64 { return uint64(d) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			Execute(2, func(w *Worker) {
				var read, unread *Input[int]
				w.Dataflow(func(g *Graph) {
					var s *Stream[int]
					read, s = NewInput[int](g)
					unread, _ = NewInput[int](g)
					if read.Connected() {
						t.Errorf("worker %d: a fresh input reports connected", w.Index())
					}
					Unary[int, int](s, tc.name, tc.exch, SumID, nil, pass)
				})
				if !read.Connected() {
					t.Errorf("worker %d: input read by a %s operator reports unconnected", w.Index(), tc.name)
				}
				if unread.Connected() {
					t.Errorf("worker %d: input nobody reads reports connected", w.Index())
				}
				read.Close()
				unread.Close()
				w.Drain()
			})
		})
	}
}

func TestMultiWorkerExchange(t *testing.T) {
	const peers = 4
	const n = 1000
	var perWorker [peers][]int
	var total atomic.Int64
	Execute(peers, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			// Exchange by value: all copies of v land on worker v%peers.
			routed := Unary[int, int](s, "route", func(d int) uint64 { return uint64(d) }, SumID, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						for _, d := range data {
							if d%peers != w.Index() {
								t.Errorf("value %d routed to worker %d", d, w.Index())
							}
						}
						perWorker[w.Index()] = append(perWorker[w.Index()], data...)
						total.Add(int64(len(data)))
						// Exchanged slices are pooled: copy before forwarding.
						out.SendSlice(stamp, append([]int(nil), data...))
					})
				})
			probe = NewProbe(routed)
		})
		if w.Index() == 0 {
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i
			}
			input.SendSlice(vals)
		}
		input.Close()
		w.StepUntil(func() bool { return probe.Frontier().Empty() })
		w.Drain()
	})
	if total.Load() != n {
		t.Fatalf("saw %d values, want %d", total.Load(), n)
	}
	for wi, vs := range perWorker {
		for _, v := range vs {
			if v%peers != wi {
				t.Fatalf("value %d on worker %d", v, wi)
			}
		}
	}
}

// TestFeedbackLoop runs a classic iterative computation: values circulate,
// decremented each round, and leave the loop when they reach zero. The
// number of completed iterations equals the largest input value.
func TestFeedbackLoop(t *testing.T) {
	got := newObs()
	Execute(2, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			entered := Unary[int, int](s, "enter", nil, SumEnter, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						st := make([]lattice.Time, len(stamp))
						for i, x := range stamp {
							st[i] = x.Enter()
						}
						out.SendSlice(st, data)
					})
				})
			fb := NewFeedback[int](g, 2, nil)
			// merge entered with loop feedback, decrement, route >0 back.
			merged := Binary[int, int, int](entered, fb.Stream(), "merge", nil, nil,
				func(ctx *Ctx, a *In[int], b *In[int], out *Out[int]) {
					fwd := func(stamp []lattice.Time, data []int) {
						next := make([]int, 0, len(data))
						for _, d := range data {
							if d > 0 {
								next = append(next, d-1)
							}
						}
						out.SendSlice(stamp, next)
					}
					a.ForEach(fwd)
					b.ForEach(fwd)
				})
			fb.Connect(merged, func(d int) uint64 { return uint64(d) })
			left := Unary[int, int](merged, "leave", nil, SumLeave, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						st := make([]lattice.Time, len(stamp))
						for i, x := range stamp {
							st[i] = x.Leave()
						}
						out.SendSlice(st, data)
					})
				})
			Sink(left, "collect", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					got.add(stamp[0].Epoch(), data...)
				})
			})
			probe = NewProbe(left)
		})
		if w.Index() == 0 {
			input.Send(3, 5, 1)
		}
		input.Close()
		w.Drain()
		if !probe.Frontier().Empty() {
			t.Errorf("probe frontier must be empty after drain: %v", probe.Frontier())
		}
	})
	// Each value v emits v-1, v-2, ..., 0 over the iterations: 3 -> {2,1,0},
	// 5 -> {4,3,2,1,0}, 1 -> {0}.
	want := []int{0, 0, 0, 1, 1, 2, 2, 3, 4}
	if !equalInts(got.get(0), want) {
		t.Fatalf("got %v want %v", got.get(0), want)
	}
}

func TestRetainedCapability(t *testing.T) {
	// An operator buffers its input and only emits when the input frontier
	// advances, holding a capability meanwhile.
	got := newObs()
	Execute(1, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			var pending []int
			buffered := Unary[int, int](s, "buffer", nil, SumID, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					caps := out.Caps()
					in.ForEach(func(stamp []lattice.Time, data []int) {
						caps.Insert(stamp...)
						pending = append(pending, data...)
					})
					if len(caps.held) > 0 && !in.Frontier().LessEqual(caps.held[0]) {
						out.SendSlice([]lattice.Time{caps.held[0]}, pending)
						caps.Downgrade(lattice.Frontier{})
						pending = nil
					}
				})
			Sink(buffered, "collect", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					got.add(stamp[0].Epoch(), data...)
				})
			})
			probe = NewProbe(buffered)
		})
		input.Send(1)
		input.Send(2)
		w.StepUntil(func() bool { return !w.Step() })
		if len(got.get(0)) != 0 {
			t.Errorf("nothing may be emitted while epoch 0 is open")
		}
		input.AdvanceTo(1)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
		if want := []int{1, 2}; !equalInts(got.get(0), want) {
			t.Errorf("after frontier advance: got %v want %v", got.get(0), want)
		}
		input.Close()
		w.Drain()
	})
}

// TestIdleScheduleDoesNotAllocate: an operator that holds a capability and
// has nothing to do is scheduled every step of every worker for as long as
// its dataflow stands, so a step over it (and over the idle sink it feeds)
// must not touch the heap.
func TestIdleScheduleDoesNotAllocate(t *testing.T) {
	Execute(1, func(w *Worker) {
		drop := false
		w.Dataflow(func(g *Graph) {
			s := Source[int](g, "idle", 1, lattice.Ts(0), func(ctx *Ctx, out *Out[int]) {
				if drop {
					out.Caps().Downgrade(lattice.Frontier{})
					drop = false
				}
			})
			Sink(s, "sink", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func([]lattice.Time, []int) {})
			})
		})
		if n := testing.AllocsPerRun(100, func() { w.Step() }); n != 0 {
			t.Errorf("a step over an idle capability holder allocates %v times", n)
		}
		drop = true
		w.Drain()
	})
}

func TestUnjustifiedSendPanics(t *testing.T) {
	panicked := make(chan bool, 1)
	Execute(1, func(w *Worker) {
		defer func() {
			panicked <- recover() != nil
		}()
		var input *Input[int]
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			Unary[int, int](s, "bad", nil, SumID, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						// Try to send in the past.
						out.SendSlice([]lattice.Time{lattice.Ts(stamp[0].Epoch() - 1)}, data)
					})
				})
		})
		input.SendAtEpoch(5, []int{1})
		input.Close()
		w.Drain()
	})
	if !<-panicked {
		t.Fatalf("sending at an unjustified time must panic")
	}
}

func TestMultipleDataflows(t *testing.T) {
	gotA, gotB := newObs(), newObs()
	Execute(2, func(w *Worker) {
		var inA, inB *Input[int]
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			inA = in
			Sink(s, "a", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(st []lattice.Time, d []int) { gotA.add(st[0].Epoch(), d...) })
			})
		})
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			inB = in
			Sink(s, "b", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(st []lattice.Time, d []int) { gotB.add(st[0].Epoch(), d...) })
			})
		})
		if w.Index() == 0 {
			inA.Send(1)
			inB.Send(2)
		}
		inA.Close()
		inB.Close()
		w.Drain()
	})
	if !equalInts(gotA.get(0), []int{1}) || !equalInts(gotB.get(0), []int{2}) {
		t.Fatalf("dataflows interfered: a=%v b=%v", gotA.get(0), gotB.get(0))
	}
}

// TestFrontierWithStragglerWorker: a worker that builds late must not allow
// the frontier to advance early, because initial capabilities are seeded for
// all workers at registration.
func TestFrontierWithStragglerWorker(t *testing.T) {
	var sum atomic.Int64
	Execute(3, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		build := func() {
			w.Dataflow(func(g *Graph) {
				in, s := NewInput[int](g)
				input = in
				summed := Unary[int, int](s, "sum", func(d int) uint64 { return 0 }, SumID, nil,
					func(ctx *Ctx, in *In[int], out *Out[int]) {
						in.ForEach(func(st []lattice.Time, d []int) {
							for _, v := range d {
								sum.Add(int64(v))
							}
							// Exchanged slices are pooled: copy before forwarding.
							out.SendSlice(st, append([]int(nil), d...))
						})
					})
				probe = NewProbe(summed)
			})
		}
		if w.Index() == 2 {
			// Straggler: other workers will park waiting for our epoch-0 cap.
			for i := 0; i < 100; i++ {
				// small busy delay without time APIs
				_ = i
			}
		}
		build()
		if w.Index() != 0 {
			input.Close()
		} else {
			input.Send(1, 2, 3)
			input.Close()
		}
		w.StepUntil(func() bool { return probe.Frontier().Empty() })
		w.Drain()
	})
	if sum.Load() != 6 {
		t.Fatalf("sum = %d, want 6", sum.Load())
	}
}

func TestSummaryApply(t *testing.T) {
	tm := lattice.Ts(3, 4)
	if r, ok := SumID.Apply(tm); !ok || r != tm {
		t.Fatalf("SumID")
	}
	if r, ok := SumStep.Apply(tm); !ok || r != lattice.Ts(3, 5) {
		t.Fatalf("SumStep: %v", r)
	}
	if r, ok := SumEnter.Apply(tm); !ok || r != lattice.Ts(3, 4, 0) {
		t.Fatalf("SumEnter: %v", r)
	}
	if r, ok := SumLeave.Apply(tm); !ok || r != lattice.Ts(3) {
		t.Fatalf("SumLeave: %v", r)
	}
	if _, ok := SumNone.Apply(tm); ok {
		t.Fatalf("SumNone must not apply")
	}
}
