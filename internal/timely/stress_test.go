package timely

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lattice"
)

// TestManyEpochsManyWorkers drives many small epochs through an exchange +
// buffering pipeline with 4 workers, checking per-epoch completeness and
// conservation of records.
func TestManyEpochsManyWorkers(t *testing.T) {
	const peers = 4
	const epochs = 100
	var received atomic.Int64
	Execute(peers, func(w *Worker) {
		var input *Input[int]
		var probe *Probe
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			exchanged := Unary[int, int](s, "exchange", func(d int) uint64 { return uint64(d) }, SumID, nil,
				func(ctx *Ctx, in *In[int], out *Out[int]) {
					in.ForEach(func(stamp []lattice.Time, data []int) {
						received.Add(int64(len(data)))
						// Exchanged slices are pooled: copy before forwarding.
						out.SendSlice(stamp, append([]int(nil), data...))
					})
				})
			probe = NewProbe(exchanged)
		})
		if w.Index() != 0 {
			input.Close()
			w.Drain()
			return
		}
		r := rand.New(rand.NewSource(3))
		for e := uint64(0); e < epochs; e++ {
			n := r.Intn(50) + 1
			vals := make([]int, n)
			for i := range vals {
				vals[i] = r.Intn(1000)
			}
			input.SendSlice(vals)
			input.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
		}
		input.Close()
		w.Drain()
	})
	if received.Load() == 0 {
		t.Fatalf("no records flowed")
	}
}

// TestNestedScopesDepth3: two nested iteration scopes (the depth SCC needs).
// Values enter both scopes, circulate in the inner one until divisible by 8,
// then leave both.
func TestNestedScopesDepth3(t *testing.T) {
	var got []int
	Execute(1, func(w *Worker) {
		var input *Input[int]
		w.Dataflow(func(g *Graph) {
			in, s := NewInput[int](g)
			input = in
			enter1 := Unary[int, int](s, "enter1", nil, SumEnter, nil, forwardEnter)
			enter2 := Unary[int, int](enter1, "enter2", nil, SumEnter, nil, forwardEnter)
			fb := NewFeedback[int](g, 3, nil)
			merged := Binary[int, int, int](enter2, fb.Stream(), "step", nil, nil,
				func(ctx *Ctx, a, b *In[int], out *Out[int]) {
					h := func(stamp []lattice.Time, data []int) {
						var next []int
						for _, d := range data {
							if d%8 != 0 {
								next = append(next, d+1)
							}
						}
						out.SendSlice(stamp, next)
					}
					a.ForEach(h)
					b.ForEach(h)
				})
			fb.Connect(merged, nil)
			leave2 := Unary[int, int](merged, "leave2", nil, SumLeave, nil, forwardLeave)
			leave1 := Unary[int, int](leave2, "leave1", nil, SumLeave, nil, forwardLeave)
			Sink(leave1, "collect", nil, func(ctx *Ctx, in *In[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					got = append(got, data...)
				})
			})
		})
		input.Send(1, 9, 20)
		input.Close()
		w.Drain()
	})
	// Each value emits its increments until the first multiple of 8:
	// 1 -> 2..7 (6 values, 8 filtered out... emitted pre-filter at merge):
	// merged emits d+1 for every non-multiple: 1->2,...,7->8? no: 8 not
	// emitted since 7%8!=0 emits 8. Then 8 stops. So 1 emits 2..8.
	want := map[int]int{}
	for _, v := range []int{1, 9, 20} {
		x := v
		for x%8 != 0 {
			x++
			want[x]++
		}
	}
	gotM := map[int]int{}
	for _, v := range got {
		gotM[v]++
	}
	if len(gotM) != len(want) {
		t.Fatalf("got %v want %v", gotM, want)
	}
	for k, n := range want {
		if gotM[k] != n {
			t.Fatalf("value %d: got %d want %d", k, gotM[k], n)
		}
	}
}

func forwardEnter(ctx *Ctx, in *In[int], out *Out[int]) {
	in.ForEach(func(stamp []lattice.Time, data []int) {
		st := make([]lattice.Time, len(stamp))
		for i, t := range stamp {
			st[i] = t.Enter()
		}
		out.SendSlice(st, data)
	})
}

func forwardLeave(ctx *Ctx, in *In[int], out *Out[int]) {
	in.ForEach(func(stamp []lattice.Time, data []int) {
		var lf lattice.Frontier
		for _, t := range stamp {
			lf.Insert(t.Leave())
		}
		out.SendSlice(lf.Elements(), data)
	})
}

// TestInputMisuse panics: sends after close and backwards advances.
func TestInputMisusePanics(t *testing.T) {
	check := func(name string, f func(in *Input[int])) {
		panicked := make(chan bool, 1)
		Execute(1, func(w *Worker) {
			defer func() { panicked <- recover() != nil }()
			var input *Input[int]
			w.Dataflow(func(g *Graph) {
				in, _ := NewInput[int](g)
				input = in
			})
			f(input)
			input.Close()
			w.Drain()
		})
		if !<-panicked {
			t.Fatalf("%s must panic", name)
		}
	}
	check("send after close", func(in *Input[int]) {
		in.Close()
		in.Send(1)
	})
	check("backwards advance", func(in *Input[int]) {
		in.AdvanceTo(5)
		in.AdvanceTo(3)
	})
	check("send in the past", func(in *Input[int]) {
		in.AdvanceTo(5)
		in.SendAtEpoch(2, []int{1})
	})
}

// TestExchangePooledChurnRace is the exchange-batching race test: 4 workers
// run a long-lived double-exchange dataflow whose pooled buffers are
// constantly in flight, while installer goroutines concurrently install and
// uninstall further exchanged dataflows on the same cluster. Every epoch
// asserts exact conservation — no lost and no duplicated updates — by count
// and by checksum. Run with -race (CI does).
func TestExchangePooledChurnRace(t *testing.T) {
	const (
		peers  = 4
		rounds = 40
		perEp  = 64
		encEp  = 1 << 12 // value encodes (epoch, index): epoch*encEp + i
	)
	c := StartCluster(NewLocalFabric(peers))
	defer c.Shutdown()

	var mu sync.Mutex
	gotCount := map[uint64]int{}
	gotSum := map[uint64]int{}

	inputs := make([]*Input[int], peers)
	probes := make([]*Probe, peers)
	inst := c.Install(func(w *Worker, g *Graph) {
		h, s := NewInput[int](g)
		inputs[w.Index()] = h
		// First exchange routes by value, second re-routes by a different
		// hash, so pooled buffers cross worker boundaries twice per record.
		ex1 := Unary[int, int](s, "ex1", func(d int) uint64 { return uint64(d) }, SumID, nil,
			func(ctx *Ctx, in *In[int], out *Out[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					// Pooled slices must be copied before forwarding.
					out.SendSlice(stamp, append([]int(nil), data...))
				})
			})
		ex2 := Unary[int, int](ex1, "ex2", func(d int) uint64 { return uint64(d) * 2654435761 }, SumID, nil,
			func(ctx *Ctx, in *In[int], out *Out[int]) {
				in.ForEach(func(stamp []lattice.Time, data []int) {
					out.SendSlice(stamp, append([]int(nil), data...))
				})
			})
		Sink(ex2, "tally", nil, func(ctx *Ctx, in *In[int]) {
			in.ForEach(func(stamp []lattice.Time, data []int) {
				mu.Lock()
				for _, v := range data {
					gotCount[uint64(v)/encEp]++
					gotSum[uint64(v)/encEp] += v % encEp
				}
				mu.Unlock()
			})
		})
		probes[w.Index()] = NewProbe(ex2)
	})
	inst.Wait()

	// Installer goroutines: install, feed, drain, uninstall in a loop while
	// the churn epochs stream.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for cyc := 0; ; cyc++ {
				select {
				case <-stop:
					return
				default:
				}
				ins, rec, probe, handle := installCounting(t, c)
				ins[0].Send(seed, seed+1, seed+2)
				for _, h := range ins {
					h.Close()
				}
				c.WaitUntil(func() bool { return probe.Frontier().Empty() })
				if got := rec.Load(); got != 3 {
					t.Errorf("installer %d cycle %d: received %d records, want 3", seed, cyc, got)
					return
				}
				// Tear the dataflow down while churn messages (and their
				// pooled buffers) are in flight on the shared cluster.
				if !c.WaitUntil(handle.Complete) {
					return
				}
				c.Uninstall(handle)
			}
		}(100 * (worker + 1))
	}

	for e := uint64(0); e < rounds; e++ {
		vals := make([]int, perEp)
		wantSum := 0
		for i := range vals {
			vals[i] = int(e)*encEp + i
			wantSum += i
		}
		inputs[0].SendSlice(vals)
		for _, h := range inputs {
			h.AdvanceTo(e + 1)
		}
		if !c.WaitUntil(func() bool { return probes[0].Done(lattice.Ts(e)) }) {
			t.Fatal("cluster stopped during churn")
		}
		mu.Lock()
		count, sum := gotCount[e], gotSum[e]
		mu.Unlock()
		if count != perEp || sum != wantSum {
			t.Fatalf("epoch %d: received %d records (sum %d), want %d (sum %d) — lost or duplicated updates",
				e, count, sum, perEp, wantSum)
		}
	}
	close(stop)
	wg.Wait()
	for _, h := range inputs {
		h.Close()
	}
}
