package harness

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/timely"
)

// The trace-size property: every arrangement compacts behind what it has
// sealed, so a constant-size live collection churned for N epochs leaves
// every trace it touches the size of the live collection, not of N — and a
// late snapshot of each of those traces still holds exactly what a build
// from scratch over the final collection holds.

const (
	churnKeys   = 6
	churnPerKey = 4
	churnLive   = churnKeys * churnPerKey
)

// churnRecord is record j of key k as of epoch e: every record changes its
// value every epoch, and a key's records stay distinct.
func churnRecord(k, j, e uint64) (uint64, uint64) { return k, (j*16 + e) % 64 }

// churnHistory replaces all churnLive records every epoch.
func churnHistory(epochs int) History {
	h := History{Epochs: epochs}
	for e := uint64(0); e < uint64(epochs); e++ {
		for k := uint64(0); k < churnKeys; k++ {
			for j := uint64(0); j < churnPerKey; j++ {
				key, val := churnRecord(k, j, e)
				h.Ops = append(h.Ops, HistOp{key, val, 1, e})
				if e > 0 {
					_, old := churnRecord(k, j, e-1)
					h.Ops = append(h.Ops, HistOp{key, old, -1, e})
				}
			}
		}
	}
	return h
}

// scratchHistory is the one-epoch history holding only what churnHistory
// leaves live after the given number of epochs.
func scratchHistory(epochs int) History {
	h := History{Epochs: 1}
	for kv, d := range NetAt(churnHistory(epochs), uint64(epochs-1)) {
		h.Ops = append(h.Ops, HistOp{kv[0], kv[1], d, 0})
	}
	return h
}

// traceDump is one arrangement as observed at rest on one worker: how many
// updates its spine holds, and what a late snapshot of it accumulates to.
type traceDump struct {
	size     int
	contents map[[2]any]core.Diff
}

// traces collects the arrangements a pipeline builds, by name.
type traces []watched

type watched struct {
	name string
	dump func() traceDump
}

// watch registers an arrangement and hands it back.
func watch[K, V comparable](tr *traces, name string, a *core.Arranged[K, V]) *core.Arranged[K, V] {
	*tr = append(*tr, watched{name, func() traceDump { return dumpTrace(a.Agent) }})
	return a
}

func dumpTrace[K, V comparable](agent *core.TraceAgent[K, V]) traceDump {
	d := traceDump{size: agent.Spine().UpdateCount(), contents: map[[2]any]core.Diff{}}
	for _, u := range TraceAt(agent) {
		kv := [2]any{u.Key, u.Val}
		d.contents[kv] += u.Diff
		if d.contents[kv] == 0 {
			delete(d.contents, kv)
		}
	}
	return d
}

func (d *traceDump) add(o traceDump) {
	d.size += o.size
	if d.contents == nil {
		d.contents = map[[2]any]core.Diff{}
	}
	for kv, diff := range o.contents {
		d.contents[kv] += diff
	}
}

var u64 = core.U64()

// tracePipelines are the dataflows under test. Each registers every
// arrangement it creates, including the ones dd.Reduce and dd.Join would
// otherwise build out of sight.
var tracePipelines = []struct {
	name  string
	build func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64]
}{
	{"map", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		m := dd.Map(c, func(k, v uint64) (uint64, uint64) { return v % 5, k + v })
		return dd.Flatten(watch(tr, "mapped", dd.Arrange(m, u64, "mapped")))
	}},
	{"join", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		a := watch(tr, "left", dd.Arrange(c, u64, "left"))
		shifted := dd.Map(c, func(k, v uint64) (uint64, uint64) { return k, v + 1 })
		b := watch(tr, "right", dd.Arrange(shifted, u64, "right"))
		return dd.JoinCore(a, b, "join", func(k, v1, v2 uint64) (uint64, uint64) { return k, v1<<8 + v2 })
	}},
	{"reduce", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		in := watch(tr, "input", dd.Arrange(c, u64, "input"))
		return dd.Flatten(watch(tr, "max", dd.ReduceCore(in, u64, "max",
			func(k uint64, in []dd.ValDiff[uint64], out *[]dd.ValDiff[uint64]) {
				*out = append(*out, dd.ValDiff[uint64]{Val: in[len(in)-1].Val, Diff: 1})
			})))
	}},
	{"count", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		in := watch(tr, "input", dd.Arrange(c, u64, "input"))
		counts := dd.CountCore(in)
		return dd.Map(counts, func(k uint64, n int64) (uint64, uint64) { return k, uint64(n) })
	}},
	{"distinct", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		in := watch(tr, "input", dd.Arrange(dd.Concat(c, c), u64, "input"))
		return dd.Flatten(watch(tr, "distinct", dd.DistinctCore(in)))
	}},
	{"iterate", func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
		// reach(node, root): every key is a root; edges are k -> v mod 8. The
		// edge arrangement is shared into the loop; the loop's own
		// arrangements live at (epoch, round) times.
		edges := watch(tr, "edges", dd.Arrange(
			dd.Map(c, func(k, v uint64) (uint64, uint64) { return k, v % 8 }), u64, "edges"))
		roots := dd.Distinct(dd.Map(c, func(k, v uint64) (uint64, uint64) { return k, k }), u64)
		return dd.IterateFrom(roots,
			func(seed, recur dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64] {
				ae := dd.EnterArranged(edges, "edges-enter")
				ar := watch(tr, "reach", dd.Arrange(recur, u64, "reach"))
				next := dd.JoinCore(ae, ar, "expand",
					func(node, dst, root uint64) (uint64, uint64) { return dst, root })
				in := watch(tr, "loop-input", dd.Arrange(dd.Concat(seed, next), u64, "loop-input"))
				return dd.Flatten(watch(tr, "loop-distinct", dd.DistinctCore(in)))
			})
	}},
}

// runTraces drives h through the pipeline and returns, per registered
// arrangement and summed over workers, its dump once every epoch is complete
// and the workers have no maintenance left to do.
func runTraces(workers int, h History,
	build func(tr *traces, c dd.Collection[uint64, uint64]) dd.Collection[uint64, uint64]) map[string]traceDump {

	var mu sync.Mutex
	out := map[string]traceDump{}
	timely.Execute(workers, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, uint64]
		var probe *timely.Probe
		tr := &traces{}
		w.Dataflow(func(g *timely.Graph) {
			ic, c := dd.NewInput[uint64, uint64](g)
			in = ic
			probe = dd.Probe(build(tr, c))
		})
		for e := uint64(0); e < uint64(h.Epochs); e++ {
			if w.Index() == 0 {
				for _, op := range h.Ops {
					if op.Epoch == e {
						in.UpdateAt(op.Key, op.Val, op.Diff)
					}
				}
			}
			in.AdvanceTo(e + 1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(e)) })
		}
		for w.Step() {
		}
		mu.Lock()
		for _, w := range *tr {
			d := out[w.name]
			d.add(w.dump())
			out[w.name] = d
		}
		mu.Unlock()
		in.Close()
		w.Drain()
	})
	return out
}

// checkTraces holds a churned run's traces against the from-scratch run's:
// same contents, and a size within a constant of the from-scratch size.
func checkTraces(t *testing.T, tag string, workers int, got, scratch map[string]traceDump) {
	t.Helper()
	if len(got) == 0 || len(got) != len(scratch) {
		t.Fatalf("%s: %d traces against %d from scratch", tag, len(got), len(scratch))
	}
	for name, want := range scratch {
		g := got[name]
		diffMaps(t, tag+"/"+name, -1, g.contents, want.contents)
		if bound := 8*want.size + 64*workers; g.size > bound {
			t.Errorf("%s/%s: trace holds %d updates; from scratch it holds %d (bound %d)",
				tag, name, g.size, want.size, bound)
		}
	}
}

func TestTraceSizeFollowsLiveCollection(t *testing.T) {
	const n = 40
	for _, p := range tracePipelines {
		for _, workers := range oracleWorkers {
			for _, epochs := range []int{n, 4 * n} {
				got := runTraces(workers, churnHistory(epochs), p.build)
				scratch := runTraces(workers, scratchHistory(epochs), p.build)
				checkTraces(t, fmt.Sprintf("%s/w%d/%d epochs", p.name, workers, epochs), workers, got, scratch)
			}
		}
	}
}

// TestDerivedTraceSizeFollowsLiveCollection is the same property on the
// server path: a Source, a Derived over it, and a late query importing the
// Derived, with queries coming and going while the collection churns.
func TestDerivedTraceSizeFollowsLiveCollection(t *testing.T) {
	const n = 40
	for _, workers := range oracleWorkers {
		for _, epochs := range []int{n, 4 * n} {
			tag := fmt.Sprintf("derived/w%d/%d epochs", workers, epochs)
			s := server.New(workers)
			src, err := server.NewSource(s, "edges", u64)
			if err != nil {
				t.Fatal(err)
			}
			swapped, err := server.InstallDerived(s, "swapped", u64,
				func(w *timely.Worker, g *timely.Graph) (dd.Collection[uint64, uint64], func()) {
					imported := src.ImportInto(g)
					return dd.Map(dd.Flatten(imported), func(k, v uint64) (uint64, uint64) { return v, k }), imported.Cancel
				})
			if err != nil {
				t.Fatal(err)
			}

			// late installs a query that flattens the derived arrangement (and
			// joins and counts over both imports, so that it holds read handles
			// on both traces), noting the traces behind the imports, and
			// returns what the flattening captured.
			srcAgents := make([]*core.TraceAgent[uint64, uint64], workers)
			derAgents := make([]*core.TraceAgent[uint64, uint64], workers)
			late := func(name string) (*server.Query, *dd.Captured[uint64, uint64]) {
				cap := &dd.Captured[uint64, uint64]{}
				q, err := s.Install(name, func(w *timely.Worker, g *timely.Graph) server.Built {
					base, der := src.ImportInto(g), swapped.ImportInto(g)
					srcAgents[w.Index()], derAgents[w.Index()] = base.Agent, der.Agent
					dd.JoinCore(base, der, "join", func(k, v1, v2 uint64) (uint64, uint64) { return v1, v2 })
					dd.CountCore(base)
					dd.CountCore(der)
					out := dd.Flatten(der)
					dd.Capture(out, cap)
					return server.Built{Probe: dd.Probe(out), Teardown: func() { base.Cancel(); der.Cancel() }}
				})
				if err != nil {
					t.Fatal(err)
				}
				return q, cap
			}

			h := churnHistory(epochs)
			var sealed uint64
			for e := uint64(0); e < uint64(epochs); e++ {
				var upds []core.Update[uint64, uint64]
				for _, op := range h.Ops {
					if op.Epoch == e {
						upds = append(upds, core.Update[uint64, uint64]{Key: op.Key, Val: op.Val, Diff: op.Diff})
					}
				}
				if err := src.Update(upds); err != nil {
					t.Fatal(err)
				}
				if sealed, err = src.Advance(); err != nil {
					t.Fatal(err)
				}
				// One seal per epoch: a driver left to run ahead would have the
				// workers seal several epochs as one uncompacted batch, which is
				// a property of the driver, not of the traces.
				if err := src.Sync(); err != nil {
					t.Fatal(err)
				}
				if e%8 == 3 { // a reader that comes and goes must leave nothing behind
					q, _ := late(fmt.Sprintf("passing-%d", e))
					q.WaitDone(lattice.Ts(sealed))
					q.Uninstall()
				}
			}
			if !swapped.Query().WaitDone(lattice.Ts(sealed)) {
				t.Fatal("server closed early")
			}

			// The late snapshot import equals the from-scratch collection. Its
			// history sits at the compaction frontier, which one more (empty)
			// epoch puts behind the probe.
			q, cap := late("late")
			if sealed, err = src.Advance(); err != nil {
				t.Fatal(err)
			}
			if !q.WaitDone(lattice.Ts(sealed)) {
				t.Fatal("server closed early")
			}
			want := map[[2]any]core.Diff{}
			for kv, d := range NetAt(h, uint64(epochs-1)) {
				want[[2]any{kv[1], kv[0]}] = d
			}
			diffMaps(t, tag+"/late import", -1, cap.At(lattice.Ts(sealed)), want)
			q.Uninstall()

			var mu sync.Mutex
			sizes := map[string]int{}
			s.Cluster().PostEach(func(w *timely.Worker) {
				mu.Lock()
				defer mu.Unlock()
				for name, agent := range map[string]*core.TraceAgent[uint64, uint64]{
					"source": srcAgents[w.Index()], "derived": derAgents[w.Index()]} {
					for agent.Spine().Work(1 << 30) {
					}
					sizes[name] += agent.Spine().UpdateCount()
				}
			}).Wait()
			for name, size := range sizes {
				if bound := 8*churnLive + 64*workers; size > bound {
					t.Errorf("%s/%s: trace holds %d updates for %d live records (bound %d)",
						tag, name, size, churnLive, bound)
				}
			}
			swapped.Uninstall()
			s.Close()
		}
	}
}
