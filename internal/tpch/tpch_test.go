package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// runQuery loads the full instance at epoch 0 and returns the query result.
func runQuery(t *testing.T, workers int, d *Data, q QueryFunc) map[uint64]Vals {
	t.Helper()
	cap := &dd.Captured[uint64, Vals]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var in *Inputs
		w.Dataflow(func(g *timely.Graph) {
			inputs, colls := NewInputs(g)
			in = inputs
			out := q(colls)
			dd.Capture(out, cap)
		})
		if w.Index() == 0 {
			in.LoadStatic(d)
			in.LoadOrders(d, 0, len(d.Orders))
		}
		in.CloseAll()
		w.Drain()
	})
	return capToMap(t, cap, lattice.Ts(0))
}

func capToMap(t *testing.T, cap *dd.Captured[uint64, Vals], at lattice.Time) map[uint64]Vals {
	t.Helper()
	out := map[uint64]Vals{}
	for kv, diff := range cap.At(at) {
		if diff != 1 {
			t.Fatalf("result row %v has multiplicity %d", kv, diff)
		}
		out[kv[0].(uint64)] = kv[1].(Vals)
	}
	return out
}

func compare(t *testing.T, q int, got, want map[uint64]Vals) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("Q%d: missing group %d (want %v); got %d rows, want %d", q, k, w, len(got), len(want))
		}
		if g != w {
			t.Fatalf("Q%d group %d: got %v want %v", q, k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("Q%d: spurious group %d = %v", q, k, got[k])
		}
	}
}

func TestAllQueriesMatchOracle(t *testing.T) {
	d := Generate(0.002, 42)
	for q := 1; q <= 22; q++ {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			got := runQuery(t, 1, d, Queries[q])
			want := Oracle(q, d)
			compare(t, q, got, want)
		})
	}
}

func TestSelectedQueriesMultiWorker(t *testing.T) {
	d := Generate(0.002, 43)
	for _, q := range []int{1, 3, 5, 9, 13, 15, 18, 20, 21, 22} {
		got := runQuery(t, 3, d, Queries[q])
		compare(t, q, got, Oracle(q, d))
	}
}

// TestSparseQueriesNonEmpty holds Q20 and Q21 to answers that have rows:
// at the seed the other tests use their oracles are empty, which a plan
// that drops right answers also matches. Seed 45 gives each one row.
func TestSparseQueriesNonEmpty(t *testing.T) {
	d := Generate(0.002, 45)
	for _, q := range []int{20, 21} {
		want := Oracle(q, d)
		if len(want) == 0 {
			t.Fatalf("Q%d: the oracle has no rows at this seed; the test holds nothing", q)
		}
		for _, workers := range []int{1, 3} {
			compare(t, q, runQuery(t, workers, d, Queries[q]), want)
		}
	}
}

// prefix returns a copy of d with only the first n orders (and their items).
func prefix(d *Data, n int) *Data {
	return &Data{
		Suppliers: d.Suppliers, Customers: d.Customers,
		Parts: d.Parts, PartSupps: d.PartSupps,
		Orders: d.Orders[:n], Items: d.Items[:d.itemsFrom(uint64(n+1))],
	}
}

// TestIncrementalStreaming: orders arrive in chunks across epochs; at every
// epoch the maintained result must equal the oracle on the prefix.
func TestIncrementalStreaming(t *testing.T) {
	d := Generate(0.002, 45)
	n := len(d.Orders)
	chunks := []int{n / 3, 2 * n / 3, n}
	for _, q := range []int{1, 3, 4, 6, 13, 15, 18, 21} {
		cap := &dd.Captured[uint64, Vals]{}
		timely.Execute(2, func(w *timely.Worker) {
			var in *Inputs
			var probe *timely.Probe
			w.Dataflow(func(g *timely.Graph) {
				inputs, colls := NewInputs(g)
				in = inputs
				out := Queries[q](colls)
				dd.Capture(out, cap)
				probe = dd.Probe(out)
			})
			if w.Index() == 0 {
				in.LoadStatic(d)
				lo := 0
				for e, hi := range chunks {
					in.LoadOrders(d, lo, hi)
					lo = hi
					in.AdvanceAll(uint64(e + 1))
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
				}
			}
			in.CloseAll()
			w.Drain()
		})
		for e, hi := range chunks {
			got := capToMap(t, cap, lattice.Ts(uint64(e)))
			want := Oracle(q, prefix(d, hi))
			compare(t, q, got, want)
		}
	}
}

// TestGeneratorPinned pins the generated data to a digest: the generator
// draws every value in one fixed order, so a change that adds, drops or
// reorders a draw shows here (the digest is Generate(0.01, 1) at commit
// a6f959d).
func TestGeneratorPinned(t *testing.T) {
	const want = "aa95f0dc39c01d239ab29a8310b47d42ca509ffe54c092c0f6e3d2e4a36cb361"
	d := Generate(0.01, 1)
	h := sha256.New()
	fmt.Fprint(h, d.Suppliers, d.Customers, d.Parts, d.PartSupps, d.Orders, d.Items)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Generate(0.01, 1) hashes to %s, want %s", got, want)
	}
}

// without returns a copy of d without the orders whose keys are in gone, and
// without their lineitems.
func without(d *Data, gone map[uint64]bool) *Data {
	out := &Data{Suppliers: d.Suppliers, Customers: d.Customers, Parts: d.Parts, PartSupps: d.PartSupps}
	for _, o := range d.Orders {
		if !gone[o.OrderKey] {
			out.Orders = append(out.Orders, o)
		}
	}
	for _, l := range d.Items {
		if !gone[l.OrderKey] {
			out.Items = append(out.Items, l)
		}
	}
	return out
}

// retract sends the removal of every order in keys and of its lineitems.
func retract(in *Inputs, d *Data, keys []uint64) {
	for _, k := range keys {
		in.Orders.Remove(k, d.Orders[k-1])
		for _, l := range d.itemsOf(k) {
			in.Items.Remove(k, l)
		}
	}
}

// TestAggregatesUnderRetraction: Q03's per-order Sum and Q15's two-level
// argmax under deletions. The orders stream in over three epochs; then every
// order holding a window lineitem of the top supplier is retracted, so the
// argmax must move to a runner-up, and then a seeded tenth of the rest. At
// every epoch the maintained result must equal the oracle on what remains.
func TestAggregatesUnderRetraction(t *testing.T) {
	d := Generate(0.002, 47)
	n := len(d.Orders)
	top := uint64(0)
	for sk := range Oracle(15, d) {
		top = sk
	}
	var topOrders, others []uint64
	for _, o := range d.Orders {
		hit := false
		for _, l := range d.itemsOf(o.OrderKey) {
			hit = hit || (l.SuppKey == top && l.ShipDate >= q15Lo && l.ShipDate < q15Hi)
		}
		if hit {
			topOrders = append(topOrders, o.OrderKey)
		}
	}
	gone := map[uint64]bool{}
	for _, k := range topOrders {
		gone[k] = true
	}
	r := rand.New(rand.NewSource(47))
	for _, i := range r.Perm(n)[:n/10] {
		if k := uint64(i + 1); !gone[k] {
			others = append(others, k)
		}
	}

	// The input at the end of each epoch: three insert epochs, two retract.
	states := []*Data{prefix(d, n/3), prefix(d, 2*n/3), d, without(d, gone)}
	for _, k := range others {
		gone[k] = true
	}
	states = append(states, without(d, gone))

	for _, q := range []int{3, 15} {
		for _, workers := range []int{1, 2} {
			cap := &dd.Captured[uint64, Vals]{}
			timely.Execute(workers, func(w *timely.Worker) {
				var in *Inputs
				var probe *timely.Probe
				w.Dataflow(func(g *timely.Graph) {
					inputs, colls := NewInputs(g)
					in = inputs
					out := Queries[q](colls)
					dd.Capture(out, cap)
					probe = dd.Probe(out)
				})
				if w.Index() == 0 {
					in.LoadStatic(d)
					for e := range states {
						switch e {
						case 0, 1, 2:
							in.LoadOrders(d, e*n/3, (e+1)*n/3)
						case 3:
							retract(in, d, topOrders)
						case 4:
							retract(in, d, others)
						}
						in.AdvanceAll(uint64(e + 1))
						w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(e))) })
					}
				}
				in.CloseAll()
				w.Drain()
			})
			for e, st := range states {
				compare(t, q, capToMap(t, cap, lattice.Ts(uint64(e))), Oracle(q, st))
			}
			if q == 15 {
				if _, ok := capToMap(t, cap, lattice.Ts(3))[top]; ok {
					t.Fatalf("Q15 still names supplier %d after its window lineitems were retracted", top)
				}
			}
		}
	}
}

// streamQ streams d's orders with their lineitems into query q on one
// worker, perEpoch orders an epoch (the static relations go with the first),
// and returns the number of epochs streamed.
func streamQ(d *Data, q QueryFunc, perEpoch int) (epochs int) {
	timely.Execute(1, func(w *timely.Worker) {
		var in *Inputs
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			inputs, colls := NewInputs(g)
			in = inputs
			probe = dd.Probe(q(colls))
		})
		in.LoadStatic(d)
		for lo := 0; lo < len(d.Orders); lo += perEpoch {
			in.LoadOrders(d, lo, lo+perEpoch)
			epochs++
			in.AdvanceAll(uint64(epochs))
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(uint64(epochs - 1))) })
		}
		in.CloseAll()
		w.Drain()
	})
	return epochs
}

// q15Counted is Q15 with a reducer that adds the updates it reads to *reads.
func q15Counted(reads *int64) QueryFunc {
	return func(c *Collections) dd.Collection[uint64, Vals] {
		return q15(c, func(k uint64, in []dd.ValDiff[[2]int64], out *[]dd.ValDiff[[2]int64]) {
			*reads += int64(len(in))
			argmax(k, in, out)
		})
	}
}

// q15ReadsPerEpoch streams every order of d into Q15, 100 an epoch on one
// worker, and returns the updates its reducers read per epoch.
func q15ReadsPerEpoch(d *Data) float64 {
	var reads int64
	epochs := streamQ(d, q15Counted(&reads), 100)
	return float64(reads) / float64(epochs)
}

// TestQ15ReadsPerEpoch is the §6.1 claim as a count: the hierarchical argmax
// re-reads the groups an epoch touched and the group winners, not every
// supplier. At 1 600 suppliers an epoch reads at most a quarter of them, and
// across the 8× range from 200 suppliers the reads grow at most 4× (they
// read 106.4 and 380.1). A flat argmax reads nearly every supplier every
// epoch: Q15 with a single group reads 191.6 and 1 536.7 and fails both
// bounds. The counts are exact: a second run reads the same (checked at 200
// suppliers, where a run is cheap).
func TestQ15ReadsPerEpoch(t *testing.T) {
	small, large := Generate(0.02, 1), Generate(0.16, 1)
	rs, rl := q15ReadsPerEpoch(small), q15ReadsPerEpoch(large)
	t.Logf("Q15 reads per epoch: %.1f at %d suppliers, %.1f at %d", rs, len(small.Suppliers), rl, len(large.Suppliers))
	if again := q15ReadsPerEpoch(small); again != rs {
		t.Fatalf("reads per epoch at %d suppliers differ between runs: %.1f then %.1f", len(small.Suppliers), rs, again)
	}
	if n := float64(len(large.Suppliers)); rl > n/4 {
		t.Errorf("Q15 reads %.1f updates per epoch at %.0f suppliers, more than a quarter of them", rl, n)
	}
	if rl > 4*rs {
		t.Errorf("Q15 reads grew %.2f× (%.1f → %.1f) across 8× the suppliers; the bound is 4×", rl/rs, rs, rl)
	}
}

// BenchmarkStream is tpch_stream's legs in-tree: each op installs the query
// on one worker and streams every order of SF 0.02, 100 orders an epoch.
// It reports epochs/s and B/op per query, and Q15 its reducers' reads per
// epoch.
func BenchmarkStream(b *testing.B) {
	d := Generate(0.02, 1)
	for _, q := range []int{1, 3, 6, 15} {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			var reads int64
			query := Queries[q]
			if q == 15 {
				query = q15Counted(&reads)
			}
			b.ReportAllocs()
			epochs := 0
			for i := 0; i < b.N; i++ {
				epochs += streamQ(d, query, 100)
			}
			b.ReportMetric(float64(epochs)/b.Elapsed().Seconds(), "epochs/s")
			if q == 15 {
				b.ReportMetric(float64(reads)/float64(epochs), "reads/epoch")
			}
		})
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(0.002, 7)
	b := Generate(0.002, 7)
	if len(a.Items) != len(b.Items) || len(a.Orders) != len(b.Orders) {
		t.Fatalf("sizes differ")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs", i)
		}
	}
	if len(a.Items) < len(a.Orders) {
		t.Fatalf("too few items")
	}
	// Sanity: items grouped and sorted by order key for itemsOf.
	for i := 1; i < len(a.Items); i++ {
		if a.Items[i].OrderKey < a.Items[i-1].OrderKey {
			t.Fatalf("items not sorted by order")
		}
	}
	if got := a.itemsOf(1); len(got) == 0 || got[0].OrderKey != 1 {
		t.Fatalf("itemsOf broken")
	}
}
