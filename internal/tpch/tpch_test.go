package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	for _, q := range []int{1, 3, 5, 9, 13, 15, 18, 21, 22} {
		got := runQuery(t, 3, d, Queries[q])
		compare(t, q, got, Oracle(q, d))
	}
}

func TestQ15HierarchicalMatchesFlat(t *testing.T) {
	d := Generate(0.002, 44)
	flat := runQuery(t, 1, d, Q15)
	hier := runQuery(t, 2, d, Q15Hierarchical)
	compare(t, 15, hier, flat)
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
