package tpch

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// TestLoadStaticStampsOwnEpoch: each relation goes out at its own input's
// epoch, the epoch the input stamps its message with. Here the customer
// input runs three epochs ahead of the others, so Q03 has no customers, and
// no result, until epoch 3, and equals the oracle from then on. Customers
// stamped with another input's epoch 0 inside a message at 3 would make
// SemiJoin send at a time it holds no capability for, and panic.
func TestLoadStaticStampsOwnEpoch(t *testing.T) {
	d := Generate(0.002, 46)
	cap := &dd.Captured[uint64, Vals]{}
	timely.Execute(1, func(w *timely.Worker) {
		var in *Inputs
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			inputs, colls := NewInputs(g)
			in = inputs
			out := Q3(colls)
			dd.Capture(out, cap)
			probe = dd.Probe(out)
		})
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("customer input three epochs ahead: %v", r)
			}
		}()
		in.Customer.AdvanceTo(3)
		in.LoadStatic(d)
		in.LoadOrders(d, 0, len(d.Orders))
		in.AdvanceAll(4)
		w.StepUntil(func() bool { return probe.Done(lattice.Ts(3)) })
		in.CloseAll()
		w.Drain()
	})
	if t.Failed() {
		return
	}
	if got := capToMap(t, cap, lattice.Ts(2)); len(got) != 0 {
		t.Fatalf("Q03 has %d rows at epoch 2, before any customer arrives", len(got))
	}
	compare(t, 3, capToMap(t, cap, lattice.Ts(3)), Oracle(3, d))
}

// staticInstance holds only the four static relations, at scale factor sf;
// orders and lineitems are empty (LoadStatic does not read them). Only keys
// are filled in: what LoadStatic allocates does not depend on the rest.
func staticInstance(sf float64) *Data {
	d := &Data{
		Suppliers: make([]Supplier, int(sf*sfSupplier)),
		Customers: make([]Customer, int(sf*sfCustomer)),
		Parts:     make([]Part, int(sf*sfPart)),
		PartSupps: make([]PartSupp, 4*int(sf*sfPart)),
	}
	for i := range d.Suppliers {
		d.Suppliers[i].SuppKey = uint64(i + 1)
	}
	for i := range d.Customers {
		d.Customers[i].CustKey = uint64(i + 1)
	}
	for i := range d.Parts {
		d.Parts[i].PartKey = uint64(i + 1)
	}
	for i := range d.PartSupps {
		d.PartSupps[i].PartKey = uint64(i/4 + 1)
	}
	return d
}

// loadStaticAlloc builds query q on one worker and returns the bytes the
// process allocates across LoadStatic of d.
func loadStaticAlloc(t *testing.T, d *Data, q QueryFunc) uint64 {
	t.Helper()
	var allocated uint64
	timely.Execute(1, func(w *timely.Worker) {
		var in *Inputs
		w.Dataflow(func(g *timely.Graph) {
			inputs, colls := NewInputs(g)
			in = inputs
			dd.Probe(q(colls))
		})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		in.LoadStatic(d)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		in.CloseAll()
		w.Drain()
	})
	return allocated
}

// TestLoadStaticBuildsOnlyConnected: LoadStatic builds only the relations
// the dataflow reads, each once at its exact size. At the benchmark's scale
// factor (0.2), Q01 reads no static relation and LoadStatic allocates
// nothing to speak of (growing all four relations' 232 000 updates, ≈ 21.6
// MB, by append would allocate ≈ 104 MB); Q03 reads the 30 000 customers,
// and LoadStatic allocates their one exactly sized update slice and the
// pipeline message that carries it.
// Measured on go1.24/amd64: 0 bytes under Q01, and 3 744 bytes over the
// customers' 2 880 000 under Q03, 3 584 of them the rounding of one large
// allocation up to whole 8 KiB pages; the margin is 16 KiB. A count, not a
// timing.
func TestLoadStaticBuildsOnlyConnected(t *testing.T) {
	d := staticInstance(0.2)
	q01, q03 := loadStaticAlloc(t, d, Q1), loadStaticAlloc(t, d, Q3)
	exact := uint64(len(d.Customers)) * uint64(unsafe.Sizeof(core.Update[uint64, Customer]{}))
	t.Logf("LoadStatic allocated %d bytes under Q01, %d under Q03 (customer updates: %d)", q01, q03, exact)
	if q01 >= 64<<10 {
		t.Errorf("LoadStatic under Q01, which reads no static relation, allocated %d bytes", q01)
	}
	const margin = 16 << 10
	if q03 < exact || q03 > exact+margin {
		t.Errorf("LoadStatic under Q03 allocated %d bytes; the %d customers' updates take %d (margin %d)",
			q03, len(d.Customers), exact, margin)
	}
}

// BenchmarkInstall is install → first complete result, as tpch_stream times
// it: build the query's dataflow on one worker, LoadStatic, and step until
// epoch 0 is complete. allocs/op and B/op are the figures to watch; the
// static relations are the whole of the input, so a query pays for the
// relations it reads.
func BenchmarkInstall(b *testing.B) {
	d := Generate(0.01, 1)
	for _, q := range []int{1, 3, 6, 15} {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				timely.Execute(1, func(w *timely.Worker) {
					var in *Inputs
					var probe *timely.Probe
					w.Dataflow(func(g *timely.Graph) {
						inputs, colls := NewInputs(g)
						in = inputs
						probe = dd.Probe(Queries[q](colls))
					})
					in.LoadStatic(d)
					in.AdvanceAll(1)
					w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
					in.CloseAll()
					w.Drain()
				})
			}
		})
	}
}
