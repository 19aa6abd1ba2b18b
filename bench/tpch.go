package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/tpch"
)

// tpchLegs are the queries tpch_stream runs in turn: a grouped aggregate
// (Q01), a three-way join (Q03), a filter-and-sum (Q06) and a global argmax
// over a grouped aggregate (Q15).
var tpchLegs = []int{1, 3, 6, 15}

// itemOffsets returns, for order index i, the index of its first lineitem;
// the generator emits items grouped by order, in order-key order.
func itemOffsets(d *tpch.Data) []int {
	off := make([]int, len(d.Orders)+1)
	j := 0
	for i := range d.Orders {
		off[i] = j
		key := uint64(i + 1)
		for j < len(d.Items) && d.Items[j].OrderKey == key {
			j++
		}
	}
	off[len(d.Orders)] = j
	return off
}

// tpchPrefix is the instance holding only the first n orders and their items:
// what the oracle sees after n orders have been streamed.
func tpchPrefix(d *tpch.Data, off []int, n int) *tpch.Data {
	return &tpch.Data{
		Suppliers: d.Suppliers, Customers: d.Customers, Parts: d.Parts, PartSupps: d.PartSupps,
		Orders: d.Orders[:n], Items: d.Items[:off[n]],
	}
}

type tpchLegResult struct {
	installs latencies     // build dataflow + load static relations -> first complete result
	elapsed  time.Duration // measured streaming time, heap sampling excluded
	tuples   int64
	epochs   int
	orders   int
	heapMB   float64
	lat      latencies
}

// runTPCH is the tpch_stream workload (Fig 4): closed loop, one driver.
func runTPCH(rc *runCtx) error {
	sz := rc.cfg.Sizes.TPCH
	var d *tpch.Data
	var off []int
	rc.set("setup_s", timeSetup(sz.SetupReps, func() {
		d = tpch.Generate(sz.SF, rc.cfg.Seed)
		off = itemOffsets(d)
	}, func() { d, off = nil, nil }))

	// The generated instance stays live for the whole run; it is the
	// harness's, not the system's, so heap_live_mb is counted above it.
	baseHeap := heapLiveMB()
	mem := markMem()
	var tuples int64
	var elapsed time.Duration
	var epochs, orders int
	var heap float64
	var epochLat latencies
	installLat := classLatencies{byClass: map[int]*latencies{}} // a class per query
	for _, q := range tpchLegs {
		leg, err := tpchLeg(rc, d, off, q, rc.cfg.Seconds/float64(len(tpchLegs)))
		if err != nil {
			return err
		}
		tuples += leg.tuples
		elapsed += leg.elapsed
		epochs += leg.epochs
		orders += leg.orders
		heap += (leg.heapMB - baseHeap) / float64(len(tpchLegs))
		epochLat.ms = append(epochLat.ms, leg.lat.ms...)
		installLat.byClass[q] = &leg.installs
		rc.set(fmt.Sprintf("dd.q%02d_tuples_per_s", q), float64(leg.tuples)/leg.elapsed.Seconds())
	}
	rc.set("throughput_tuples_per_s", float64(tuples)/elapsed.Seconds())
	rc.setLatency("epoch_latency", &epochLat, "p95", 95)
	rc.setLatency("install_latency", &installLat, "p90", 90)
	rc.set("heap_live_mb", heap)
	rc.count("tuples", tuples)
	rc.count("epochs", int64(epochs))
	rc.count("orders", int64(orders))
	rc.count("installs", int64(installLat.n()))
	if rc.cfg.Trace {
		rc.reportMem(mem, tuples)
		rc.set("bench.trace_overhead_frac", float64(rc.tr.count())*spanCostNs()/float64(elapsed))
		tpchProbes(rc, d)
	}
	return nil
}

// tpchDataflow builds query q over fresh relation inputs on one worker; with
// a view, the query's output is folded into it.
func tpchDataflow(w *timely.Worker, q int, view *dd.View[uint64, tpch.Vals]) (*tpch.Inputs, *timely.Probe) {
	var in *tpch.Inputs
	var probe *timely.Probe
	w.Dataflow(func(g *timely.Graph) {
		inputs, colls := tpch.NewInputs(g)
		in = inputs
		out := tpch.Queries[q](colls)
		if view != nil {
			dd.Watch(out, view)
		}
		probe = dd.Probe(out)
	})
	return in, probe
}

// tpchLeg builds one query's dataflow, loads the static relations (the
// install), then streams orders and lineitems an epoch at a time, waiting on
// the query's probe after each, and checks the final output against the
// oracle on the streamed prefix.
func tpchLeg(rc *runCtx, d *tpch.Data, off []int, q int, seconds float64) (*tpchLegResult, error) {
	sz := rc.cfg.Sizes.TPCH
	leg := &tpchLegResult{}
	view := &dd.View[uint64, tpch.Vals]{}
	name := fmt.Sprintf("dd.q%02d", q)
	legSpan := rc.tr.begin(name+"_leg", -1, -1)
	// stream runs the leg's warm-up and timed epochs on worker 0.
	stream := func(w *timely.Worker, in *tpch.Inputs, probe *timely.Probe) {
		// streamEpoch introduces the next OrdersPerEpoch orders with their
		// lineitems as one epoch and waits for the query to complete it.
		epoch, next := uint64(1), 0
		streamEpoch := func() (tuples int64) {
			lo, hi := next, min(next+sz.OrdersPerEpoch, len(d.Orders))
			sp := rc.tr.begin("timely.input_advance", legSpan, int64(epoch))
			ts := lattice.Ts(epoch)
			ou := make([]core.Update[uint64, tpch.Order], 0, hi-lo)
			for _, r := range d.Orders[lo:hi] {
				ou = append(ou, core.Update[uint64, tpch.Order]{Key: r.OrderKey, Val: r, Time: ts, Diff: 1})
			}
			iu := make([]core.Update[uint64, tpch.LineItem], 0, off[hi]-off[lo])
			for _, r := range d.Items[off[lo]:off[hi]] {
				iu = append(iu, core.Update[uint64, tpch.LineItem]{Key: r.OrderKey, Val: r, Time: ts, Diff: 1})
			}
			in.Orders.SendSlice(ou)
			in.Items.SendSlice(iu)
			epoch++
			in.AdvanceAll(epoch)
			rc.tr.end(sp)
			sp = rc.tr.begin(name+"_step", legSpan, int64(epoch-1))
			w.StepUntil(func() bool { return probe.Done(ts) })
			rc.tr.end(sp)
			next = hi
			return int64(hi - lo + off[hi] - off[lo])
		}

		// Warm-up, untimed: the first epochs fill the arrangements, and the
		// live heap is sampled at fixed epochs in here, where the forced
		// collections cannot disturb the measured phase and where the state
		// sampled does not depend on how fast the machine streams. (The
		// generated instance keeps the heap so large that the collector's own
		// cycles are too rare to sample, as durable_spill does.)
		var heaps []float64
		for i := 1; i <= sz.WarmupEpochs && next < len(d.Orders); i++ {
			streamEpoch()
			if i >= sz.HeapFromEpoch && (i-sz.HeapFromEpoch)%sz.HeapEvery == 0 {
				heaps = append(heaps, heapLiveMB())
			}
		}
		if len(heaps) == 0 {
			heaps = append(heaps, heapLiveMB())
		}
		leg.heapMB = median(heaps)

		deadline := time.Duration(seconds * float64(time.Second))
		start := time.Now()
		for next < len(d.Orders) {
			if rc.cfg.MaxOps > 0 {
				if leg.epochs >= rc.cfg.MaxOps {
					break
				}
			} else if time.Since(start) >= deadline {
				break
			}
			rc.attempt(1)
			e0 := time.Now()
			leg.tuples += streamEpoch()
			leg.lat.add(time.Since(e0))
			leg.epochs++
		}
		leg.elapsed = time.Since(start)
		leg.orders = next
	}

	// The query is installed InstallsPerLeg times; all but the last dataflow
	// are torn down again once their first result is complete, the last one
	// goes on to stream.
	for i := 1; i <= sz.InstallsPerLeg; i++ {
		last := i == sz.InstallsPerLeg
		rc.attempt(1)
		t0 := time.Now()
		timely.Execute(workers(), func(w *timely.Worker) {
			var into *dd.View[uint64, tpch.Vals]
			if last {
				into = view
			}
			in, probe := tpchDataflow(w, q, into)
			if w.Index() != 0 {
				in.AdvanceAll(1)
				in.CloseAll()
				w.Drain()
				return
			}
			sp := rc.tr.begin(name+"_install", legSpan, -1)
			in.LoadStatic(d)
			in.AdvanceAll(1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
			rc.tr.end(sp)
			leg.installs.add(time.Since(t0))
			if last {
				stream(w, in, probe)
			}
			in.CloseAll()
			w.Drain()
		})
	}
	rc.tr.end(legSpan)
	if leg.epochs == 0 || leg.elapsed <= 0 {
		return nil, fmt.Errorf("tpch_stream Q%02d streamed no epoch", q)
	}

	// Oracle: the maintained output must equal the naive evaluation over the
	// streamed prefix.
	rc.attempt(1)
	want := tpch.Oracle(q, tpchPrefix(d, off, leg.orders))
	got := view.Snapshot()
	if len(got) != len(want) {
		rc.fail("Q%02d: %d output rows, oracle has %d", q, len(got), len(want))
		return leg, nil
	}
	for rec, diff := range got {
		if w, ok := want[rec.Key]; !ok || w != rec.Val || diff != 1 {
			rc.fail("Q%02d: group %d = %v x%d, oracle says %v (present %v)", q, rec.Key, rec.Val, diff, w, ok)
			break
		}
	}
	return leg, nil
}
