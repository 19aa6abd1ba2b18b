package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/timely"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// Layer probes: short single-layer runs over the workload's own generated
// inputs, behind the per-layer metrics that spans around harness calls cannot
// give (the dataflow layers all run inside one StepUntil). Each is a fixed
// amount of work, repeated probeReps times; the median is reported.

const probeReps = 3

func medianOf(n int, f func() float64) float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = f()
	}
	return median(vals)
}

// rate is n things per second over the time since start.
func rate(n int, start time.Time) float64 { return float64(n) / time.Since(start).Seconds() }

// ---- tpch_stream's layers: timely exchange, core arrange/merge, dd reduce ----

const (
	probeItems = 200000 // lineitems a probe replays
	probeChunk = 4000   // records per epoch or batch
)

func tpchProbes(rc *runCtx, d *tpch.Data) {
	items := d.Items[:min(len(d.Items), probeItems)]
	w := workers()
	x2 := medianOf(probeReps, func() float64 { return exchangeProbe(w, items) })
	rc.set("timely.exchange_records_per_s", x2)
	if runtime.NumCPU() >= 2 { // on one core the ratio would measure time slicing
		x1 := medianOf(probeReps, func() float64 { return exchangeProbe(1, items) })
		rc.set("timely.scaling_w2_over_w1_x", x2/x1)
	}
	rc.set("timely.epoch_overhead_us", medianOf(probeReps, func() float64 { return epochOverheadProbe(w) }))
	rc.set("core.build_batch_tuples_per_s", medianOf(probeReps, func() float64 { return buildBatchProbe(items) }))
	rc.set("core.arrange_records_per_s", medianOf(probeReps, func() float64 { return arrangeProbe(w, items) }))
	rc.set("core.spine_merge_row_tuples_per_s", medianOf(probeReps, func() float64 { return spineMergeProbe(items, false) }))
	rc.set("core.spine_merge_col_tuples_per_s", medianOf(probeReps, func() float64 { return spineMergeProbe(items, true) }))
	rc.set("dd.reduce_keys_per_s", medianOf(probeReps, func() float64 { return reduceProbe(w, items) }))
}

// exchangeDataflow is the least dataflow with an exchange in it: Input ->
// Unary that exchanges by hash and drops what it receives -> probe.
func exchangeDataflow(w *timely.Worker) (in *timely.Input[uint64], probe *timely.Probe) {
	w.Dataflow(func(g *timely.Graph) {
		h, s := timely.NewInput[uint64](g)
		in = h
		sink := timely.Unary[uint64, uint64](s, "drop", core.Mix64, timely.SumID, nil,
			func(ctx *timely.Ctx, in *timely.In[uint64], out *timely.Out[uint64]) {
				in.ForEach(func(stamp []lattice.Time, data []uint64) {})
			})
		probe = timely.NewProbe(sink)
	})
	return in, probe
}

// exchangeProbe: records through exchangeDataflow, nothing else.
// Worker 0 introduces every record; returns records per second.
func exchangeProbe(workers int, items []tpch.LineItem) float64 {
	var out float64
	timely.Execute(workers, func(w *timely.Worker) {
		in, probe := exchangeDataflow(w)
		start := time.Now()
		epoch := uint64(0)
		for lo := 0; lo < len(items); lo += probeChunk {
			if w.Index() == 0 {
				chunk := items[lo:min(lo+probeChunk, len(items))]
				data := make([]uint64, len(chunk))
				for i, it := range chunk {
					data[i] = it.OrderKey*8 + uint64(it.LineNumber)
				}
				in.SendSlice(data)
			}
			epoch++
			in.AdvanceTo(epoch)
			done := lattice.Ts(epoch - 1)
			w.StepUntil(func() bool { return probe.Done(done) })
		}
		if w.Index() == 0 {
			out = rate(len(items), start)
		}
		in.Close()
		w.Drain()
	})
	return out
}

// epochOverheadProbe: an empty AdvanceTo on exchangeDataflow until the probe
// has passed it — the
// progress-tracking and scheduling floor under every epoch. Microseconds.
func epochOverheadProbe(workers int) float64 {
	const epochs = 2000
	var out float64
	timely.Execute(workers, func(w *timely.Worker) {
		in, probe := exchangeDataflow(w)
		start := time.Now()
		for e := uint64(1); e <= epochs; e++ {
			in.AdvanceTo(e)
			done := lattice.Ts(e - 1)
			w.StepUntil(func() bool { return probe.Done(done) })
		}
		if w.Index() == 0 {
			out = float64(time.Since(start).Microseconds()) / epochs
		}
		in.Close()
		w.Drain()
	})
	return out
}

func itemUpdates(items []tpch.LineItem, epoch uint64) []core.Update[uint64, tpch.LineItem] {
	upds := make([]core.Update[uint64, tpch.LineItem], len(items))
	for i, it := range items {
		upds[i] = core.Update[uint64, tpch.LineItem]{Key: it.OrderKey, Val: it, Time: lattice.Ts(epoch), Diff: 1}
	}
	return upds
}

// itemChain builds one batch per chunk of lineitems, epoch i for chunk i.
func itemChain(items []tpch.LineItem, columnar bool) (chain []*core.Batch[uint64, tpch.LineItem], tuples int) {
	fn := tpch.LineItemFuncs(columnar)
	lower := lattice.MinFrontier(1)
	for lo, e := 0, uint64(0); lo < len(items); lo, e = lo+probeChunk, e+1 {
		upper := lattice.NewFrontier(lattice.Ts(e + 1))
		b := core.BuildBatch(fn, itemUpdates(items[lo:min(lo+probeChunk, len(items))], e),
			lower.Clone(), upper, lattice.MinFrontier(1))
		tuples += b.Len()
		chain = append(chain, b)
		lower = upper
	}
	return chain, tuples
}

// buildBatchProbe: core.BuildBatch (sort + consolidate + columnar layout) over
// chunks of lineitem updates. Tuples per second.
func buildBatchProbe(items []tpch.LineItem) float64 {
	chunks := make([][]core.Update[uint64, tpch.LineItem], 0, len(items)/probeChunk+1)
	for lo, e := 0, uint64(0); lo < len(items); lo, e = lo+probeChunk, e+1 {
		chunks = append(chunks, itemUpdates(items[lo:min(lo+probeChunk, len(items))], e))
	}
	fn := tpch.LineItemFuncs(true)
	start := time.Now()
	for e, c := range chunks {
		core.BuildBatch(fn, c, lattice.NewFrontier(lattice.Ts(uint64(e))),
			lattice.NewFrontier(lattice.Ts(uint64(e+1))), lattice.MinFrontier(1))
	}
	return rate(len(items), start)
}

// arrangeProbe: Arrange + probe over streamed lineitems. Records per second.
func arrangeProbe(workers int, items []tpch.LineItem) float64 {
	var out float64
	timely.Execute(workers, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, tpch.LineItem]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			h, c := dd.NewInput[uint64, tpch.LineItem](g)
			in = h
			probe = timely.NewProbe(dd.Arrange(c, tpch.LineItemFuncs(true), "arrange").Stream)
		})
		start := time.Now()
		epoch := uint64(0)
		for lo := 0; lo < len(items); lo += probeChunk {
			if w.Index() == 0 {
				in.SendSlice(itemUpdates(items[lo:min(lo+probeChunk, len(items))], epoch))
			}
			epoch++
			in.AdvanceTo(epoch)
			done := lattice.Ts(epoch - 1)
			w.StepUntil(func() bool { return probe.Done(done) })
		}
		if w.Index() == 0 {
			out = rate(len(items), start)
		}
		in.Close()
		w.Drain()
	})
	return out
}

// spineMergeProbe: Spine.Append plus Work to quiescence over pre-built
// batches, in the row-major or the columnar value layout. Tuples per second.
func spineMergeProbe(items []tpch.LineItem, columnar bool) float64 {
	chain, tuples := itemChain(items, columnar)
	s := core.NewSpine(tpch.LineItemFuncs(columnar), core.MergeDefault)
	h := s.NewHandle()
	start := time.Now()
	for i, b := range chain {
		s.Append(b)
		h.SetLogical(lattice.NewFrontier(lattice.Ts(uint64(i + 1))))
	}
	for s.Work(1 << 30) {
	}
	out := rate(tuples, start)
	h.Drop()
	return out
}

// reduceProbe: CountCore over an arrangement of (order, line) pairs, a wave
// of fresh keys per epoch. Keys per second.
func reduceProbe(workers int, items []tpch.LineItem) float64 {
	var out float64
	timely.Execute(workers, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			h, c := dd.NewInput[uint64, uint64](g)
			in = h
			probe = dd.Probe(dd.CountCore(dd.Arrange(c, core.U64(), "by-order")))
		})
		keys := 0
		start := time.Now()
		epoch := uint64(0)
		for lo := 0; lo < len(items); lo += probeChunk {
			if w.Index() == 0 {
				chunk := items[lo:min(lo+probeChunk, len(items))]
				upds := make([]edgeUpd, len(chunk))
				for i, it := range chunk {
					upds[i] = edgeUpd{Key: it.OrderKey, Val: uint64(it.LineNumber), Time: lattice.Ts(epoch), Diff: 1}
					if i == 0 || chunk[i-1].OrderKey != it.OrderKey {
						keys++
					}
				}
				in.SendSlice(upds)
			}
			epoch++
			in.AdvanceTo(epoch)
			done := lattice.Ts(epoch - 1)
			w.StepUntil(func() bool { return probe.Done(done) })
		}
		if w.Index() == 0 {
			out = rate(keys, start)
		}
		in.Close()
		w.Drain()
	})
	return out
}

// ---- graph_interactive's layers: core cursors and imports, dd join ----

const graphProbeEpochs = 400 // churn epochs a probe replays

func stamped(upds []edgeUpd, epoch uint64) []edgeUpd {
	out := make([]edgeUpd, len(upds))
	for i, u := range upds {
		u.Time = lattice.Ts(epoch)
		out[i] = u
	}
	return out
}

func graphProbes(rc *runCtx, s *graphSetup) {
	churn := s.churn[:min(len(s.churn), graphProbeEpochs)]

	// The edges arrangement as one worker would hold it: the preload, then
	// one batch per churn epoch, merged as the spine sees fit.
	fn := core.U64()
	spine := core.NewSpine(fn, core.MergeDefault)
	h := spine.NewHandle()
	lower := lattice.MinFrontier(1)
	appendEpoch := func(upds []edgeUpd, e uint64) {
		upper := lattice.NewFrontier(lattice.Ts(e + 1))
		spine.Append(core.BuildBatch(fn, stamped(upds, e), lower.Clone(), upper, lattice.MinFrontier(1)))
		h.SetLogical(upper)
		spine.Work(1 << 16)
		lower = upper
	}
	appendEpoch(s.initial, 0)
	for i, c := range churn {
		appendEpoch(c, uint64(i+1))
	}
	rc.set("core.spine_runs", float64(spine.BatchCount()))
	rc.set("core.spine_updates", float64(spine.UpdateCount()))

	// Point seeks through a trace cursor, sorted waves of 1000 (a cursor only
	// moves forward).
	r := rand.New(rand.NewSource(rc.cfg.Seed))
	final := lattice.NewFrontier(lattice.Ts(uint64(len(churn) + 1)))
	rc.set("core.cursor_seek_ns", medianOf(probeReps, func() float64 {
		const waves, perWave = 100, 1000
		keys := make([][]uint64, waves)
		for i := range keys {
			keys[i] = make([]uint64, perWave)
			for j := range keys[i] {
				keys[i][j] = uint64(r.Int63n(int64(s.gen.nodes)))
			}
			sort.Slice(keys[i], func(a, b int) bool { return keys[i][a] < keys[i][b] })
		}
		var sum uint64
		start := time.Now()
		for _, wave := range keys {
			cur := h.CursorThrough(final)
			for _, k := range wave {
				if cur.SeekKey(k) {
					cur.ForUpdates(k, func(v uint64, _ lattice.Time, d core.Diff) { sum += v * uint64(d) })
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / (waves * perWave)
	}))
	h.Drop()

	var importMs, joinRate []float64
	for i := 0; i < probeReps; i++ {
		ms, jr := joinImportProbe(workers(), s, churn, rc.cfg.Seed)
		importMs = append(importMs, ms)
		joinRate = append(joinRate, jr)
	}
	rc.set("core.import_snapshot_ms", median(importMs))
	rc.set("dd.join_probe_tuples_per_s", median(joinRate))
}

// joinImportProbe loads the edges into an arrangement, joins small per-epoch
// key sets against it (JoinCore, small deltas against a big trace; probe
// tuples per second), then installs a second dataflow that imports a snapshot
// of the arrangement (ImportOptions{Snapshot}; milliseconds to complete).
func joinImportProbe(workers int, s *graphSetup, churn [][]edgeUpd, seed int64) (importMs, joinRate float64) {
	const keysPerEpoch = 64
	timely.Execute(workers, func(w *timely.Worker) {
		var ein *dd.InputCollection[uint64, uint64]
		var qin *dd.InputCollection[uint64, core.Unit]
		var aE *core.Arranged[uint64, uint64]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			eh, ec := dd.NewInput[uint64, uint64](g)
			qh, qc := dd.NewInput[uint64, core.Unit](g)
			ein, qin = eh, qh
			aE = dd.Arrange(ec, core.U64(), "edges")
			aQ := dd.Arrange(qc, core.U64Key(), "keys")
			probe = dd.Probe(dd.JoinCore(aE, aQ, "probe",
				func(k, v uint64, _ core.Unit) (uint64, uint64) { return k, v }))
		})
		step := func(epoch uint64) {
			ein.AdvanceTo(epoch)
			qin.AdvanceTo(epoch)
			done := lattice.Ts(epoch - 1)
			w.StepUntil(func() bool { return probe.Done(done) })
		}
		if w.Index() == 0 {
			ein.SendSlice(stamped(s.initial, 0))
		}
		step(1)
		r := rand.New(rand.NewSource(seed))
		start := time.Now()
		for i := range churn {
			e := uint64(i + 1)
			if w.Index() == 0 {
				keys := make([]core.Update[uint64, core.Unit], keysPerEpoch)
				for j := range keys {
					keys[j] = core.Update[uint64, core.Unit]{Key: uint64(r.Int63n(int64(s.gen.nodes))), Time: lattice.Ts(e), Diff: 1}
				}
				qin.SendSlice(keys)
			}
			step(e + 1)
		}
		if w.Index() == 0 {
			joinRate = rate(len(churn)*keysPerEpoch, start)
		}

		start = time.Now()
		var iprobe *timely.Probe
		var imported *core.Arranged[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			imported = core.ImportOpts(g, aE.Agent, "import", core.ImportOptions{Snapshot: true})
			iprobe = timely.NewProbe(imported.Stream)
		})
		// The snapshot sits at the arrangement's compaction frontier, which is
		// at most the open epoch: it is complete once that epoch seals.
		open := uint64(len(churn) + 1)
		step(open + 1)
		w.StepUntil(func() bool { return iprobe.Done(lattice.Ts(open)) })
		if w.Index() == 0 {
			importMs = float64(time.Since(start).Microseconds()) / 1e3
		}
		imported.Cancel()
		ein.Close()
		qin.Close()
		w.Drain()
	})
	return importMs, joinRate
}

// ---- wire_datalog's layers: dd iterate, plan ----

func wireProbes(rc *runCtx, g *dagGen, qs []wireQuery) {
	edges := make([]edgeUpd, len(g.live))
	for i, e := range g.live {
		edges[i] = edgeUpd{Key: e.Src, Val: e.Dst, Time: lattice.Ts(0), Diff: 1}
	}
	// Batch transitive closure by Iterate over the workload's graph.
	rc.set("dd.iterate_tc_ms", medianOf(probeReps, func() float64 {
		var ms float64
		timely.Execute(workers(), func(w *timely.Worker) {
			var in *dd.InputCollection[uint64, uint64]
			var probe *timely.Probe
			w.Dataflow(func(gr *timely.Graph) {
				h, c := dd.NewInput[uint64, uint64](gr)
				in = h
				probe = dd.Probe(datalog.TC(c))
			})
			start := time.Now()
			if w.Index() == 0 {
				in.SendSlice(append([]edgeUpd(nil), edges...))
			}
			in.Close()
			w.StepUntil(func() bool { return probe.Frontier().Empty() })
			if w.Index() == 0 {
				ms = float64(time.Since(start).Microseconds()) / 1e3
			}
			w.Drain()
		})
		return ms
	}))

	// The plan layer on the program every arriving query ships.
	src := qs[1].text // a restricted tc: rules plus a `?-` directive
	const reps = 300
	var planNs int64
	var root *plan.Node
	start := time.Now()
	for i := 0; i < reps; i++ {
		prog, err := plan.ParseDatalog(src)
		if err != nil {
			rc.fail("plan probe: %v", err)
			return
		}
		r, info, err := plan.Compile(prog)
		if err != nil {
			rc.fail("plan probe: %v", err)
			return
		}
		root = r
		planNs += info.PlanNs
	}
	rc.set("plan.parse_compile_us", float64(time.Since(start).Microseconds())/reps)
	rc.set("plan.planner_us", float64(planNs)/reps/1e3)
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := plan.Decode(plan.Encode(root)); err != nil {
			rc.fail("plan probe: decode: %v", err)
			return
		}
	}
	rc.set("plan.codec_roundtrip_us", float64(time.Since(start).Microseconds())/reps)
}

// ---- durable_spill's layers: wal, block ----

func spillProbes(rc *runCtx, g *spillGen) {
	dir := filepath.Join(rc.cfg.OutDir, fmt.Sprintf("spill-probes-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	fail := func(what string, err error) { rc.fail("%s probe: %v", what, err) }

	// The live window as a chain of batches, one per ingest epoch.
	fn := core.U64()
	var chain []*core.Batch[uint64, uint64]
	var bytes int64
	lower := lattice.MinFrontier(1)
	for e, ins := range g.window {
		upper := lattice.NewFrontier(lattice.Ts(uint64(e + 1)))
		upds := make([]edgeUpd, len(ins))
		for i, kv := range ins {
			upds[i] = edgeUpd{Key: kv[0], Val: kv[1], Time: lattice.Ts(uint64(e)), Diff: 1}
		}
		b := core.BuildBatch(fn, upds, lower.Clone(), upper, lattice.MinFrontier(1))
		chain = append(chain, b)
		bytes += b.ApproxBytes()
		lower = upper
	}
	kc, vc := wal.U64Codec(), wal.U64Codec()
	mb := func(n int64, start time.Time) float64 { return float64(n) / 1e6 / time.Since(start).Seconds() }

	// wal: buffered appends, replay, rotation.
	walDir := filepath.Join(dir, "wal")
	lg, _, err := wal.OpenShard(walDir, kc, vc, wal.Options{Fresh: true})
	if err != nil {
		fail("wal", err)
		return
	}
	start := time.Now()
	for _, b := range chain {
		if err := lg.AppendBatch(b); err != nil {
			fail("wal append", err)
			return
		}
	}
	rc.set("wal.append_mb_per_s", mb(lg.Size(), start))
	if err := lg.Close(); err != nil {
		fail("wal close", err)
		return
	}
	start = time.Now()
	lg, st, err := wal.OpenShard(walDir, kc, vc, wal.Options{})
	if err != nil {
		fail("wal replay", err)
		return
	}
	rc.set("wal.replay_ms", float64(time.Since(start).Microseconds())/1e3)
	start = time.Now()
	if err := lg.Rotate(st.Since, st.Batches); err != nil {
		fail("wal rotate", err)
		return
	}
	rc.set("wal.rotate_ms", float64(time.Since(start).Microseconds())/1e3)
	_ = lg.Close() // only read since the rotation

	// wal: the same appends under Fsync with a 5 ms group commit.
	gc := wal.NewGroupCommitter(5 * time.Millisecond)
	lg, _, err = wal.OpenShard(filepath.Join(dir, "wal-group"), kc, vc, wal.Options{Fsync: true, Commit: gc, Fresh: true})
	if err != nil {
		fail("wal group", err)
		return
	}
	start = time.Now()
	for _, b := range chain {
		if err := lg.AppendBatch(b); err != nil {
			fail("wal group append", err)
			return
		}
	}
	if err := gc.Commit(); err != nil {
		fail("wal group commit", err)
		return
	}
	rc.set("wal.group_commit_eps", rate(len(chain), start))
	if err := lg.Close(); err != nil {
		fail("wal group close", err)
	}
	if err := gc.Close(); err != nil {
		fail("wal group committer", err)
	}

	// block: spill every batch, read every run back.
	store, err := block.Open(filepath.Join(dir, "blocks"), fn, kc, vc, block.StoreOptions{Mmap: true, Fresh: true})
	if err != nil {
		fail("block", err)
		return
	}
	readers := make([]core.BatchReader[uint64, uint64], 0, len(chain))
	start = time.Now()
	for _, b := range chain {
		r, err := store.Spill(b)
		if err != nil {
			fail("block spill", err)
			return
		}
		readers = append(readers, r)
	}
	rc.set("block.spill_mb_per_s", mb(bytes, start))
	start = time.Now()
	for _, r := range readers {
		if _, err := store.Unspill(r); err != nil {
			fail("block unspill", err)
			return
		}
	}
	rc.set("block.unspill_mb_per_s", mb(bytes, start))
	for _, r := range readers {
		store.Release(r)
	}

	// block: the workload's read waves against a spine spilled under the
	// workload's budget — block reads per probe key, and what the decoded-
	// block cache then holds.
	cold, err := block.Open(filepath.Join(dir, "cold"), fn, kc, vc, block.StoreOptions{Mmap: true, Fresh: true})
	if err != nil {
		fail("block", err)
		return
	}
	spine := core.NewSpine(fn, core.MergeDefault)
	spine.SetSpill(cold, g.sz.SpillBytes)
	h := spine.NewHandle()
	for i, b := range chain {
		spine.Append(b)
		h.SetLogical(lattice.NewFrontier(lattice.Ts(uint64(i + 1))))
	}
	for spine.Work(1 << 30) {
	}
	final := lattice.NewFrontier(lattice.Ts(uint64(len(chain))))
	before, nkeys := cold.BlocksRead, 0
	for wave := 0; wave < 20; wave++ {
		keys, _ := g.wave()
		cur := h.CursorThrough(final)
		for _, k := range keys {
			if cur.SeekKey(k) {
				cur.ForUpdates(k, func(uint64, lattice.Time, core.Diff) {})
			}
		}
		nkeys += len(keys)
	}
	rc.set("block.reads_per_lookup", float64(cold.BlocksRead-before)/float64(nkeys))
	rc.set("block.cache_bytes", float64(cold.CacheBytes()))
	h.Drop()
}
