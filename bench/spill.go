package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/timely"
	"repro/internal/wal"
)

// userBytesPerUpdate is what one (key, value, time, diff) update occupies
// before any encoding: the denominator of write_amp_x.
const userBytesPerUpdate = 32

// keyAgg is the oracle's view of one key: how many live tuples carry it and
// the sum of their digests.
type keyAgg struct {
	n   int64
	sum uint64
}

func digest(k, v uint64) uint64 { return core.Mix64(core.Mix64(k) ^ v) }

// spillGen generates a sliding window of (u64,u64) tuples with ID-like,
// recency-skewed keys: every ingest epoch inserts PerEpoch tuples whose keys
// are drawn from a range that advances with the epoch, and retracts the
// tuples inserted Window epochs earlier. The live collection therefore stays
// the same size for as long as the run lasts, old (cold, spilled) runs keep
// being cancelled by merges, and write amplification levels off.
//
// The oracle state is sized once and never reallocated (live keys span a
// bounded range, so a ring indexed by key holds the per-key aggregates): the
// harness's own heap must not vary with how long or how fast the run went,
// since heap_live_mb is taken above it.
type spillGen struct {
	r       *rand.Rand
	sz      spillSizes
	epoch   int
	window  [][][2]uint64 // the last Window epochs' insertions (key, val), oldest first
	agg     []keyAgg      // per live key, at index key % len(agg)
	liveN   int64
	liveSum uint64
}

func newSpillGen(sz spillSizes, seed int64) *spillGen {
	// Keys live at once span Window epochs' base offsets plus the 4*KeyWindow
	// range each epoch draws from; two more KeyWindows keep a range scan that
	// runs past the newest key on slots of its own (which hold zero).
	span := uint64(sz.Window+5) * sz.KeyWindow
	return &spillGen{r: rand.New(rand.NewSource(seed ^ 0x5b111)), sz: sz,
		window: make([][][2]uint64, 0, sz.Window+1), agg: make([]keyAgg, span)}
}

func (g *spillGen) at(k uint64) *keyAgg { return &g.agg[k%uint64(len(g.agg))] }

func (g *spillGen) fold(k, v uint64, d int64) {
	a := g.at(k)
	a.n += d
	a.sum += uint64(d) * digest(k, v)
	g.liveN += d
	g.liveSum += uint64(d) * digest(k, v)
}

// ingest returns the next epoch's updates and folds them into the oracle.
func (g *spillGen) ingest() []edgeUpd {
	ins := make([][2]uint64, g.sz.PerEpoch)
	upds := make([]edgeUpd, 0, 2*g.sz.PerEpoch)
	for j := range ins {
		k := uint64(g.epoch)*g.sz.KeyWindow + uint64(g.r.Int63n(int64(4*g.sz.KeyWindow)))
		v := uint64(g.r.Int63())
		ins[j] = [2]uint64{k, v}
		upds = append(upds, edgeUpd{Key: k, Val: v, Diff: 1})
		g.fold(k, v, 1)
	}
	if len(g.window) == g.sz.Window {
		for _, kv := range g.window[0] {
			upds = append(upds, edgeUpd{Key: kv[0], Val: kv[1], Diff: -1})
			g.fold(kv[0], kv[1], -1)
		}
		copy(g.window, g.window[1:])
		g.window = g.window[:len(g.window)-1]
	}
	g.window = append(g.window, ins)
	g.epoch++
	return upds
}

// liveKey samples the key of a live tuple: recencyBias of the draws come from
// the newest eighth of the window, the rest from anywhere in it.
func (g *spillGen) liveKey() uint64 {
	const recencyBias = 0.98
	n := len(g.window)
	e := g.r.Intn(n)
	if g.r.Float64() < recencyBias {
		e = n - 1 - g.r.Intn(max(1, n/8))
	}
	return g.window[e][g.r.Intn(len(g.window[e]))][0]
}

// wave returns one read wave's probe keys — point look-ups plus 64-key range
// scans, sorted and distinct — and what the join must answer for them.
func (g *spillGen) wave() (keys []uint64, want keyAgg) {
	const scan = 64
	ranges := int(float64(g.sz.WaveKeys) * g.sz.RangeFrac / scan)
	seen := make(map[uint64]bool, g.sz.WaveKeys)
	for i := 0; i < ranges; i++ {
		lo := g.liveKey()
		for k := lo; k < lo+scan; k++ {
			seen[k] = true
		}
	}
	for i := ranges * scan; i < g.sz.WaveKeys; i++ {
		seen[g.liveKey()] = true
	}
	keys = make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
		want.n += g.at(k).n
		want.sum += g.at(k).sum
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, want
}

// joinAcc is the sink behind the look-up join: the net multiset it has been
// sent, as a count and a digest sum.
type joinAcc struct {
	n   atomic.Int64
	sum atomic.Uint64
}

func (a *joinAcc) add(k, v uint64, d core.Diff) {
	a.n.Add(d)
	a.sum.Add(uint64(d) * digest(k, v))
}

func (a *joinAcc) load() keyAgg { return keyAgg{n: a.n.Load(), sum: a.sum.Load()} }

// diskMeter estimates the bytes ever written under a directory from repeated
// walks: WAL generations only grow and block files are written once, both
// under names that are never reused, so the sum of every file's largest
// observed size is what was written (short of files born and retired
// between two observations).
type diskMeter struct {
	dir  string
	seen map[string]int64
}

func (m *diskMeter) observe() {
	_ = filepath.WalkDir(m.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish under the walk as merges retire them
		}
		if info, err := d.Info(); err == nil && info.Size() > m.seen[path] {
			m.seen[path] = info.Size()
		}
		return nil
	})
}

func (m *diskMeter) written() int64 {
	var n int64
	for _, s := range m.seen {
		n += s
	}
	return n
}

// spillServer is a durable server with the spilling kv source, the in-memory
// probes source and the standing look-up join.
type spillServer struct {
	srv    *server.Server
	kv     *server.Source[uint64, uint64]
	batch  *server.Batcher[uint64, uint64]
	probes *server.Source[uint64, core.Unit]
	lookup *server.Query
	acc    *joinAcc
}

func (s *spillServer) close() {
	if s == nil {
		return
	}
	if s.batch != nil {
		s.batch.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func openSpillServer(dir string, sz spillSizes, recover bool) (*spillServer, error) {
	s := &spillServer{acc: &joinAcc{}}
	s.srv = server.NewOpts(workers(), server.Options{DataDir: dir, Recover: recover,
		Fsync: true, GroupCommitEvery: 5 * time.Millisecond})
	var err error
	s.kv, err = server.NewSourceOpts(s.srv, "kv", core.U64(), server.SourceOptions[uint64, uint64]{
		Durable: true, KeyCodec: wal.U64Codec(), ValCodec: wal.U64Codec(), SpillBytes: sz.SpillBytes})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start adds what a serving (not recovering) server needs on top of the
// source: the batcher, the probe-key source and the look-up join.
func (s *spillServer) start() error {
	s.batch = server.NewBatcher(s.kv, server.BatcherOptions{})
	var err error
	if s.probes, err = server.NewSource(s.srv, "probes", core.U64Key()); err != nil {
		return err
	}
	s.lookup, err = s.srv.Install("lookup", func(w *timely.Worker, g *timely.Graph) server.Built {
		kv, pr := s.kv.ImportInto(g), s.probes.ImportInto(g)
		out := dd.JoinCore(kv, pr, "lookup", func(k, v uint64, _ core.Unit) (uint64, uint64) { return k, v })
		dd.Inspect(out, func(k, v uint64, _ lattice.Time, d core.Diff) { s.acc.add(k, v, d) })
		return server.Built{Probe: dd.Probe(out), Teardown: func() { kv.Cancel(); pr.Cancel() }}
	})
	return err
}

// ingest pipelines the given epochs through the batcher, then waits until
// all of them are complete and durable. It returns the time that took (the
// generator's work is done before the clock starts).
func (s *spillServer) ingest(rc *runCtx, epochs [][]edgeUpd, cycle int64) (time.Duration, error) {
	start := time.Now()
	for _, upds := range epochs {
		sp := rc.tr.begin("server.offer_seal", -1, cycle)
		err := s.batch.Offer(upds)
		if err == nil {
			_, err = s.batch.Seal()
		}
		rc.tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	sp := rc.tr.begin("server.flush_sync", -1, cycle)
	err := s.batch.Flush()
	if err == nil {
		err = s.kv.Sync()
	}
	rc.tr.end(sp)
	return time.Since(start), err
}

// epochs generates the next n ingest epochs and counts their updates.
func (g *spillGen) epochs(n int) (out [][]edgeUpd, tuples int64) {
	for i := 0; i < n; i++ {
		upds := g.ingest()
		out = append(out, upds)
		tuples += int64(len(upds))
	}
	return out, tuples
}

// seal closes one (empty) kv epoch and moves the probes clock with it, then
// waits for the look-up join to complete the sealed epoch.
func (s *spillServer) seal() error {
	e, err := s.batch.Seal()
	if err != nil {
		return err
	}
	if err := s.probes.AdvanceTo(e + 1); err != nil {
		return err
	}
	if !s.lookup.WaitDone(lattice.Ts(e)) {
		return server.ErrClosed
	}
	return nil
}

// readWave sends the probe keys, waits for the join's answer, checks it, and
// (outside the wave's clock) retracts the keys again.
func (s *spillServer) readWave(rc *runCtx, g *spillGen, cycle int64) (time.Duration, int, error) {
	keys, want := g.wave()
	upds := make([]core.Update[uint64, core.Unit], len(keys))
	for i, k := range keys {
		upds[i] = core.Update[uint64, core.Unit]{Key: k, Diff: 1}
	}
	if err := s.probes.AdvanceTo(s.batch.Epoch()); err != nil {
		return 0, 0, err
	}
	rc.attempt(1)
	start := time.Now()
	sp := rc.tr.begin("server.read_wave", -1, cycle)
	err := s.probes.Update(upds)
	if err == nil {
		err = s.seal()
	}
	rc.tr.end(sp)
	took := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if got := s.acc.load(); got != want {
		rc.fail("read wave %d: join answered %d tuples (digest %x), oracle says %d (%x)",
			cycle, got.n, got.sum, want.n, want.sum)
	}
	for i := range upds {
		upds[i].Diff = -1
	}
	if err := s.probes.Update(upds); err != nil {
		return 0, 0, err
	}
	if err := s.seal(); err != nil {
		return 0, 0, err
	}
	if got := s.acc.load(); got != (keyAgg{}) {
		rc.fail("read wave %d: %d tuples left after the keys were retracted", cycle, got.n)
	}
	return took, len(keys), nil
}

// countAll installs a query that scans the whole kv arrangement, seals one
// epoch (an import's snapshot sits at the open epoch, so its first results
// are complete when that epoch seals), waits, checks count and digest against
// the oracle, and uninstalls. It returns install-to-complete.
func (s *spillServer) countAll(rc *runCtx, g *spillGen, name string) (time.Duration, error) {
	acc := &joinAcc{}
	start := time.Now()
	sp := rc.tr.begin("server.install", -1, -1)
	q, err := s.srv.Install(name, func(w *timely.Worker, gr *timely.Graph) server.Built {
		kv := s.kv.ImportInto(gr)
		flat := dd.Flatten(kv)
		dd.Inspect(flat, func(k, v uint64, _ lattice.Time, d core.Diff) { acc.add(k, v, d) })
		return server.Built{Probe: dd.Probe(flat), Teardown: kv.Cancel}
	})
	if err == nil {
		var sealed uint64
		if s.batch != nil {
			if sealed, err = s.batch.Seal(); err == nil {
				err = s.probes.AdvanceTo(sealed + 1)
			}
		} else {
			sealed, err = s.kv.Advance()
		}
		if err == nil && !q.WaitDone(lattice.Ts(sealed)) {
			err = server.ErrClosed
		}
	}
	rc.tr.end(sp)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if got, want := acc.load(), (keyAgg{n: g.liveN, sum: g.liveSum}); got != want {
		rc.fail("%s: arrangement holds %d tuples (digest %x), oracle says %d (%x)",
			name, got.n, got.sum, want.n, want.sum)
	}
	q.Uninstall()
	return took, nil
}

// runSpill is the durable_spill workload: closed loop, one driver, a
// WAL-backed arrangement several times larger than its resident budget,
// ingest cycles alternating with read waves, then a restart from disk.
func runSpill(rc *runCtx) error {
	sz := rc.cfg.Sizes.Spill
	dir := filepath.Join(rc.cfg.OutDir, fmt.Sprintf("%s-%d-%d", rc.cfg.Workload, rc.cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(rc.cfg.OutDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var s *spillServer
	var g *spillGen
	var serr error
	var preloaded int64
	rc.set("setup_s", timeSetup(sz.SetupReps, func() {
		if serr != nil {
			return
		}
		g = newSpillGen(sz, rc.cfg.Seed)
		if s, serr = openSpillServer(dir, sz, false); serr != nil {
			return
		}
		if serr = s.start(); serr != nil {
			return
		}
		// Preload a full window, so that the measured phase starts in the
		// steady state: the arrangement at its final size, mostly spilled.
		var window [][]edgeUpd
		window, preloaded = g.epochs(sz.Window)
		_, serr = s.ingest(rc, window, -1)
	}, func() { s.close(); s = nil }))
	if serr != nil {
		s.close()
		return serr
	}
	defer func() { s.close() }()

	// One cycle: a few ingest epochs, acknowledged durable, then the read waves.
	type cycleCost struct {
		ingest time.Duration
		waves  []time.Duration
		tuples int64
		keys   int
	}
	runCycle := func(c int64) (cc cycleCost, err error) {
		var epochs [][]edgeUpd
		epochs, cc.tuples = g.epochs(sz.EpochsPerCycle)
		if cc.ingest, err = s.ingest(rc, epochs, c); err != nil {
			return cc, fmt.Errorf("ingest cycle %d: %w", c, err)
		}
		for i := 0; i < sz.WavesPerCycle; i++ {
			took, keys, err := s.readWave(rc, g, c)
			if err != nil {
				return cc, fmt.Errorf("read wave of cycle %d: %w", c, err)
			}
			cc.waves = append(cc.waves, took)
			cc.keys += keys
		}
		return cc, nil
	}

	// Warm-up, untimed: the decoded-block cache fills.
	for i := 1; i <= sz.WarmupCycles; i++ {
		if _, err := runCycle(int64(-i)); err != nil {
			return err
		}
	}

	meter := &diskMeter{dir: dir, seen: map[string]int64{}}
	meter.observe()
	baseWritten := meter.written() // set-up and warm-up bytes; their user bytes are excluded too

	mem := markMem()
	var ingestTime, waveTime time.Duration
	var tuples, keysRead int64
	var waveLat, installLat, ckptLat latencies
	var heaps []float64 // the live heap after every cycle (the window keeps it stationary)
	cycles := 0
	deadline := time.Duration(rc.cfg.Seconds * float64(time.Second))
	var paused time.Duration
	start := time.Now()
	for {
		if rc.cfg.MaxOps > 0 {
			if cycles >= rc.cfg.MaxOps {
				break
			}
		} else if time.Since(start)-paused >= deadline {
			break
		}
		c := int64(cycles)
		rc.attempt(1)
		cc, err := runCycle(c)
		if err != nil {
			return err
		}
		ingestTime += cc.ingest
		tuples += cc.tuples
		for _, w := range cc.waves {
			waveLat.add(w)
			waveTime += w
		}
		keysRead += int64(cc.keys)
		cycles++
		heaps = append(heaps, lastLiveHeapMB())

		if cycles%sz.InstallEvery == 0 {
			rc.attempt(1)
			took, err := s.countAll(rc, g, fmt.Sprintf("count-%d", cycles))
			if err != nil {
				return fmt.Errorf("install at cycle %d: %w", cycles, err)
			}
			installLat.add(took)
		}
		if cycles%sz.CkptEvery == 0 {
			rc.attempt(1)
			t0 := time.Now()
			sp := rc.tr.begin("server.checkpoint", -1, c)
			err := s.srv.Checkpoint()
			rc.tr.end(sp)
			if err != nil {
				rc.fail("checkpoint at cycle %d: %v", cycles, err)
			}
			ckptLat.add(time.Since(t0))
		}
		p0 := time.Now()
		meter.observe() // walks the data directory; not the system's time
		paused += time.Since(p0)
	}
	if cycles == 0 || ingestTime <= 0 || waveTime <= 0 {
		return fmt.Errorf("durable_spill: no cycle completed")
	}
	if rc.cfg.Trace { // over the measured phase, before the restart below adds its own
		rc.reportMem(mem, tuples)
		rc.set("bench.trace_overhead_frac", float64(rc.tr.count())*spanCostNs()/float64(time.Since(start)-paused))
	}
	heap := mean(heaps)
	acked := s.batch.Epoch() // every epoch below it was acknowledged by Sync
	files, _, _ := s.kv.SpillStats()
	logBytes := s.srv.LogBytes()
	stats := s.batch.Stats()

	rc.set("throughput_tuples_per_s", float64(tuples)/ingestTime.Seconds())
	rc.setLatency("epoch_latency", &waveLat, "p95", 95)
	rc.setLatency("install_latency", &installLat, "p90", 90)
	rc.count("tuples", tuples)
	rc.count("preloaded_tuples", preloaded)
	rc.count("epochs", int64(cycles))
	rc.count("installs", int64(installLat.n()))
	rc.count("probe_keys", keysRead)
	rc.count("user_bytes", tuples*userBytesPerUpdate)

	// Restart: close, reopen from the data directory alone, restore, and scan
	// the arrangement. Everything Sync acknowledged must be there.
	s.close()
	s = nil
	meter.observe()
	afterClose := heapLiveMB()
	rc.set("heap_live_mb", heap-afterClose)

	rc.attempt(1)
	t0 := time.Now()
	sp := rc.tr.begin("server.reopen", -1, -1)
	r, err := openSpillServer(dir, sz, true)
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	s = r
	sp = rc.tr.begin("server.restore", -1, -1)
	t1 := time.Now()
	resumed, err := r.srv.Restore()
	restore := time.Since(t1)
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if resumed["kv"] < acked {
		rc.fail("restore resumed at epoch %d, but Sync had acknowledged every epoch below %d", resumed["kv"], acked)
	}
	if _, err := r.countAll(rc, g, "recovered-count"); err != nil {
		return fmt.Errorf("count after recovery: %w", err)
	}
	recovery := time.Since(t0)

	if rc.cfg.Trace {
		rc.set("read_throughput_keys_per_s", float64(keysRead)/waveTime.Seconds())
		rc.set("recovery_s", recovery.Seconds())
		rc.set("write_amp_x", float64(meter.written()-baseWritten)/float64(tuples*userBytesPerUpdate))
		rc.set("server.update_advance_us", rc.tr.meanUs("server.offer_seal"))
		if stats.LogicalSeals > 0 {
			rc.set("server.physical_seal_ratio", float64(stats.PhysicalSeals)/float64(stats.LogicalSeals))
		}
		rc.set("server.install_busy_ms", rc.tr.totalMs("server.install"))
		rc.set("server.checkpoint_ms", ckptLat.p(50))
		rc.set("server.restore_ms", float64(restore)/1e6)
		rc.set("wal.log_bytes", float64(logBytes))
		rc.set("block.files_live", float64(files))
		spillProbes(rc, g)
	}
	return nil
}
