package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/interactive"
	"repro/internal/server"
	"repro/internal/timely"
)

type edgeUpd = core.Update[uint64, uint64]

// graphGen generates an evolving random graph from a seed and keeps the
// adjacency lists the query oracles read. live is the generator's own view
// (it runs ahead, at set-up, to pre-compute every epoch's churn); adj is
// advanced as each epoch is actually sent.
type graphGen struct {
	r     *rand.Rand
	nodes uint64
	live  []graphs.Edge
	adj   map[uint64][]uint64
}

func newGraphGen(nodes, edges uint64, seed int64) (*graphGen, []edgeUpd) {
	g := &graphGen{r: rand.New(rand.NewSource(seed ^ 0x5eed)), nodes: nodes,
		live: graphs.Random(nodes, edges, seed), adj: make(map[uint64][]uint64, nodes)}
	initial := make([]edgeUpd, len(g.live))
	for i, e := range g.live {
		initial[i] = edgeUpd{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	g.apply(initial)
	return g, initial
}

func (g *graphGen) node() uint64 { return uint64(g.r.Int63n(int64(g.nodes))) }

// churn returns n edge changes: half insertions of fresh random edges, half
// removals of edges live at that point.
func (g *graphGen) churn(n int) []edgeUpd {
	upds := make([]edgeUpd, 0, n)
	for c := 0; c < n/2; c++ {
		e := graphs.Edge{Src: g.node(), Dst: g.node()}
		upds = append(upds, edgeUpd{Key: e.Src, Val: e.Dst, Diff: 1})
		g.live = append(g.live, e)
		vi := g.r.Intn(len(g.live))
		v := g.live[vi]
		upds = append(upds, edgeUpd{Key: v.Src, Val: v.Dst, Diff: -1})
		g.live[vi] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	return upds
}

// apply folds sent updates into the oracle's adjacency lists.
func (g *graphGen) apply(upds []edgeUpd) {
	for _, u := range upds {
		if u.Diff > 0 {
			g.adj[u.Key] = append(g.adj[u.Key], u.Val)
			continue
		}
		l := g.adj[u.Key]
		for i, d := range l {
			if d == u.Val {
				l[i] = l[len(l)-1]
				g.adj[u.Key] = l[:len(l)-1]
				break
			}
		}
	}
}

// distinctNodes draws n different vertices.
func (g *graphGen) distinctNodes(n int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		if k := g.node(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// The four interactive query classes of §6.2, in rotation order.
const (
	classLookup = iota
	classOneHop
	classTwoHop
	classPath
	numClasses
)

// querySpec is one query to install: its class and arguments.
type querySpec struct {
	class int
	keys  []uint64
}

func (g *graphGen) spec(class, nkeys int) querySpec {
	if class == classPath {
		nkeys *= 2 // (src, dst) pairs, flattened; sources distinct
	}
	return querySpec{class: class, keys: g.distinctNodes(nkeys)}
}

func (s querySpec) pairs() [][2]uint64 {
	out := make([][2]uint64, 0, len(s.keys)/2)
	for i := 0; i+1 < len(s.keys); i += 2 {
		out = append(out, [2]uint64{s.keys[i], s.keys[i+1]})
	}
	return out
}

// liveQ is an installed query plus the comparison of its maintained results
// with the oracle over the generator's current adjacency lists.
type liveQ struct {
	waitDone func(sealed uint64) bool
	close    func()
	check    func(g *graphGen) string // "" when results equal the oracle
	latency  time.Duration
}

func diffMaps[K comparable](got, want map[K]core.Diff) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d result records, oracle has %d", len(got), len(want))
	}
	for k, d := range got {
		if want[k] != d {
			return fmt.Sprintf("record %v has multiplicity %d, oracle says %d", k, d, want[k])
		}
	}
	return ""
}

// installGraphQuery installs one query of the given class against the live
// edges arrangement and returns it once its first results are complete.
func installGraphQuery(l *interactive.Live, name string, s querySpec, shared bool, history []edgeUpd) (*liveQ, error) {
	switch s.class {
	case classLookup:
		q, err := l.InstallLookup(name, s.keys, shared, history)
		if err != nil {
			return nil, err
		}
		return &liveQ{waitDone: q.WaitDone, close: q.Close, latency: q.InstallLatency,
			check: func(g *graphGen) string {
				want := map[dd.Record[uint64, int64]]core.Diff{}
				for _, k := range s.keys {
					if n := len(g.adj[k]); n > 0 {
						want[dd.Record[uint64, int64]{Key: k, Val: int64(n)}] = 1
					}
				}
				return diffMaps(q.Results.Snapshot(), want)
			}}, nil
	case classOneHop:
		q, err := l.InstallOneHop(name, s.keys, shared, history)
		if err != nil {
			return nil, err
		}
		return &liveQ{waitDone: q.WaitDone, close: q.Close, latency: q.InstallLatency,
			check: func(g *graphGen) string {
				want := map[dd.Record[uint64, uint64]]core.Diff{}
				for _, k := range s.keys {
					for _, n := range g.adj[k] {
						want[dd.Record[uint64, uint64]{Key: k, Val: n}]++
					}
				}
				return diffMaps(q.Results.Snapshot(), want)
			}}, nil
	case classTwoHop:
		q, err := l.InstallTwoHop(name, s.keys, shared, history)
		if err != nil {
			return nil, err
		}
		return &liveQ{waitDone: q.WaitDone, close: q.Close, latency: q.InstallLatency,
			check: func(g *graphGen) string {
				want := map[dd.Record[uint64, uint64]]core.Diff{}
				for _, k := range s.keys {
					for _, m := range g.adj[k] {
						for _, n := range g.adj[m] {
							want[dd.Record[uint64, uint64]{Key: k, Val: n}]++
						}
					}
				}
				return diffMaps(q.Results.Snapshot(), want)
			}}, nil
	case classPath:
		pairs := s.pairs()
		q, err := l.InstallPath(name, pairs, shared, history)
		if err != nil {
			return nil, err
		}
		return &liveQ{waitDone: q.WaitDone, close: q.Close, latency: q.InstallLatency,
			check: func(g *graphGen) string {
				want := map[dd.Record[[2]uint64, uint64]]core.Diff{}
				for _, p := range pairs {
					if k := g.pathLen(p[0], p[1]); k > 0 {
						want[dd.Record[[2]uint64, uint64]{Key: p, Val: k}] = 1
					}
				}
				return diffMaps(q.Results.Snapshot(), want)
			}}, nil
	}
	return nil, fmt.Errorf("unknown query class %d", s.class)
}

// pathLen mirrors interactive.ShortestPath: the least k in 1..4 such that dst
// is reachable from src in exactly k steps, or 0.
func (g *graphGen) pathLen(src, dst uint64) uint64 {
	level := map[uint64]bool{src: true}
	for k := uint64(1); k <= 4; k++ {
		next := map[uint64]bool{}
		for n := range level {
			for _, m := range g.adj[n] {
				next[m] = true
			}
		}
		if next[dst] {
			return k
		}
		level = next
	}
	return 0
}

// epochMark is what the generator hands the completion waiter.
type epochMark struct {
	sealed   uint64
	intended time.Time
	timed    bool // its latency counts (epochTimed)
}

// graphSetup is everything the measured phase of graph_interactive needs.
type graphSetup struct {
	gen      *graphGen
	initial  []edgeUpd
	churn    [][]edgeUpd // one slice per epoch of the measured phase
	installs []querySpec // the queries installed while updates stream
	live     *interactive.Live
	edges    []*core.TraceAgent[uint64, uint64] // each worker's shard of the shared edges trace
	standing []*liveQ
}

func (s *graphSetup) close() {
	if s != nil && s.live != nil {
		s.live.Close()
	}
}

const (
	standingKeys = 8 // arguments of each standing query
	arrivingKeys = 2 // arguments of each query installed during the run
)

func setupGraph(rc *runCtx, epochs int) (*graphSetup, error) {
	sz := rc.cfg.Sizes.Graph
	s := &graphSetup{}
	s.gen, s.initial = newGraphGen(sz.Nodes, sz.Edges, rc.cfg.Seed)
	var standing []querySpec
	for c := 0; c < numClasses; c++ {
		for i := 0; i < sz.StandingPerClass; i++ {
			standing = append(standing, s.gen.spec(c, standingKeys))
		}
	}
	s.churn = make([][]edgeUpd, epochs)
	for i := range s.churn {
		s.churn[i] = s.gen.churn(sz.ChurnPerEpoch)
		if installDue(i, epochs, sz.InstallEvery) {
			s.installs = append(s.installs, s.gen.spec(len(s.installs)%numClasses, arrivingKeys))
		}
	}
	l, err := interactive.StartLive(openLoopWorkers())
	if err != nil {
		return nil, err
	}
	s.live = l
	l.UpdateEdges(s.initial)
	l.Advance()
	l.Sync()
	if s.edges, err = edgeTraces(l); err != nil {
		l.Close()
		return nil, err
	}
	for i, spec := range standing {
		q, err := installGraphQuery(l, fmt.Sprintf("standing-%d", i), spec, true, nil)
		if err != nil {
			l.Close()
			return nil, err
		}
		s.standing = append(s.standing, q)
	}
	return s, nil
}

// edgeTraces returns each worker's shard of the shared edges trace. A
// server.Source keeps its arrangement to itself, so a throw-away dataflow
// imports it, notes the agent behind the import, and is uninstalled again.
func edgeTraces(l *interactive.Live) ([]*core.TraceAgent[uint64, uint64], error) {
	agents := make([]*core.TraceAgent[uint64, uint64], l.Srv.Workers())
	q, err := l.Srv.Install("bench-edge-traces", func(w *timely.Worker, g *timely.Graph) server.Built {
		imported := l.Edges.ImportInto(g)
		agents[w.Index()] = imported.Agent
		return server.Built{Probe: timely.NewProbe(imported.Stream), Teardown: imported.Cancel}
	})
	if err != nil {
		return nil, err
	}
	q.Uninstall()
	return agents, nil
}

// settle brings the shared arrangement to rest before a query arrives: every
// standing query has completed every sealed epoch, and each worker has run
// the edges spine's pending maintenance to its end, so no merge is in
// progress and none is due until the next batch is appended.
//
// It is here because of a defect in internal/core that this benchmark found
// and may not repair (README, "A defect the benchmark steps around"): a merge
// that *starts* while a reader handle created by an install still sits at the
// minimum logical frontier takes that minimum as its compaction frontier, and
// panics in batchBuilder.finish on inputs an earlier merge had already
// compacted ("merged update time (t) in advance of batch upper {(t)}"). One
// run in ten died of it. With the spine at rest and every reader caught up,
// the only batch an install appends (its own empty flush epoch) is held back
// by the readers' physical frontiers, so nothing starts inside the window.
// The work done here is the maintenance the arrange operator's idle schedules
// would do anyway; it is outside the timed install.
func (s *graphSetup) settle(sealed uint64) bool {
	for _, q := range s.standing {
		if !q.waitDone(sealed) {
			return false
		}
	}
	p := s.live.Srv.Cluster().PostEach(func(w *timely.Worker) {
		if sp := s.edges[w.Index()].Spine(); sp != nil {
			for sp.Work(1 << 30) {
			}
		}
	})
	p.Wait()
	return !p.Aborted()
}

// An open-loop run alternates between two kinds of block, openLoopBlocks of
// them in all. In an even block only the updates stream, and the epoch
// latencies are taken there; in an odd block a query arrives every so many
// epochs while the updates keep streaming, and the install latencies are
// taken there. Kept apart, a change to the install path moves the install
// metrics and not, through the stalls installs cause, the epoch percentiles
// as well. Alternating (where the run once had two halves) spreads the
// samples of either kind over the whole run, so that a disturbance from
// outside has to last three quarters of the run, not of one half, before the
// quiet quarter of either feels it.
const openLoopBlocks = 8

// blockOf returns the block epoch i of an open-loop run of the given length
// lies in, and i's offset within it.
func blockOf(i, epochs int) (block, offset int) {
	blk := max(1, epochs/openLoopBlocks)
	return i / blk, i % blk
}

// installDue says whether a query arrives before epoch i.
func installDue(i, epochs, every int) bool {
	b, off := blockOf(i, epochs)
	return b%2 == 1 && off%every == 0
}

// epochTimed says whether epoch i's latency counts. The first few epochs
// after a block of arrivals do not: the generator may still be behind the
// schedule the last install held it from.
func epochTimed(i, epochs int) bool {
	b, off := blockOf(i, epochs)
	return b%2 == 0 && (b == 0 || off >= min(5, epochs/openLoopBlocks/4))
}

// openLoopSchedule is an open-loop run's absolute schedule: the time between
// two epochs' intended emissions and how many epochs the run offers.
func openLoopSchedule(cfg config, rateEPS float64) (interval time.Duration, epochs int, err error) {
	epochs = int(cfg.Seconds * rateEPS)
	if cfg.MaxOps > 0 {
		epochs = cfg.MaxOps
	}
	if epochs < 2 {
		return 0, 0, fmt.Errorf("%s: %v s at %v epochs/s leaves no epochs to time and to install in", cfg.Workload, cfg.Seconds, rateEPS)
	}
	return time.Duration(float64(time.Second) / rateEPS), epochs, nil
}

// runGraph is the graph_interactive workload (Fig 5): open loop at a fixed
// rate, standing queries over one shared arrangement, and new queries
// installed against it while the updates stream.
func runGraph(rc *runCtx) error {
	sz := rc.cfg.Sizes.Graph
	interval, epochs, err := openLoopSchedule(rc.cfg, sz.RateEPS)
	if err != nil {
		return err
	}

	var s *graphSetup
	var serr error
	rc.set("setup_s", timeSetup(sz.SetupReps, func() {
		if serr == nil {
			s, serr = setupGraph(rc, epochs)
		}
	}, func() { s.close(); s = nil }))
	if serr != nil {
		return serr
	}
	defer s.close()
	l := s.live

	mem := markMem()
	var epochLat, late latencies
	installLat := classLatencies{window: graphInstallWindow}
	marks := make(chan epochMark, epochs) // one send per epoch: the generator never blocks on the waiter
	var completed atomic.Int64
	var lastDone time.Time
	waiterDone := make(chan struct{})
	go func() { // completion waiter: the second and last harness goroutine
		defer close(waiterDone)
		for m := range marks {
			ok := true
			for _, q := range s.standing {
				ok = ok && q.waitDone(m.sealed)
			}
			if !ok {
				rc.fail("epoch %d: server stopped before the standing queries completed it", m.sealed)
				continue
			}
			lastDone = time.Now()
			if m.timed {
				epochLat.add(lastDone.Sub(m.intended))
			}
			completed.Add(1)
		}
	}()

	var tuples int64
	installed := 0
	var lastSealed uint64 // the newest epoch the generator has sealed
	start := time.Now()
	for i := 0; i < epochs; i++ {
		intended := start.Add(time.Duration(i) * interval)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		if epochTimed(i, epochs) { // where lateness reaches the epoch latencies
			late.add(max(0, time.Since(intended)))
		}
		if installDue(i, epochs, sz.InstallEvery) {
			// One more query arrives against the live arrangement: install,
			// time to first complete result, check, uninstall. Installs are
			// strictly serial, from this goroutine only.
			spec := s.installs[installed]
			installed++
			rc.attempt(1)
			var q *liveQ
			err := server.ErrClosed
			if s.settle(lastSealed) {
				sp := rc.tr.begin("server.install", -1, int64(i))
				q, err = installGraphQuery(l, fmt.Sprintf("arriving-%d", i), spec, true, nil)
				rc.tr.end(sp)
			}
			if err != nil {
				rc.fail("install at epoch %d: %v", i, err)
			} else {
				installLat.add(spec.class, q.latency)
				if msg := q.check(s.gen); msg != "" {
					rc.fail("query installed at epoch %d (class %d): %s", i, spec.class, msg)
				}
				sp := rc.tr.begin("server.uninstall", -1, int64(i))
				q.close()
				rc.tr.end(sp)
			}
		}
		rc.attempt(1)
		sp := rc.tr.begin("server.update_advance", -1, int64(i))
		l.UpdateEdges(s.churn[i])
		lastSealed = l.Advance()
		rc.tr.end(sp)
		marks <- epochMark{sealed: lastSealed, intended: intended, timed: epochTimed(i, epochs)}
		s.gen.apply(s.churn[i])
		tuples += int64(len(s.churn[i]))
	}
	backlog := int64(epochs) - completed.Load()
	close(marks)
	<-waiterDone
	elapsed := lastDone.Sub(start)
	if elapsed <= 0 {
		return fmt.Errorf("graph_interactive: no epoch completed")
	}
	if float64(backlog) > sz.RateEPS {
		rc.invalid("%d epochs outstanding when the generator finished: offered load exceeds capacity", backlog)
	}

	// Oracle: every standing query's maintained result equals the
	// generator's adjacency lists after the last epoch.
	for i, q := range s.standing {
		rc.attempt(1)
		if msg := q.check(s.gen); msg != "" {
			rc.fail("standing query %d: %s", i, msg)
		}
	}

	rc.set("throughput_tuples_per_s", float64(tuples)/elapsed.Seconds())
	rc.setLatency("epoch_latency", windowed{l: &epochLat, size: epochWindow, trend: true}, "p95", 95)
	rc.setLatency("install_latency", &installLat, "p90", 90)
	rc.count("tuples", tuples)
	rc.count("epochs", int64(epochs))
	rc.count("installs", int64(installLat.n()))
	rc.count("backlog_at_end", backlog)

	if rc.cfg.Trace {
		rc.reportMem(mem, tuples)
		rc.set("bench.gen_late_p95_ms", late.p(95))
		rc.set("bench.trace_overhead_frac", float64(rc.tr.count())*spanCostNs()/float64(elapsed))
		rc.set("server.install_busy_ms", rc.tr.totalMs("server.install"))
		rc.set("server.update_advance_us", rc.tr.meanUs("server.update_advance"))
	}

	// Live heap with every standing query installed, above what the harness
	// itself holds (inputs, oracle state), which is what remains once the
	// server is gone.
	withServer := heapLiveMB()
	if rc.cfg.Trace {
		graphUnsharedLeg(rc, s, withServer)
	}
	for _, q := range s.standing {
		q.close()
	}
	s.close()
	s.live, s.standing = nil, nil
	rc.set("heap_live_mb", withServer-heapLiveMB())
	if rc.cfg.Trace {
		graphProbes(rc, s)
	}
	return nil
}

// graphUnsharedLeg is the paper's contrast, informational: the same arriving
// queries installed with shared=false, each rebuilding a private arrangement
// from the whole update log.
func graphUnsharedLeg(rc *runCtx, s *graphSetup, heapBefore float64) {
	sz := rc.cfg.Sizes.Graph
	history := append([]edgeUpd(nil), s.initial...)
	for _, c := range s.churn {
		history = append(history, c...)
	}
	var lat latencies
	var held []*liveQ
	for i := 0; i < sz.UnsharedInstalls && i < len(s.installs); i++ {
		q, err := installGraphQuery(s.live, fmt.Sprintf("unshared-%d", i), s.installs[i], false, history)
		if err != nil {
			rc.fail("unshared install %d: %v", i, err)
			return
		}
		if msg := q.check(s.gen); msg != "" {
			rc.fail("unshared query %d: %s", i, msg)
		}
		lat.add(q.latency)
		held = append(held, q)
	}
	history = nil // the log is the harness's, not part of what the queries hold
	rc.set("server.unshared_install_p50_ms", lat.p(50))
	rc.set("server.unshared_heap_live_mb", heapLiveMB()-heapBefore)
	for _, q := range held {
		q.close()
	}
}
