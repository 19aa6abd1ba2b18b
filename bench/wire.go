package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphs"
	knet "repro/internal/net"
	"repro/internal/plan"
	"repro/internal/server"
)

// dagGen generates a layered random DAG: edges run from one layer to the
// next only, so every transitive-closure row is bounded by the depth and a
// single edge change moves a bounded number of tc pairs. That keeps the
// fixpoint's per-epoch work — what this workload measures — steady.
type dagGen struct {
	r             *rand.Rand
	layers, width uint64
	live          []graphs.Edge
}

func (g *dagGen) edge() graphs.Edge {
	l := uint64(g.r.Int63n(int64(g.layers - 1)))
	return graphs.Edge{
		Src: l*g.width + uint64(g.r.Int63n(int64(g.width))),
		Dst: (l+1)*g.width + uint64(g.r.Int63n(int64(g.width))),
	}
}

// source returns a vertex of one of the first two layers: a constant whose
// restricted closure is not trivially empty.
func (g *dagGen) source() uint64 { return uint64(g.r.Int63n(int64(2 * g.width))) }

func newDagGen(layers, width, edges uint64, seed int64) (*dagGen, []knet.Delta) {
	g := &dagGen{r: rand.New(rand.NewSource(seed ^ 0xda6)), layers: layers, width: width}
	initial := make([]knet.Delta, edges)
	for i := range initial {
		e := g.edge()
		g.live = append(g.live, e)
		initial[i] = knet.Delta{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	return g, initial
}

func (g *dagGen) churn(n int) []knet.Delta {
	upds := make([]knet.Delta, 0, n)
	for c := 0; c < n/2; c++ {
		e := g.edge()
		upds = append(upds, knet.Delta{Key: e.Src, Val: e.Dst, Diff: 1})
		g.live = append(g.live, e)
		vi := g.r.Intn(len(g.live))
		v := g.live[vi]
		upds = append(upds, knet.Delta{Key: v.Src, Val: v.Dst, Diff: -1})
		g.live[vi] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	return upds
}

// rel is the generator's live edge multiset as the plan oracle reads it.
func (g *dagGen) rel() plan.Rel {
	r := plan.Rel{}
	for _, e := range g.live {
		r[[2]uint64{e.Src, e.Dst}]++
	}
	return r
}

const tcRules = "tc(x, y) :- edges(x, y).\ntc(x, z) :- tc(x, y), edges(y, z).\n"

// wireQuery is one installed plan: its name, listing text and root.
type wireQuery struct {
	name, text string
	root       *plan.Node
}

func datalogQuery(name, src string) (wireQuery, error) {
	prog, err := plan.ParseDatalog(src)
	if err != nil {
		return wireQuery{}, fmt.Errorf("%s: %w", name, err)
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		return wireQuery{}, fmt.Errorf("%s: %w", name, err)
	}
	return wireQuery{name: name, text: src, root: root}, nil
}

func restrictedTC(name string, c uint64) (wireQuery, error) {
	return datalogQuery(name, fmt.Sprintf("%s?- tc(%d, y).", tcRules, c))
}

// standingWireQueries are the eight subscribed queries: the TC fixpoint, two
// restrictions of it that share the fixpoint through the sub-plan registry,
// and five non-recursive plans.
func standingWireQueries(g *dagGen) ([]wireQuery, error) {
	var qs []wireQuery
	add := func(q wireQuery, err error) error {
		qs = append(qs, q)
		return err
	}
	edges := plan.Scan("edges")
	err := errors.Join(
		add(datalogQuery("tc", tcRules)),
		add(restrictedTC("tc-from-a", g.source())),
		add(restrictedTC("tc-from-b", g.source())),
		add(datalogQuery("hop1", fmt.Sprintf("h1(x, y) :- edges(x, y).\n?- h1(%d, y).", g.source()))),
		add(datalogQuery("hop2", "h2(x, z) :- edges(x, y), edges(y, z).")),
		add(wireQuery{name: "degree", text: "edges | count", root: edges.Count()}, nil),
		add(wireQuery{name: "targets", text: "edges | swap | distinct", root: edges.Swap().Distinct()}, nil),
		add(wireQuery{name: "symmetric", text: "edges + swap(edges)", root: plan.Union(edges, edges.Swap())}, nil),
	)
	return qs, err
}

// countingConn counts the bytes a connection carries in each direction.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// wireSetup is a running server behind a loopback front-end with the graph
// loaded and the standing queries installed.
type wireSetup struct {
	gen      *dagGen
	churn    [][]knet.Delta
	arriving []wireQuery
	standing []wireQuery
	srv      *server.Server
	fe       *knet.Frontend
	ln       net.Listener
	served   chan error
	ctl      *knet.Client // conn 1: control
	loaded   uint64       // epoch sealed by the preload
	finalRel plan.Rel     // the edge relation after the measured epochs: the oracle's input
}

func (s *wireSetup) close() {
	if s == nil {
		return
	}
	if s.ctl != nil {
		_ = s.ctl.Close()
	}
	if s.fe != nil {
		s.fe.Close()
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func setupWire(rc *runCtx, epochs, extra int) (s *wireSetup, err error) {
	sz := rc.cfg.Sizes.Wire
	s = &wireSetup{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var initial []knet.Delta
	s.gen, initial = newDagGen(sz.Layers, sz.Width, sz.Edges, rc.cfg.Seed)
	if s.standing, err = standingWireQueries(s.gen); err != nil {
		return s, err
	}
	s.churn = make([][]knet.Delta, epochs+extra)
	for i := range s.churn {
		s.churn[i] = s.gen.churn(sz.ChurnPerEpoch)
		if i < epochs && installDue(i, epochs, sz.InstallEvery) {
			q, err := restrictedTC(fmt.Sprintf("arriving-%d", i), s.gen.source())
			if err != nil {
				return s, err
			}
			s.arriving = append(s.arriving, q)
		}
		if i == epochs-1 {
			s.finalRel = s.gen.rel()
		}
	}

	s.srv = server.New(openLoopWorkers())
	src, err := server.NewSource(s.srv, "edges", core.U64())
	if err != nil {
		return s, err
	}
	s.fe = knet.NewFrontend(s.srv)
	if err := s.fe.RegisterSource(src); err != nil {
		return s, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return s, err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.fe.Serve(s.ln) }()
	if s.ctl, err = knet.Dial(s.ln.Addr().String()); err != nil {
		return s, err
	}
	if err := s.ctl.Update("edges", initial); err != nil {
		return s, err
	}
	if s.loaded, err = s.ctl.Advance("edges"); err != nil {
		return s, err
	}
	if err := s.ctl.Sync("edges"); err != nil {
		return s, err
	}
	for _, q := range s.standing {
		if err := s.ctl.InstallPlan(q.name, q.text, q.root); err != nil {
			return s, fmt.Errorf("install %s: %w", q.name, err)
		}
		if !s.fe.WaitComplete(q.name, s.loaded) {
			return s, fmt.Errorf("install %s: never completed epoch %d", q.name, s.loaded)
		}
	}
	return s, nil
}

// subscriber is conn 2: it folds every delta into per-query state and notes
// when each epoch became complete across all subscribed queries.
type subscriber struct {
	conn   *countingConn
	client *knet.Client
	names  []string

	mu       sync.Mutex
	doneAt   map[uint64]time.Time // epoch -> first moment every query's frontier had passed it
	complete atomic.Int64         // highest epoch complete across all queries, -1 before any
	closing  atomic.Bool
	events   atomic.Int64
	resyncs  atomic.Int64

	state    map[string]map[[2]uint64]int64 // owned by run until done is closed
	frontier map[string]int64
	done     chan struct{}
	err      error
}

func subscribe(addr string, names []string) (*subscriber, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sub := &subscriber{conn: &countingConn{Conn: raw}, names: names,
		doneAt: map[uint64]time.Time{}, state: map[string]map[[2]uint64]int64{},
		frontier: map[string]int64{}, done: make(chan struct{})}
	sub.complete.Store(-1)
	for _, n := range names {
		sub.state[n] = map[[2]uint64]int64{}
		sub.frontier[n] = -1
	}
	if sub.client, err = knet.NewClient(sub.conn); err != nil {
		_ = raw.Close()
		return nil, err
	}
	if err := sub.client.Subscribe(names...); err != nil {
		_ = raw.Close()
		return nil, err
	}
	go sub.run()
	return sub, nil
}

func (sub *subscriber) run() {
	defer close(sub.done)
	for {
		ev, err := sub.client.Next()
		if err != nil {
			if !sub.closing.Load() {
				sub.err = err
			}
			return
		}
		sub.events.Add(1)
		st := sub.state[ev.Query]
		switch {
		case ev.End():
			sub.err = fmt.Errorf("stream of %q ended: %s", ev.Query, ev.Reason)
			return
		case ev.Resync():
			sub.resyncs.Add(1)
			clear(st)
			fallthrough
		case ev.Snapshot():
			for _, d := range ev.Upds {
				st[[2]uint64{d.Key, d.Val}] += d.Diff
			}
			if ev.Epoch > 0 { // consolidates every epoch below Epoch
				sub.frontier[ev.Query] = max(sub.frontier[ev.Query], int64(ev.Epoch)-1)
			}
		case ev.Frontier():
			sub.frontier[ev.Query] = max(sub.frontier[ev.Query], int64(ev.Epoch))
		default: // one epoch's deltas
			for _, d := range ev.Upds {
				k := [2]uint64{d.Key, d.Val}
				if st[k] += d.Diff; st[k] == 0 {
					delete(st, k)
				}
			}
			continue
		}
		low := int64(1) << 62
		for _, n := range sub.names {
			low = min(low, sub.frontier[n])
		}
		if prev := sub.complete.Load(); low > prev {
			now := time.Now()
			sub.mu.Lock()
			for e := prev + 1; e <= low; e++ {
				sub.doneAt[uint64(e)] = now
			}
			sub.mu.Unlock()
			sub.complete.Store(low)
		}
	}
}

// waitFor blocks until every query's frontier has passed epoch, the stream
// broke, or the limit ran out.
func (sub *subscriber) waitFor(epoch uint64, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for sub.complete.Load() < int64(epoch) {
		select {
		case <-sub.done:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// stop severs the connection and waits for the reader to exit.
func (sub *subscriber) stop() {
	sub.closing.Store(true)
	_ = sub.client.Close()
	<-sub.done
}

// runWire is the wire_datalog workload: a remote client's path. Updates go
// in over one TCP connection, eight Datalog/plan queries are maintained, and
// a subscriber on a second connection times each epoch from its intended
// send to the last frontier announcement of that epoch.
func runWire(rc *runCtx) error {
	sz := rc.cfg.Sizes.Wire
	interval, epochs, err := openLoopSchedule(rc.cfg, sz.RateEPS)
	if err != nil {
		return err
	}
	extra := 0
	if rc.cfg.Trace {
		extra = min(epochs, 100) // the socket-free leg behind server.update_advance_us
	}

	var s *wireSetup
	var serr error
	rc.set("setup_s", timeSetup(sz.SetupReps, func() {
		if serr == nil {
			s, serr = setupWire(rc, epochs, extra)
		}
	}, func() { s.close(); s = nil }))
	if serr != nil {
		return serr
	}
	defer func() { s.close() }()

	names := make([]string, len(s.standing))
	for i, q := range s.standing {
		names[i] = q.name
	}
	sub, err := subscribe(s.ln.Addr().String(), names)
	if err != nil {
		return err
	}
	defer sub.stop()
	if !sub.waitFor(s.loaded, 30*time.Second) {
		return fmt.Errorf("wire_datalog: subscriber never received the snapshots: %v", sub.err)
	}

	mem := markMem()
	bytes0, events0 := sub.conn.read.Load(), sub.events.Load()
	marks := make([]epochMark, 0, epochs)
	var installLat, late latencies

	// Traced runs add an observer inside the process, which notes when the
	// front-end itself sees each timed epoch complete on all eight queries:
	// the subscriber's view minus this one is the result path's share of the
	// wire (hub, frames, socket).
	var inProcess map[uint64]time.Time
	var watch chan uint64
	watched := make(chan struct{})
	if rc.cfg.Trace {
		inProcess = make(map[uint64]time.Time, epochs/2)
		watch = make(chan uint64, epochs) // one send per epoch at most
		go func() {
			defer close(watched)
			for sealed := range watch {
				ok := true
				for _, q := range s.standing {
					ok = ok && s.fe.WaitComplete(q.name, sealed)
				}
				if ok {
					inProcess[sealed] = time.Now()
				}
			}
		}()
	} else {
		close(watched)
	}
	var tuples int64
	installed := 0
	lastSealed := s.loaded
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
			// A fresh restricted-TC query arrives, resolves the fixpoint from
			// the registry, completes, and leaves. Serial, this goroutine only.
			q := s.arriving[installed]
			installed++
			rc.attempt(1)
			t0 := time.Now()
			sp := rc.tr.begin("net.install_plan", -1, int64(i))
			err := s.ctl.InstallPlan(q.name, q.text, q.root)
			rc.tr.end(sp)
			switch {
			case err != nil:
				rc.fail("install %s: %v", q.name, err)
			case !s.fe.WaitComplete(q.name, lastSealed):
				rc.fail("install %s: never completed epoch %d", q.name, lastSealed)
			default:
				installLat.add(time.Since(t0))
			}
			if err == nil {
				sp = rc.tr.begin("net.uninstall", -1, int64(i))
				if err := s.ctl.Uninstall(q.name); err != nil {
					rc.fail("uninstall %s: %v", q.name, err)
				}
				rc.tr.end(sp)
			}
		}
		rc.attempt(1)
		sp := rc.tr.begin("net.update_advance", -1, int64(i))
		err := s.ctl.Update("edges", s.churn[i])
		var sealed uint64
		if err == nil {
			sealed, err = s.ctl.Advance("edges")
		}
		rc.tr.end(sp)
		if err != nil {
			rc.fail("epoch %d: %v", i, err)
			continue
		}
		lastSealed = sealed
		marks = append(marks, epochMark{sealed: sealed, intended: intended, timed: epochTimed(i, epochs)})
		if watch != nil && epochTimed(i, epochs) {
			watch <- sealed
		}
		tuples += int64(len(s.churn[i]))
	}
	backlog := int64(lastSealed) - sub.complete.Load()
	if watch != nil {
		close(watch)
	}
	<-watched
	if err := s.ctl.Sync("edges"); err != nil {
		rc.fail("sync: %v", err)
	}
	drained := sub.waitFor(lastSealed, 30*time.Second)
	elapsed := time.Since(start)

	var epochLat latencies
	var resultLag []float64 // ms the subscriber trails the in-process observer, per timed epoch
	sub.mu.Lock()
	for _, m := range marks {
		at, ok := sub.doneAt[m.sealed]
		if !ok {
			rc.fail("epoch %d: the subscriber never saw it complete", m.sealed)
			continue
		}
		if m.timed {
			epochLat.add(at.Sub(m.intended))
			if seen, ok := inProcess[m.sealed]; ok {
				resultLag = append(resultLag, float64(at.Sub(seen))/float64(time.Millisecond))
			}
		}
		elapsed = at.Sub(start) // the last epoch's completion ends the measured phase
	}
	sub.mu.Unlock()
	bytes := sub.conn.read.Load() - bytes0
	events := sub.events.Load() - events0
	if float64(backlog) > sz.RateEPS {
		rc.invalid("%d epochs outstanding when the generator finished: offered load exceeds capacity", backlog)
	}
	if n := sub.resyncs.Load(); n > 0 {
		rc.fail("subscriber was reset %d times (lagged past the hub's bound)", n)
	}

	// Oracle: the subscriber's folded state equals the plan interpreter on
	// the graph as it stands after the epochs sent.
	sub.stop()
	if !drained || sub.err != nil {
		rc.fail("subscriber stream broke before epoch %d: %v", lastSealed, sub.err)
	}
	edb := map[string]plan.Rel{"edges": s.finalRel}
	for _, q := range s.standing {
		rc.attempt(1)
		want, err := plan.Interpret(q.root, edb)
		if err != nil {
			rc.fail("oracle %s: %v", q.name, err)
			continue
		}
		if got := plan.Rel(sub.state[q.name]); !got.Equal(want) {
			rc.fail("query %s: subscriber holds %d records, oracle %d, and they differ", q.name, len(got), len(want))
		}
	}

	rc.set("throughput_tuples_per_s", float64(tuples)/elapsed.Seconds())
	rc.setLatency("epoch_latency", windowed{l: &epochLat, size: epochWindow, trend: true}, "p95", 95)
	rc.setLatency("install_latency", windowed{l: &installLat, size: wireInstallWindow}, "p90", 90)
	rc.count("tuples", tuples)
	rc.count("epochs", int64(len(marks)))
	rc.count("installs", int64(installLat.n()))
	rc.count("backlog_at_end", backlog)

	if rc.cfg.Trace {
		rc.reportMem(mem, tuples)
		rc.set("bench.gen_late_p95_ms", late.p(95))
		rc.set("bench.trace_overhead_frac", float64(rc.tr.count())*spanCostNs()/float64(elapsed))
		rc.set("net.update_rtt_us", rc.tr.meanUs("net.update_advance"))
		rc.set("net.bytes_per_epoch", float64(bytes)/float64(max(1, len(marks))))
		rc.set("net.resyncs", float64(sub.resyncs.Load()))
		st := s.fe.SharedStats()
		if st.Hits+st.Installs > 0 {
			rc.set("net.registry_hit_ratio", float64(st.Hits)/float64(st.Hits+st.Installs))
		}
		rc.count("stream_events", events)
		wireDirectLeg(rc, s, epochs, extra, interval)
		direct := rc.tr.meanUs("server.update_advance")
		rc.set("server.update_advance_us", direct)
		// What the wire adds to an epoch: the two request round trips over
		// what the same calls cost in-process, plus how much later the
		// subscriber learns of completion than a watcher inside the process.
		rc.set("net.wire_overhead_ms", (rc.tr.meanUs("net.update_advance")-direct)/1e3+median(resultLag))
		wireDrainProbe(rc, s, names)
	}

	// Live heap with the eight queries installed, above what the harness
	// holds (inputs, the subscriber's folded state), which is what remains
	// once the server is gone.
	withServer := heapLiveMB()
	s.close()
	gen, standing := s.gen, s.standing
	s = nil
	rc.set("heap_live_mb", withServer-heapLiveMB())
	sub.state = nil
	if rc.cfg.Trace {
		wireProbes(rc, gen, standing)
	}
	return nil
}

// wireDirectLeg drives n further epochs of the same schedule through the
// front-end's in-process calls, for what Update+Advance cost without a
// socket in between.
func wireDirectLeg(rc *runCtx, s *wireSetup, from, n int, interval time.Duration) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		sp := rc.tr.begin("server.update_advance", -1, int64(from+i))
		err := s.fe.Update("edges", s.churn[from+i])
		if err == nil {
			_, err = s.fe.Advance("edges")
		}
		rc.tr.end(sp)
		if err != nil {
			rc.fail("direct epoch %d: %v", i, err)
			return
		}
	}
	if err := s.fe.SyncSource("edges"); err != nil {
		rc.fail("direct leg sync: %v", err)
	}
}

// wireDrainProbe subscribes afresh to all eight queries and times how fast
// the snapshots (the whole tc relation among them) drain through Client.Next.
func wireDrainProbe(rc *runCtx, s *wireSetup, names []string) {
	start := time.Now()
	sub, err := subscribe(s.ln.Addr().String(), names)
	if err != nil {
		rc.fail("drain probe: %v", err)
		return
	}
	defer sub.stop()
	// Every query's snapshot has arrived once all frontiers are known.
	if !sub.waitFor(0, 30*time.Second) {
		rc.fail("drain probe: snapshots never arrived: %v", sub.err)
		return
	}
	elapsed := time.Since(start)
	sub.stop()
	var records int
	for _, st := range sub.state {
		records += len(st)
	}
	rc.set("net.events_per_s", float64(records)/elapsed.Seconds())
}
