package timely

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lattice"
)

// Property tests for the progress tracker in isolation: random operator
// graphs driven by random but *legal* executions (every decrement justified
// by a prior local increment — messages are consumed only after being sent,
// capabilities dropped only after being seeded or minted).
//
// Three properties anchor the protocol:
//
//  1. Reference equivalence: after every applied batch, the compiled
//     tracker's frontiers equal those of referenceFrontiers, the map-based
//     closure this package ran before the topology was compiled.
//  2. Single-replica frontier monotonicity: under atomic batches that apply
//     increments before decrements, no input-port frontier ever retreats.
//  3. Distributed convergence: with one tracker replica per process applying
//     its own mutations eagerly and every peer's broadcast batches in
//     per-sender order, all replicas reach the exact same counts and
//     frontiers once every batch is delivered — regardless of how the
//     per-sender streams interleave.

// recordingFabric is a multi-process-shaped fabric that records progress
// broadcasts instead of shipping them, so a test can deliver them to peer
// replicas in any per-sender-ordered interleaving it likes.
type recordingFabric struct {
	workers, first int
	batches        [][]ProgressDelta
	failed         []error
}

func (f *recordingFabric) Workers() int                                                      { return f.workers }
func (f *recordingFabric) FirstLocal() int                                                   { return f.first }
func (f *recordingFabric) LocalWorkers() int                                                 { return 1 }
func (f *recordingFabric) Start(FabricHost)                                                  {}
func (f *recordingFabric) SendData(df, ch, worker int, stamp []lattice.Time, payload []byte) {}
func (f *recordingFabric) BroadcastProgress(df int, deltas []ProgressDelta) {
	f.batches = append(f.batches, append([]ProgressDelta(nil), deltas...))
}
func (f *recordingFabric) Fail(err error) { f.failed = append(f.failed, err) }
func (f *recordingFabric) Close() error   { return nil }

type portTime struct {
	key portKey
	t   lattice.Time
}

// countsOf flattens a tracker's per-location counts into one table of every
// nonzero pointstamp count.
func countsOf(tr *tracker) map[portTime]int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m := make(map[portTime]int64)
	for side, ops := range tr.ports {
		for op, ports := range ops {
			for port, id := range ports {
				for _, c := range tr.locs[id].counts {
					m[portTime{portKey{op, port, side == 1}, c.t}] += c.n
				}
			}
		}
	}
	return m
}

// referenceFrontiers is the progress referee: the closure as this package
// computed it before the tracker compiled its topology — a work-list walk
// over hash maps keyed by port, reading the registered specs and edges
// directly (never the compiled successor lists) and the positive counts. It
// returns the frontier at every input port any time reaches.
func referenceFrontiers(tr *tracker) map[[2]int]lattice.Frontier {
	counts := countsOf(tr)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	outEdges := make(map[[2]int][][2]int)
	for _, e := range tr.edges {
		src := [2]int{e.srcOp, e.srcPort}
		outEdges[src] = append(outEdges[src], [2]int{e.dstOp, e.dstPort})
	}
	reach := make(map[portKey]*lattice.Frontier)
	var work []portTime
	insert := func(key portKey, t lattice.Time) {
		f := reach[key]
		if f == nil {
			f = &lattice.Frontier{}
			reach[key] = f
		}
		if f.Insert(t) {
			work = append(work, portTime{key, t})
		}
	}
	for pt, n := range counts {
		if n > 0 {
			insert(pt.key, pt.t)
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if it.key.out {
			for _, dst := range outEdges[[2]int{it.key.op, it.key.port}] {
				insert(portKey{dst[0], dst[1], false}, it.t)
			}
			continue
		}
		// An operator this replica has not registered: its times stall.
		if it.key.op >= len(tr.nodes) || !tr.nodes[it.key.op].registered {
			continue
		}
		spec := tr.nodes[it.key.op]
		for out := 0; out < spec.outPorts; out++ {
			if t2, ok := spec.summaries[it.key.port][out].Apply(it.t); ok {
				insert(portKey{it.key.op, out, true}, t2)
			}
		}
	}
	fronts := make(map[[2]int]lattice.Frontier)
	for key, f := range reach {
		if !key.out {
			fronts[[2]int{key.op, key.port}] = *f
		}
	}
	return fronts
}

// checkReference fails the test unless every tracker's frontiers equal its
// own reference closure, at every input port either side knows of.
func checkReference(t testing.TB, when string, trs ...*tracker) {
	t.Helper()
	for i, tr := range trs {
		want := referenceFrontiers(tr)
		for op, ports := range tr.ports[0] {
			for port := range ports {
				if got := tr.frontierAt(op, port); !got.Equal(want[[2]int{op, port}]) {
					t.Fatalf("%s: tracker %d frontier at op %d port %d = %v, reference %v",
						when, i, op, port, got, want[[2]int{op, port}])
				}
				delete(want, [2]int{op, port})
			}
		}
		for key, f := range want {
			t.Fatalf("%s: tracker %d has no input port %v, reference frontier there %v", when, i, key, f)
		}
	}
}

// checkCounts fails the test unless got holds exactly want's nonzero counts.
func checkCounts(t testing.TB, when string, got, want *tracker) {
	t.Helper()
	g, w := countsOf(got), countsOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: count table size %d, want %d", when, len(g), len(w))
	}
	for pt, n := range w {
		if g[pt] != n {
			t.Fatalf("%s: count at %+v = %d, want %d", when, pt, g[pt], n)
		}
	}
}

// propOp is one random operator: a single in and out port joined by one
// summary, optionally seeded with an initial capability at the minimum time
// of its output's depth.
type propOp struct {
	summary           Summary
	seeded            bool
	inDepth, outDepth int
}

type propToken struct {
	op int
	t  lattice.Time
}

// propState is what one simulated worker owns: capabilities it may send with
// or drop, and messages addressed to it that it may consume.
type propState struct {
	caps []propToken
	msgs []propToken
}

// propSim drives a random legal execution over a random operator graph with
// one nested iteration scope, laid out in construction order: depth-1
// operators, a SumEnter, depth-2 operators, a SumLeave, depth-1 operators.
// Operators other than the enter and leave carry SumID or SumStep. Edges
// join ports of equal depth, and only a SumStep operator's output may lead
// back to an operator at or before it, so every cycle advances a coordinate —
// as in a real dataflow, whose only back edges are Feedback's.
type propSim struct {
	r      *rand.Rand
	ops    []propOp
	edges  [][]int // op -> successor ops (out port 0 -> in port 0)
	states []*propState
}

func minTime(depth int) lattice.Time { return lattice.MinFrontier(depth).Elements()[0] }

func newPropSim(r *rand.Rand, replicas int) *propSim {
	s := &propSim{r: r}
	add := func(sum Summary, in, out int) {
		s.ops = append(s.ops, propOp{summary: sum, seeded: len(s.ops) == 0 || r.Intn(2) == 0, inDepth: in, outDepth: out})
	}
	region := func(n, depth int) {
		for i := 0; i < n; i++ {
			add([]Summary{SumID, SumStep}[r.Intn(2)], depth, depth)
		}
	}
	region(1+r.Intn(2), 1)
	add(SumEnter, 1, 2)
	region(1+r.Intn(3), 2)
	add(SumLeave, 2, 1)
	region(1+r.Intn(2), 1)

	s.edges = make([][]int, len(s.ops))
	for i, o := range s.ops {
		var cands []int
		for j, d := range s.ops {
			if d.inDepth == o.outDepth && (j > i || o.summary == SumStep) {
				cands = append(cands, j)
			}
		}
		for k := 1 + r.Intn(2); k > 0 && len(cands) > 0; k-- {
			s.edges[i] = append(s.edges[i], cands[r.Intn(len(cands))])
		}
	}
	for p := 0; p < replicas; p++ {
		st := &propState{}
		for op, o := range s.ops {
			if o.seeded {
				st.caps = append(st.caps, propToken{op, minTime(o.outDepth)})
			}
		}
		s.states = append(s.states, st)
	}
	return s
}

// registerNode installs operator i into a tracker.
func (s *propSim) registerNode(tr *tracker, i int) {
	o := s.ops[i]
	caps := []lattice.Frontier{{}}
	if o.seeded {
		caps = []lattice.Frontier{lattice.MinFrontier(o.outDepth)}
	}
	tr.registerNode(i, nodeSpec{
		name:        "prop",
		inPorts:     1,
		outPorts:    1,
		summaries:   [][]Summary{{o.summary}},
		initialCaps: caps,
	})
}

// registerEdges installs operator src's outgoing edges into a tracker.
func (s *propSim) registerEdges(tr *tracker, src int) {
	for _, d := range s.edges[src] {
		tr.registerEdge(edgeSpec{srcOp: src, srcPort: 0, dstOp: d, dstPort: 0})
	}
}

// register installs the graph into a tracker; every replica registers the
// identical dataflow, exactly as real workers do.
func (s *propSim) register(tr *tracker) {
	for i := range s.ops {
		s.registerNode(tr, i)
	}
	for src := range s.edges {
		s.registerEdges(tr, src)
	}
}

// applyTo replays one batch into each target tracker (a replica's own, plus a
// sequential reference when one is kept). apply consumes the batch, so each
// target gets its own copy.
func applyTo(pb *progressBatch, targets []*tracker) {
	for _, tr := range targets {
		b := progressBatch{
			plus:  append([]delta(nil), pb.plus...),
			minus: append([]delta(nil), pb.minus...),
		}
		tr.apply(&b)
	}
}

// step performs one random legal move for replica p against the given
// trackers: send a message along an edge under a held capability, consume an
// owned message (maybe minting a capability at its summary-advanced time), or
// drop a capability. Returns false when p has no legal move.
func (s *propSim) step(p int, targets []*tracker) bool {
	st := s.states[p]
	var moves []int
	if len(st.caps) > 0 {
		moves = append(moves, 0, 0, 0, 2) // sends outweigh drops, or executions die young
	}
	if len(st.msgs) > 0 {
		moves = append(moves, 1, 1)
	}
	if len(moves) == 0 {
		return false
	}
	move := moves[s.r.Intn(len(moves))]
	var at int // which capability a send or drop uses
	if move != 1 {
		at = s.r.Intn(len(st.caps))
		if len(s.edges[st.caps[at].op]) == 0 {
			move = 2 // nowhere to send: a sink's capability can only be dropped
		}
	}
	switch move {
	case 0: // send
		c := st.caps[at]
		dsts := s.edges[c.op]
		d := dsts[s.r.Intn(len(dsts))]
		for _, tr := range targets {
			tr.msgArrived(d, 0, []lattice.Time{c.t}, 1)
		}
		q := s.r.Intn(len(s.states))
		s.states[q].msgs = append(s.states[q].msgs, propToken{d, c.t})
	case 1: // consume, maybe mint
		i := s.r.Intn(len(st.msgs))
		m := st.msgs[i]
		st.msgs = append(st.msgs[:i], st.msgs[i+1:]...)
		var pb progressBatch
		if s.r.Intn(2) == 0 {
			if t2, ok := s.ops[m.op].summary.Apply(m.t); ok {
				pb.capPlus(m.op, 0, t2, 1)
				st.caps = append(st.caps, propToken{m.op, t2})
			}
		}
		pb.msgMinus(m.op, 0, m.t, 1)
		applyTo(&pb, targets)
	case 2: // drop
		c := st.caps[at]
		st.caps = append(st.caps[:at], st.caps[at+1:]...)
		var pb progressBatch
		pb.capMinus(c.op, 0, c.t, 1)
		applyTo(&pb, targets)
	}
	return true
}

// drainMsgs consumes every outstanding message owned by replica p, without
// minting, and releaseCaps drops each held capability with the given probability.
func (s *propSim) drainMsgs(p int, targets []*tracker) {
	st := s.states[p]
	for _, m := range st.msgs {
		var pb progressBatch
		pb.msgMinus(m.op, 0, m.t, 1)
		applyTo(&pb, targets)
	}
	st.msgs = nil
}

func (s *propSim) releaseCaps(p int, prob float64, targets []*tracker) {
	st := s.states[p]
	kept := st.caps[:0]
	for _, c := range st.caps {
		if s.r.Float64() < prob {
			var pb progressBatch
			pb.capMinus(c.op, 0, c.t, 1)
			applyTo(&pb, targets)
		} else {
			kept = append(kept, c)
		}
	}
	st.caps = kept
}

// monotoneCheck returns a function that fails the test if any operator's
// input frontier retreated since its previous call, or differs from the
// reference closure.
func (s *propSim) monotoneCheck(t testing.TB, tr *tracker) func(when string) {
	prev := make([]lattice.Frontier, len(s.ops))
	for op := range s.ops {
		prev[op] = tr.frontierAt(op, 0)
	}
	return func(when string) {
		t.Helper()
		for op := range s.ops {
			cur := tr.frontierAt(op, 0)
			if !prev[op].Dominates(cur) {
				t.Fatalf("%s: frontier at op %d retreated: %v -> %v", when, op, prev[op], cur)
			}
			prev[op] = cur
		}
		checkReference(t, when, tr)
	}
}

// runToQuiescence drives a single tracker through up to steps random moves
// and then drains it, checking monotonicity and the reference after every
// applied batch, and that the drained tracker is quiescent with every
// frontier empty.
func (s *propSim) runToQuiescence(t testing.TB, tr *tracker, steps int, when string) {
	t.Helper()
	targets := []*tracker{tr}
	check := s.monotoneCheck(t, tr)
	check(when)
	for i := 0; i < steps && s.step(0, targets); i++ {
		check(when)
	}
	s.releaseCaps(0, 1.0, targets)
	check(when)
	// Consumption only removes pointstamps, so the frontiers keep advancing,
	// to empty.
	s.drainMsgs(0, targets)
	check(when)
	if !tr.quiescent() {
		t.Fatalf("%s: drained tracker not quiescent: %v", when, countsOf(tr))
	}
	for op := range s.ops {
		if f := tr.frontierAt(op, 0); !f.Empty() {
			t.Fatalf("%s: drained tracker still has frontier %v at op %d", when, f, op)
		}
	}
}

// TestProgressFrontierMonotonic checks that a single tracker's input-port
// frontiers never retreat across a random legal execution and equal the
// reference closure after every batch, and that fully draining the execution
// leaves the tracker quiescent with empty frontiers.
func TestProgressFrontierMonotonic(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sim := newPropSim(rand.New(rand.NewSource(seed)), 1)
		tr := newTracker(newRuntime(NewLocalFabric(1)), 0)
		sim.register(tr)
		sim.runToQuiescence(t, tr, 150, fmt.Sprintf("seed %d", seed))
	}
}

// byteSource is a rand.Source that spends a fuzz input eight bytes a draw
// and returns zeros once it runs out, so every input is one finite graph and
// execution and the fuzzer's mutations move individual choices.
type byteSource struct{ data []byte }

func (b *byteSource) Seed(int64) {}
func (b *byteSource) Int63() int64 {
	var v uint64
	for i := 0; i < 8 && len(b.data) > 0; i++ {
		v = v<<8 | uint64(b.data[0])
		b.data = b.data[1:]
	}
	return int64(v >> 1)
}

// FuzzProgressClosure turns bytes into a graph and a legal execution over
// it and holds the compiled tracker to the reference closure, to frontier
// monotonicity and to draining clean.
func FuzzProgressClosure(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		src := &byteSource{data: data}
		sim := newPropSim(rand.New(src), 1)
		tr := newTracker(newRuntime(NewLocalFabric(1)), 0)
		sim.register(tr)
		// The moves last as long as the bytes do; what follows is all-zero
		// draws, under which the drain still terminates.
		targets := []*tracker{tr}
		check := sim.monotoneCheck(t, tr)
		for len(src.data) > 0 && sim.step(0, targets) {
			check("fuzz")
		}
		sim.runToQuiescence(t, tr, 0, "fuzz drain")
	})
}

// TestProgressInterleavedDeltasConverge runs one legal execution across three
// tracker replicas (each broadcasting its mutations through a recording
// fabric) plus an exact sequential reference, then delivers every replica's
// batch stream to every peer in a random per-sender-ordered interleaving.
// However the streams interleave, each replica's frontiers equal its own
// reference closure after every batch, and its counts and frontiers converge
// to exactly the sequential reference's.
func TestProgressInterleavedDeltasConverge(t *testing.T) {
	const replicas = 3
	for seed := int64(0); seed < 15; seed++ {
		when := fmt.Sprintf("seed %d", seed)
		r := rand.New(rand.NewSource(1000 + seed))
		sim := newPropSim(r, replicas)

		fabs := make([]*recordingFabric, replicas)
		trs := make([]*tracker, replicas)
		for p := 0; p < replicas; p++ {
			fabs[p] = &recordingFabric{workers: replicas, first: p}
			trs[p] = newTracker(newRuntime(fabs[p]), 0)
			if !trs[p].dist {
				t.Fatal("replica tracker not in distributed mode")
			}
			sim.register(trs[p])
		}
		ref := newTracker(newRuntime(NewLocalFabric(replicas)), 0)
		sim.register(ref)

		for i := 0; i < 250; i++ {
			p := r.Intn(replicas)
			sim.step(p, []*tracker{trs[p], ref})
			checkReference(t, when, trs[p], ref)
		}
		// Partial drain: all messages consumed, ~70% of capabilities dropped,
		// so the converged state is non-trivial (frontiers neither minimal nor
		// empty).
		for p := 0; p < replicas; p++ {
			sim.drainMsgs(p, []*tracker{trs[p], ref})
			sim.releaseCaps(p, 0.7, []*tracker{trs[p], ref})
		}

		// Deliver every peer's stream to every replica, merged in a random
		// order that preserves each sender's sequence — the only ordering the
		// fabric guarantees.
		for q := 0; q < replicas; q++ {
			streams := map[int][][]ProgressDelta{}
			for p := 0; p < replicas; p++ {
				if p != q {
					streams[p] = fabs[p].batches
				}
			}
			for len(streams) > 0 {
				ps := make([]int, 0, len(streams))
				for p := range streams {
					ps = append(ps, p)
				}
				sort.Ints(ps)
				p := ps[r.Intn(len(ps))]
				trs[q].applyRemote(streams[p][0])
				checkReference(t, when, trs[q])
				if streams[p] = streams[p][1:]; len(streams[p]) == 0 {
					delete(streams, p)
				}
			}
		}

		for q := 0; q < replicas; q++ {
			for op := range sim.ops {
				want := ref.frontierAt(op, 0)
				got := trs[q].frontierAt(op, 0)
				if !want.Equal(got) {
					t.Fatalf("seed %d: replica %d frontier at op %d diverged: got %v want %v",
						seed, q, op, got, want)
				}
			}
			// Stronger than frontier agreement: the counts themselves must
			// match the exact reference once every delta landed.
			checkCounts(t, fmt.Sprintf("seed %d: replica %d", seed, q), trs[q], ref)
		}
	}
}

// TestDeltaBeforeRegistration covers a replica that hears of operators
// before it has built them (peers install without a barrier). Replica 0
// registers the whole graph and runs; replica 1 receives every batch having
// registered nothing, then only every other operator. A delivered time must
// hold the frontier of the port it names even though nothing links that port
// yet, the tracker must agree with the reference over the same partial
// topology throughout, and once replica 1 registers the rest it must agree
// with replica 0 exactly.
func TestDeltaBeforeRegistration(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		when := fmt.Sprintf("seed %d", seed)
		r := rand.New(rand.NewSource(3000 + seed))
		sim := newPropSim(r, 1)
		fab0 := &recordingFabric{workers: 2, first: 0}
		fab1 := &recordingFabric{workers: 2, first: 1}
		tr0 := newTracker(newRuntime(fab0), 0)
		tr1 := newTracker(newRuntime(fab1), 0)
		sim.register(tr0)
		for i := 0; i < 60; i++ {
			sim.step(0, []*tracker{tr0})
		}

		held := map[portKey]map[lattice.Time]int64{} // what replica 0's deltas sum to
		half := len(fab0.batches) / 2
		for i, b := range fab0.batches {
			if i == half {
				for op := 0; op < len(sim.ops); op += 2 {
					sim.registerNode(tr1, op)
					sim.registerEdges(tr1, op)
					checkReference(t, when, tr1)
				}
			}
			tr1.applyRemote(b)
			checkReference(t, when, tr1)
			for _, d := range b {
				key := portKey{d.Op, d.Port, d.Out}
				if held[key] == nil {
					held[key] = map[lattice.Time]int64{}
				}
				held[key][d.Time] += d.Diff
			}
			for key, times := range held {
				for tm, n := range times {
					if n > 0 && !key.out && !tr1.frontierAt(key.op, key.port).LessEqual(tm) {
						t.Fatalf("%s: message at op %d time %v does not hold that port's frontier %v",
							when, key.op, tm, tr1.frontierAt(key.op, key.port))
					}
				}
			}
		}

		sim.register(tr1)
		checkReference(t, when, tr1)
		for op := range sim.ops {
			if got, want := tr1.frontierAt(op, 0), tr0.frontierAt(op, 0); !got.Equal(want) {
				t.Fatalf("%s: after registering, op %d frontier %v, replica 0 has %v", when, op, got, want)
			}
		}
		checkCounts(t, when, tr1, tr0)
		if len(fab1.failed) != 0 {
			t.Fatalf("%s: replica failed its fabric: %v", when, fab1.failed)
		}
	}

	// A delta naming a port no dataflow could have fails the fabric instead
	// of sizing the tables, and leaves the tracker as it was.
	fab := &recordingFabric{workers: 2, first: 1}
	tr := newTracker(newRuntime(fab), 0)
	tr.applyRemote([]ProgressDelta{{Op: 1 << 40, Time: lattice.Ts(0), Diff: 1}})
	tr.applyRemote([]ProgressDelta{{Op: 1, Port: 1 << 40, Out: true, Time: lattice.Ts(0), Diff: 1}})
	if len(fab.failed) != 2 || !tr.quiescent() || len(tr.locs) != 0 {
		t.Fatalf("out-of-range deltas: %d failures, quiescent=%v, %d locations", len(fab.failed), tr.quiescent(), len(tr.locs))
	}
}

// chainTracker registers a source (one seeded capability per worker at epoch
// 0) feeding a chain of n-1 identity operators.
func chainTracker(fab Fabric, n int) *tracker {
	tr := newTracker(newRuntime(fab), 0)
	tr.registerNode(0, nodeSpec{name: "source", outPorts: 1,
		initialCaps: []lattice.Frontier{lattice.NewFrontier(lattice.Ts(0))}})
	for op := 1; op < n; op++ {
		tr.registerEdge(edgeSpec{srcOp: op - 1, dstOp: op})
		tr.registerNode(op, nodeSpec{name: "id", inPorts: 1, outPorts: 1,
			summaries: [][]Summary{{SumID}}, initialCaps: []lattice.Frontier{{}}})
	}
	return tr
}

// TestNegativeTransientHoldsNothing pins the positive-counts-only rule of
// distributed mode: a consume that outran its sender's increment leaves a
// negative count, which must neither hold a frontier back nor read as
// quiescence, and cancels when the increment lands.
func TestNegativeTransientHoldsNothing(t *testing.T) {
	tr := chainTracker(&recordingFabric{workers: 2, first: 1}, 3)
	var pb progressBatch
	pb.capPlus(0, 0, lattice.Ts(5), 2)
	pb.capMinus(0, 0, lattice.Ts(0), 2)
	tr.apply(&pb)
	want := lattice.NewFrontier(lattice.Ts(5))
	tr.applyRemote([]ProgressDelta{{Op: 1, Time: lattice.Ts(0), Diff: -1}})
	for op := 1; op < 3; op++ {
		if got := tr.frontierAt(op, 0); !got.Equal(want) {
			t.Errorf("op %d frontier %v with a negative count at epoch 0, want %v", op, got, want)
		}
	}
	pb.capMinus(0, 0, lattice.Ts(5), 2)
	tr.apply(&pb)
	if tr.quiescent() {
		t.Error("tracker with an uncancelled negative count reports quiescence")
	}
	tr.applyRemote([]ProgressDelta{{Op: 1, Time: lattice.Ts(0), Diff: 1}})
	if !tr.quiescent() {
		t.Errorf("counts left after the increment landed: %v", countsOf(tr))
	}
	checkReference(t, "drained", tr)
}

// TestFrontierReadsLockFreeAndMonotone checks the read side of the published
// frontier table: readers on other goroutines never see a frontier retreat
// while batches apply, a read of a clean tracker touches neither the mutex
// nor the heap, and a steady-state epoch allocates for the frontiers it
// moved and nothing else.
func TestFrontierReadsLockFreeAndMonotone(t *testing.T) {
	sim := newPropSim(rand.New(rand.NewSource(2)), 1)
	tr := newTracker(newRuntime(NewLocalFabric(1)), 0)
	sim.register(tr)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := make([]lattice.Frontier, len(sim.ops))
			for op := range prev {
				prev[op] = tr.frontierAt(op, 0)
			}
			for !stop.Load() {
				for op := range prev {
					cur := tr.frontierAt(op, 0)
					if !prev[op].Dominates(cur) {
						t.Errorf("reader saw op %d retreat: %v -> %v", op, prev[op], cur)
						return
					}
					prev[op] = cur
				}
			}
		}()
	}
	func() {
		defer wg.Wait()
		defer stop.Store(true) // also when the run fails: readers must not outlive it
		sim.runToQuiescence(t, tr, 2000, "under readers")
	}()

	const ops = 20
	tr = chainTracker(NewLocalFabric(2), ops)
	last := tr.frontierAt(ops-1, 0)
	if !last.Equal(lattice.NewFrontier(lattice.Ts(0))) {
		t.Fatalf("chain frontier %v, want {(0)}", last)
	}
	// Clean: the read must complete while another goroutine holds the mutex.
	tr.mu.Lock()
	read := make(chan lattice.Frontier)
	go func() { read <- tr.frontierAt(ops-1, 0) }()
	select {
	case f := <-read:
		if !f.Equal(last) {
			t.Errorf("clean read %v, want %v", f, last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frontierAt on a clean tracker waits for the mutex")
	}
	tr.mu.Unlock()
	if n := testing.AllocsPerRun(100, func() { tr.frontierAt(ops-1, 0) }); n != 0 {
		t.Errorf("frontierAt on a clean tracker allocates %v times", n)
	}

	// A closure that moves no frontier (a message arrives at a time the port
	// already expects, and is consumed) runs entirely in reused scratch.
	var pb progressBatch
	stamp := []lattice.Time{lattice.Ts(0)}
	if n := testing.AllocsPerRun(100, func() {
		tr.msgArrived(ops/2, 0, stamp, 1)
		tr.frontierAt(ops-1, 0)
		pb.msgMinus(ops/2, 0, stamp[0], 1)
		tr.apply(&pb)
		tr.frontierAt(ops-1, 0)
	}); n != 0 {
		t.Errorf("closures that move no frontier allocate %v times", n)
	}
	// A steady-state epoch: both workers' source shards advance. It moves the
	// frontier of all 19 downstream inputs: one allocation for each, plus the
	// new table and its frontier array.
	epoch := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		for worker := 0; worker < 2; worker++ {
			pb.capPlus(0, 0, lattice.Ts(epoch+1), 1)
			pb.capMinus(0, 0, lattice.Ts(epoch), 1)
			tr.apply(&pb)
			for op := 1; op < ops; op++ {
				tr.frontierAt(op, 0)
			}
		}
		epoch++
	}); n != ops-1+2 {
		t.Errorf("a steady-state epoch over %d operators allocates %v times, want %d", ops, n, ops-1+2)
	}
	if want := lattice.NewFrontier(lattice.Ts(epoch)); !tr.frontierAt(ops-1, 0).Equal(want) {
		t.Errorf("chain frontier %v after %d epochs, want %v", tr.frontierAt(ops-1, 0), epoch, want)
	}
}
