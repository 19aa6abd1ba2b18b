package timely

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lattice"
)

// Summary describes how an operator transforms timestamps from an input port
// to an output port, for the purposes of progress tracking ("could result
// in"). It corresponds to Naiad's path summaries, restricted to the four
// shapes this runtime needs.
type Summary uint8

const (
	// SumNone: no path from the input to the output.
	SumNone Summary = iota
	// SumID: outputs carry times greater or equal to input times.
	SumID
	// SumStep: the feedback summary; increments the innermost coordinate.
	SumStep
	// SumEnter: ingress into an iteration scope; appends a 0 coordinate.
	SumEnter
	// SumLeave: egress from an iteration scope; strips the last coordinate.
	SumLeave
)

// Apply transforms t through the summary; ok is false for SumNone.
func (s Summary) Apply(t lattice.Time) (lattice.Time, bool) {
	switch s {
	case SumNone:
		return lattice.Time{}, false
	case SumID:
		return t, true
	case SumStep:
		return t.Step(), true
	case SumEnter:
		return t.Enter(), true
	case SumLeave:
		return t.Leave(), true
	}
	panic("timely: unknown summary")
}

// portKey identifies an operator port; out selects the output port space.
type portKey struct {
	op   int
	port int
	out  bool
}

// nodeSpec describes one operator's progress-relevant shape. All workers
// build identical dataflows, so the first worker to register wins and later
// registrations are ignored.
type nodeSpec struct {
	name      string
	inPorts   int
	outPorts  int
	summaries [][]Summary // [in][out]
	// initialCaps[out] times at which every worker's shard initially holds
	// one capability (seeded at registration, worker count many).
	initialCaps []lattice.Frontier
	registered  bool // set by registerNode; the zero nodeSpec is a gap
}

type edgeSpec struct {
	srcOp, srcPort int
	dstOp, dstPort int
}

// location is one operator port in the tracker's dense numbering: the
// pointstamps outstanding there and where a time at it could next appear.
type location struct {
	counts []timeCount // nonzero pointstamp counts, unordered, one per time
	succ   []successor // compiled could-result-in steps out of this port
}

type timeCount struct {
	t lattice.Time
	n int64
}

// successor is one step of the could-result-in relation: an output port
// reaches the input ports its edges lead to unchanged (SumID), an input port
// reaches its operator's outputs through the operator's summaries.
type successor struct {
	to  int32
	sum Summary
}

// pointstamp is one entry of the closure's work list.
type pointstamp struct {
	loc int32
	t   lattice.Time
}

// closureScratch is the storage one run of the closure works in: an
// antichain per location and the work list. It belongs to the runtime, not
// to a tracker, and is lent out for the length of one closure, so a standing
// dataflow that is not changing holds none: the runtime keeps as many as
// closures have ever run at once, each grown to the largest graph it served.
type closureScratch struct {
	reach []lattice.Frontier
	work  []pointstamp
}

func (rt *runtime) borrowScratch() *closureScratch {
	rt.scratchMu.Lock()
	defer rt.scratchMu.Unlock()
	if n := len(rt.scratch); n > 0 {
		sc := rt.scratch[n-1]
		rt.scratch = rt.scratch[:n-1]
		return sc
	}
	return &closureScratch{}
}

func (rt *runtime) returnScratch(sc *closureScratch) {
	rt.scratchMu.Lock()
	rt.scratch = append(rt.scratch, sc)
	rt.scratchMu.Unlock()
}

// frontierTable is one published result of the closure: the frontier at
// every input port, at fronts[base[op]+port]. A table is immutable once
// published. base changes only with the topology; a closure that moves some
// frontier publishes a copy of fronts sharing every frontier that held.
type frontierTable struct {
	base   []int32 // len(ops)+1 prefix sums of input-port counts
	fronts []lattice.Frontier
}

// Bounds on the operator and port numbers a pointstamp delta may name. Local
// deltas come from registered operators; a peer's may arrive before the
// operator registers here, and the dense tables grow to hold it, so a
// corrupt frame must not be able to size them.
const (
	maxTrackedOps   = 1 << 20
	maxTrackedPorts = 1 << 10
)

// tracker is the per-dataflow progress tracker shared by all workers. It
// maintains global counts of message pointstamps (at input ports) and
// capability pointstamps (at output ports) and computes, on demand, the
// frontier of times that might still arrive at every input port, via an
// antichain closure over the dataflow topology (the could-result-in
// relation).
//
// The topology is compiled into dense locations, one per port, each with its
// own short list of counts and its successor list; the closure runs over
// scratch borrowed from the runtime and publishes an immutable
// frontierTable, which frontierAt reads without the mutex whenever no count
// has crossed zero since. A reader on another goroutine may therefore see
// the table of an earlier closure: frontiers only advance, so that is a
// conservative answer. A goroutine always sees its own mutations, which
// raise dirty before they return.
type tracker struct {
	rt  *runtime
	seq int // dataflow sequence number (the fabric's dataflow address)
	// dist marks a multi-process runtime: every local mutation is broadcast
	// through the fabric in application order, and counts may go transiently
	// negative (a message consumed before the sender's increment arrives).
	dist bool

	mu    sync.Mutex
	nodes []nodeSpec
	edges []edgeSpec
	ports [2][][]int32 // [side][op][port] -> location; side 1 is outputs
	locs  []location
	// relink: nodes, edges or the set of locations changed since successor
	// lists and table layout were compiled. moved: some count became or
	// ceased to be positive since the last commit (nothing else can move a
	// frontier). nlive counts nonzero entries across all locations.
	relink bool
	moved  bool
	nlive  int64

	dirty atomic.Bool  // table is behind the counts or the topology
	live  atomic.Int64 // nlive as of the last completed mutation
	table atomic.Pointer[frontierTable]
}

func newTracker(rt *runtime, seq int) *tracker {
	tr := &tracker{rt: rt, seq: seq, dist: rt.remote()}
	tr.table.Store(&frontierTable{})
	return tr
}

// locate returns the location of a port, allocating it on first sight along
// with any lower-numbered port on the same side of the operator, so that an
// operator's ports stay dense. ok is false, and the fabric is failed, for a
// port number no dataflow could have.
func (tr *tracker) locate(k portKey) (id int32, ok bool) {
	side := &tr.ports[0]
	if k.out {
		side = &tr.ports[1]
	}
	if k.op < len(*side) && k.port < len((*side)[k.op]) {
		return (*side)[k.op][k.port], true
	}
	if uint(k.op) >= maxTrackedOps || uint(k.port) >= maxTrackedPorts {
		tr.rt.fab.Fail(fmt.Errorf("timely: dataflow %d: progress delta names op %d port %d out=%v",
			tr.seq, k.op, k.port, k.out))
		return 0, false
	}
	for k.op >= len(*side) {
		*side = append(*side, nil)
	}
	ports := make([]int32, k.port+1)
	n := copy(ports, (*side)[k.op])
	for p := n; p < len(ports); p++ {
		ports[p] = int32(len(tr.locs))
		tr.locs = append(tr.locs, location{})
	}
	(*side)[k.op] = ports
	tr.relink = true
	return ports[k.port], true
}

// registerNode installs the spec for operator op if not yet present, seeding
// initial capabilities (one per worker per declared time). Identical
// registration from other workers is a no-op.
func (tr *tracker) registerNode(op int, spec nodeSpec) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for op >= len(tr.nodes) {
		tr.nodes = append(tr.nodes, nodeSpec{})
	}
	if tr.nodes[op].registered {
		return // already registered by another worker
	}
	spec.registered = true
	tr.nodes[op] = spec
	if spec.inPorts > 0 {
		tr.locate(portKey{op, spec.inPorts - 1, false})
	}
	if spec.outPorts > 0 {
		tr.locate(portKey{op, spec.outPorts - 1, true})
	}
	// Seed one capability per global worker. Seeding is deliberately not
	// broadcast: every process builds the same dataflow and seeds the same
	// full global count into its own replica, so the replicas agree without
	// a registration protocol.
	for out, f := range spec.initialCaps {
		for _, t := range f.Elements() {
			tr.bump(delta{portKey{op, out, true}, t, int64(tr.rt.peers)})
		}
	}
	tr.relink = true
	tr.commit()
}

func (tr *tracker) registerEdge(e edgeSpec) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, have := range tr.edges {
		if have == e {
			return
		}
	}
	tr.edges = append(tr.edges, e)
	tr.locate(portKey{e.srcOp, e.srcPort, true})
	tr.locate(portKey{e.dstOp, e.dstPort, false})
	tr.relink = true
	tr.commit()
}

// delta is one pointstamp change.
type delta struct {
	key  portKey
	t    lattice.Time
	diff int64
}

// progressBatch accumulates the changes from one operator schedule call and
// is applied atomically: increments strictly before decrements, so observed
// frontiers never advance past work that is merely moving between forms.
type progressBatch struct {
	plus  []delta
	minus []delta
}

func (pb *progressBatch) empty() bool { return len(pb.plus) == 0 && len(pb.minus) == 0 }

func (pb *progressBatch) msgMinus(op, port int, t lattice.Time, n int64) {
	pb.minus = append(pb.minus, delta{portKey{op, port, false}, t, -n})
}
func (pb *progressBatch) capPlus(op, port int, t lattice.Time, n int64) {
	pb.plus = append(pb.plus, delta{portKey{op, port, true}, t, n})
}
func (pb *progressBatch) capMinus(op, port int, t lattice.Time, n int64) {
	pb.minus = append(pb.minus, delta{portKey{op, port, true}, t, -n})
}

// msgArrived registers message pointstamps immediately (called by senders
// before enqueueing, so consumers can never observe an uncounted message).
func (tr *tracker) msgArrived(op, port int, stamp []lattice.Time, n int64) {
	if len(stamp) == 0 {
		return
	}
	tr.mu.Lock()
	for _, t := range stamp {
		tr.bump(delta{portKey{op, port, false}, t, n})
	}
	tr.commit()
	if tr.dist {
		ds := make([]ProgressDelta, 0, len(stamp))
		for _, t := range stamp {
			ds = append(ds, ProgressDelta{Op: op, Port: port, Time: t, Diff: n})
		}
		tr.rt.fab.BroadcastProgress(tr.seq, ds)
	}
	tr.mu.Unlock()
}

// apply commits a progress batch atomically. In distributed mode the batch
// is broadcast under the same mutex hold that applies it locally, so every
// peer observes this replica's batches in local application order — with
// increments strictly before the decrements they justify, the invariant the
// distributed safety argument rests on. The fabric's BroadcastProgress is an
// ordered non-blocking enqueue, so holding the mutex across it is safe.
func (tr *tracker) apply(pb *progressBatch) {
	if pb.empty() {
		return
	}
	tr.mu.Lock()
	for _, d := range pb.plus {
		tr.bump(d)
	}
	for _, d := range pb.minus {
		tr.bump(d)
	}
	tr.commit()
	if tr.dist {
		ds := make([]ProgressDelta, 0, len(pb.plus)+len(pb.minus))
		for _, d := range pb.plus {
			ds = append(ds, ProgressDelta{Op: d.key.op, Port: d.key.port, Out: d.key.out, Time: d.t, Diff: d.diff})
		}
		for _, d := range pb.minus {
			ds = append(ds, ProgressDelta{Op: d.key.op, Port: d.key.port, Out: d.key.out, Time: d.t, Diff: d.diff})
		}
		tr.rt.fab.BroadcastProgress(tr.seq, ds)
	}
	tr.mu.Unlock()
	pb.plus = pb.plus[:0]
	pb.minus = pb.minus[:0]
}

// applyRemote commits one peer's broadcast batch to this replica. The batch
// may name an operator this replica has not registered yet (peers install
// without a barrier): locate gives it a location with no successors, where
// its times stall until registration links it.
func (tr *tracker) applyRemote(ds []ProgressDelta) {
	if len(ds) == 0 {
		return
	}
	tr.mu.Lock()
	for _, d := range ds {
		tr.bump(delta{portKey{d.Op, d.Port, d.Out}, d.Time, d.Diff})
	}
	tr.commit()
	tr.mu.Unlock()
	tr.rt.wake()
}

// bump adds one delta to its location's counts. Must be called with tr.mu
// held, and followed by commit before the mutex is released.
func (tr *tracker) bump(d delta) {
	id, ok := tr.locate(d.key)
	if !ok {
		return
	}
	l := &tr.locs[id]
	i := 0
	for i < len(l.counts) && l.counts[i].t != d.t {
		i++
	}
	if i == len(l.counts) {
		l.counts = append(l.counts, timeCount{t: d.t})
		tr.nlive++
	}
	was := l.counts[i].n
	now := was + d.diff
	l.counts[i].n = now
	if (was > 0) != (now > 0) {
		tr.moved = true
	}
	if now == 0 {
		last := len(l.counts) - 1
		l.counts[i] = l.counts[last]
		l.counts = l.counts[:last]
		tr.nlive--
	} else if now < 0 && !tr.dist {
		// A negative count in a single-process tracker is a progress-protocol
		// bug. Across processes it is a legal transient: a local worker may
		// consume a remote message (or drop a capability justified by one)
		// before the sending peer's increment batch arrives. recompute reads
		// positive counts only, so the frontier stays conservative.
		panic(fmt.Sprintf("timely: negative pointstamp count at op %d port %d out=%v time %v",
			d.key.op, d.key.port, d.key.out, d.t))
	}
}

// commit publishes what one mutation did to lock-free readers, once, so that
// quiescent never observes the middle of a batch. Must be called with tr.mu
// held.
func (tr *tracker) commit() {
	tr.live.Store(tr.nlive)
	if tr.moved || tr.relink {
		tr.moved = false
		tr.dirty.Store(true)
	}
}

// frontierAt returns the frontier of times that may still arrive at the
// given input port. The returned value must be treated as immutable. With
// nothing changed since the last closure it takes no lock.
func (tr *tracker) frontierAt(op, inPort int) lattice.Frontier {
	if tr.dirty.Load() {
		tr.mu.Lock()
		if tr.dirty.Load() {
			tr.recompute()
		}
		tr.mu.Unlock()
	}
	tab := tr.table.Load()
	if op+1 < len(tab.base) {
		if slot := int(tab.base[op]) + inPort; slot < int(tab.base[op+1]) {
			return tab.fronts[slot]
		}
	}
	return lattice.Frontier{}
}

// quiescent reports whether no pointstamps remain: the dataflow is complete.
func (tr *tracker) quiescent() bool { return tr.live.Load() == 0 }

// compile rebuilds what depends on the topology alone: every location's
// successor list and the layout of the frontier table.
// It returns an unpublished table of that layout with every frontier empty.
// Must be called with tr.mu held.
func (tr *tracker) compile() *frontierTable {
	for i := range tr.locs {
		tr.locs[i].succ = tr.locs[i].succ[:0]
	}
	for op, spec := range tr.nodes {
		for in, sums := range spec.summaries {
			l := &tr.locs[tr.ports[0][op][in]]
			for out, sum := range sums {
				if sum != SumNone {
					l.succ = append(l.succ, successor{tr.ports[1][op][out], sum})
				}
			}
		}
	}
	for _, e := range tr.edges {
		l := &tr.locs[tr.ports[1][e.srcOp][e.srcPort]]
		l.succ = append(l.succ, successor{tr.ports[0][e.dstOp][e.dstPort], SumID})
	}
	ins := tr.ports[0]
	base := make([]int32, len(ins)+1)
	for op, ports := range ins {
		base[op+1] = base[op] + int32(len(ports))
	}
	tr.relink = false
	return &frontierTable{base: base, fronts: make([]lattice.Frontier, base[len(ins)])}
}

// recompute performs the antichain closure: starting from every message and
// capability pointstamp with a positive count, propagate times along each
// location's successors, maintaining at every location the antichain of
// minimal reachable times. Cycles terminate because inserting a time that is
// greater or equal to an existing element is a no-op, and every dataflow
// cycle passes through a feedback summary that strictly increases its
// coordinate. The input-port antichains that differ from the published
// table's are copied into a new table; in steady state nothing else
// allocates. Must be called with tr.mu held.
func (tr *tracker) recompute() {
	// owned: tab.fronts is not the published array, so it may be written.
	tab, owned := tr.table.Load(), false
	if tr.relink {
		tab, owned = tr.compile(), true
	}
	sc := tr.rt.borrowScratch()
	defer tr.rt.returnScratch(sc)
	if short := len(tr.locs) - len(sc.reach); short > 0 {
		sc.reach = append(sc.reach, make([]lattice.Frontier, short)...)
	}
	reach, work := sc.reach[:len(tr.locs)], sc.work[:0]
	for i := range reach {
		reach[i].Clear()
	}
	for i := range tr.locs {
		for _, c := range tr.locs[i].counts {
			if c.n > 0 && reach[i].Insert(c.t) {
				work = append(work, pointstamp{int32(i), c.t})
			}
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range tr.locs[it.loc].succ {
			if t, _ := s.sum.Apply(it.t); reach[s.to].Insert(t) {
				work = append(work, pointstamp{s.to, t})
			}
		}
	}
	sc.work = work

	fronts := tab.fronts
	for op, ports := range tr.ports[0] {
		for port, id := range ports {
			slot := int(tab.base[op]) + port
			if reach[id].Equal(fronts[slot]) {
				continue
			}
			if !owned {
				fronts, owned = append([]lattice.Frontier(nil), fronts...), true
			}
			fronts[slot] = reach[id].Clone()
		}
	}
	if owned {
		tr.table.Store(&frontierTable{base: tab.base, fronts: fronts})
	}
	tr.dirty.Store(false)
}
