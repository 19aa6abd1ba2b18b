package timely

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"

	"repro/internal/lattice"
)

// Worker is one of the static set of dataflow workers. Each worker owns a
// shard of every operator of every dataflow it builds. A Cluster's worker
// steps until the cluster stops; an action posted to it (an Execute program,
// say) may drive it further through Step / StepUntil / Drain.
type Worker struct {
	index  int
	rt     *runtime
	graphs []*Graph
	seq    int

	actions []func(w *Worker) // posted, not yet started; guarded by rt.mu
	queued  atomic.Int32      // len(actions), read without rt.mu by Step
}

// Index returns this worker's index in 0..Peers()-1.
func (w *Worker) Index() int { return w.index }

// Dataflow constructs a new dataflow. Every worker must call Dataflow the
// same number of times with structurally identical build closures (operator
// identities are assigned by construction order, as in timely dataflow).
func (w *Worker) Dataflow(build func(g *Graph)) *Graph {
	g := &Graph{w: w, seq: w.seq, tracker: w.rt.trackerFor(w.seq)}
	w.seq++
	build(g)
	w.graphs = append(w.graphs, g)
	w.rt.wake()
	return g
}

// Step runs the actions posted to this worker, then schedules every
// operator shard it owns once, and reports whether an action ran or an
// operator did work.
func (w *Worker) Step() bool {
	active := w.runActions()
	for _, g := range w.graphs {
		for _, op := range g.ops {
			if op.schedule() {
				active = true
			}
		}
	}
	return active
}

// StepUntil steps the worker until cond returns true, parking the goroutine
// when no local work is available.
func (w *Worker) StepUntil(cond func() bool) {
	for !cond() {
		gen := w.rt.activityGen()
		if w.Step() {
			continue
		}
		if cond() {
			return
		}
		w.rt.waitActivity(gen)
	}
}

// Drain steps until every dataflow this worker participates in is complete
// (no pointstamps remain anywhere), then clears remaining local messages.
func (w *Worker) Drain() {
	w.StepUntil(func() bool {
		for _, g := range w.graphs {
			if !g.tracker.quiescent() {
				return false
			}
		}
		return true
	})
	for w.Step() {
	}
}

// Graph is one worker's view of one dataflow under construction and during
// execution.
type Graph struct {
	w        *Worker
	seq      int
	tracker  *tracker
	nextOp   int
	nextChan int
	ops      []*opState
}

// Worker returns the worker that owns this graph shard.
func (g *Graph) Worker() *Worker { return g.w }

// Complete reports whether the dataflow has finished (no outstanding work at
// any worker).
func (g *Graph) Complete() bool { return g.tracker.quiescent() }

func (g *Graph) allocOp() int {
	id := g.nextOp
	g.nextOp++
	return id
}

func (g *Graph) allocChan() int {
	id := g.nextChan
	g.nextChan++
	return id
}

// Stream is a typed dataflow edge endpoint: the output of an operator, to
// which consumers may attach. Depth is the timestamp depth of data on the
// stream (1 outside any iteration scope).
type Stream[D any] struct {
	g       *Graph
	srcOp   int
	srcPort int
	depth   int
	reg     *outReg[D]
}

// Graph returns the graph the stream belongs to.
func (s *Stream[D]) Graph() *Graph { return s.g }

// Depth returns the timestamp depth of the stream.
func (s *Stream[D]) Depth() int { return s.depth }

// outReg is the mutable set of channels attached to one operator output.
type outReg[D any] struct {
	channels []*channelDesc[D]
}

// channelDesc is one edge from an operator output to a consumer input, with
// its per-target-worker mailboxes. Exchanged channels stage records into
// pooled per-destination buffers (see exchange.go); pipeline channels push
// the shared slice directly.
type channelDesc[D any] struct {
	dstOp    int
	dstPort  int
	exchange func(D) uint64 // nil for pipeline (worker-local) channels
	boxes    []*mailbox[D]  // indexed by target worker; nil slots are remote
	tracker  *tracker
	rt       *runtime
	sender   int // worker index of this (per-worker) descriptor
	df, ch   int // fabric address of this channel (dataflow seq, channel id)

	pool        *slicePool[D]    // buffer arena (exchanged channels only)
	staged      [][]D            // per destination, pool-backed; lazily sized
	stagedStamp lattice.Frontier // antichain of stamps staged since last flush
	dirty       bool             // staged data awaiting flush
	encode      func([]D) []byte // wire codec (multi-process exchanged channels)
}

// attachIn connects a stream to input port dstPort of operator dstOp,
// creating the channel (pipeline if exch is nil, hash-exchanged otherwise)
// and returning the typed input endpoint for this worker's shard.
func attachIn[A any](s *Stream[A], st *opState, dstPort int, exch func(A) uint64) *In[A] {
	g := s.g
	ch := g.allocChan()
	rt := g.w.rt
	desc := &channelDesc[A]{
		dstOp:    st.id,
		dstPort:  dstPort,
		exchange: exch,
		tracker:  g.tracker,
		rt:       rt,
		sender:   g.w.index,
		df:       g.seq,
		ch:       ch,
	}
	if exch != nil {
		desc.pool = newSlicePool[A]()
	}
	if exch == nil {
		desc.boxes = []*mailbox[A]{mailboxFor[A](rt, g.seq, ch, g.w.index)}
	} else {
		desc.boxes = make([]*mailbox[A], rt.peers)
		for i := range desc.boxes {
			if rt.localWorker(i) {
				desc.boxes[i] = mailboxFor[A](rt, g.seq, ch, i)
			}
		}
		if rt.remote() {
			codec, ok := wireCodecFor[A]()
			if !ok {
				panic(fmt.Sprintf("timely: exchanged channel of %v needs a wire codec in multi-process mode; "+
					"call timely.RegisterWireCodec (internal/mesh registers the standard update types)",
					reflect.TypeFor[A]()))
			}
			desc.encode = func(data []A) []byte { return codec.Append(nil, data) }
			rt.registerInbound(g.seq, ch, func(worker int, stamp []lattice.Time, payload []byte) error {
				data, err := codec.Decode(payload)
				if err != nil {
					return fmt.Errorf("timely: dataflow %d channel %d: %w", g.seq, ch, err)
				}
				mailboxFor[A](rt, g.seq, ch, worker).push(message[A]{stamp: stamp, data: data})
				return nil
			})
		}
	}
	s.reg.channels = append(s.reg.channels, desc)
	g.tracker.registerEdge(edgeSpec{s.srcOp, s.srcPort, st.id, dstPort})
	return &In[A]{
		o:    st,
		port: dstPort,
		mb:   mailboxFor[A](rt, g.seq, ch, g.w.index),
	}
}

// opState is the per-worker shard state of one operator, including its
// persistent capabilities and the progress batch under construction.
type opState struct {
	g         *Graph
	id        int
	name      string
	nIn, nOut int
	summaries [][]Summary
	caps      []CapSet           // per out port: the capabilities the shard holds
	consumed  []lattice.Frontier // per out port: images of the messages consumed this schedule (storage reused)
	ctx       Ctx                // handed to run; lives here so a schedule allocates nothing
	batch     progressBatch
	flushers  []func() // staged exchange channels to flush after run
	activity  bool
	reactive  bool // request re-scheduling even without new input
	run       func(ctx *Ctx)
}

// justified reports whether the operator may send or retain at t on port p:
// t is past a capability held now or a message consumed this schedule.
func (o *opState) justified(p int, t lattice.Time) bool {
	return o.caps[p].covers(t) || o.consumed[p].LessEqual(t)
}

func (o *opState) schedule() bool {
	o.activity = o.reactive
	o.reactive = false
	for p := range o.consumed {
		o.consumed[p].Clear()
	}
	if o.run != nil {
		o.run(&o.ctx)
	}
	// Flush staged exchange buffers before publishing the progress batch:
	// messages must be counted before the capabilities (or input messages)
	// justifying their stamps are released.
	for _, f := range o.flushers {
		f()
	}
	o.flushers = o.flushers[:0]
	if !o.batch.empty() {
		o.g.tracker.apply(&o.batch)
		o.g.w.rt.wake()
	}
	return o.activity
}

func newOpState(g *Graph, name string, nIn, nOut int, summaries [][]Summary) *opState {
	st := &opState{
		g: g, id: g.allocOp(), name: name,
		nIn: nIn, nOut: nOut, summaries: summaries,
		caps:     make([]CapSet, nOut),
		consumed: make([]lattice.Frontier, nOut),
	}
	st.ctx.o = st
	for i := range st.caps {
		st.caps[i] = CapSet{o: st, port: i}
	}
	g.ops = append(g.ops, st)
	return st
}

// register declares the operator to the progress tracker once its inputs are
// attached. initial holds, per output port, the capabilities each worker's
// shard starts with, which the port's CapSet then holds.
func (o *opState) register(initial ...lattice.Frontier) {
	for p, f := range initial {
		o.caps[p].held = slices.Clone(f.Elements())
	}
	o.g.tracker.registerNode(o.id, nodeSpec{
		name: o.name, inPorts: o.nIn, outPorts: o.nOut,
		summaries: o.summaries, initialCaps: initial,
	})
}

// Ctx is the operator-facing view of its shard during one schedule call.
type Ctx struct {
	o *opState
}

// Activate requests that the operator be rescheduled even if no new input
// arrives (used for fueled, amortized work such as trace merging).
func (c *Ctx) Activate() { c.o.reactive = true; c.o.activity = true }

// CapSet is the set of capabilities an operator shard holds on one output
// port: an antichain, so each time is held once and never beside a time that
// covers it. It is the only way an operator holds capabilities. A port's set
// comes from its Out and changes only while the operator is scheduled; every
// change retains what it adds before it releases what it replaces.
type CapSet struct {
	o    *opState
	port int
	// held is exactly what the shard holds at every step, so a capability
	// released earlier in a schedule justifies nothing later in it.
	held []lattice.Time
}

// Insert holds each of ts that the set does not already cover, then releases
// the held times it dominates. Each time must be justified: in advance of a
// held capability or of a message consumed in this schedule.
func (c *CapSet) Insert(ts ...lattice.Time) {
	for _, t := range ts {
		if !c.covers(t) {
			c.retain(t)
			c.release(func(e lattice.Time) bool { return e != t && t.LessEqual(e) })
		}
	}
}

// Downgrade makes the held set exactly f (empty releases everything): it
// retains every new element of f, each of which must be justified as for
// Insert, before it releases any element not in f.
func (c *CapSet) Downgrade(f lattice.Frontier) {
	for _, t := range f.Elements() {
		if !slices.Contains(c.held, t) {
			c.retain(t)
		}
	}
	c.release(func(e lattice.Time) bool { return !slices.Contains(f.Elements(), e) })
}

func (c *CapSet) covers(t lattice.Time) bool {
	for _, e := range c.held {
		if e.LessEqual(t) {
			return true
		}
	}
	return false
}

func (c *CapSet) retain(t lattice.Time) {
	o := c.o
	if !o.justified(c.port, t) {
		panic(fmt.Sprintf("timely: op %q retains unjustified capability %v (held: %v, consumed: %v)",
			o.name, t, c.held, o.consumed[c.port]))
	}
	o.batch.capPlus(o.id, c.port, t, 1)
	o.activity = true
	c.held = append(c.held, t)
}

func (c *CapSet) release(gone func(lattice.Time) bool) {
	kept := c.held[:0]
	for _, e := range c.held {
		if gone(e) {
			c.o.batch.capMinus(c.o.id, c.port, e, 1)
			c.o.activity = true
		} else {
			kept = append(kept, e)
		}
	}
	c.held = kept
}

// In is a typed operator input endpoint.
type In[A any] struct {
	o    *opState
	port int
	mb   *mailbox[A]
}

// ForEach drains and delivers all pending messages. The callback must treat
// both the stamp and the data as immutable. On pipeline channels the data
// slice may be shared with other consumers of the same stream; on exchanged
// channels it is pool-owned and is RECYCLED when the callback returns, so
// callbacks must copy anything they retain or forward downstream.
func (in *In[A]) ForEach(f func(stamp []lattice.Time, data []A)) {
	msgs := in.mb.drain()
	for _, m := range msgs {
		in.o.activity = true
		for _, t := range m.stamp {
			in.o.batch.msgMinus(in.o.id, in.port, t, 1)
			for out := 0; out < in.o.nOut; out++ {
				if t2, ok := in.o.summaries[in.port][out].Apply(t); ok {
					in.o.consumed[out].Insert(t2)
				}
			}
		}
		f(m.stamp, m.data)
		if m.pool != nil {
			m.pool.put(m.data)
		}
	}
	in.mb.recycle(msgs)
}

// Frontier returns the lower bound of timestamps that may still arrive at
// this input, across all workers.
func (in *In[A]) Frontier() lattice.Frontier {
	return in.o.g.tracker.frontierAt(in.o.id, in.port)
}

// Out is a typed operator output endpoint.
type Out[B any] struct {
	o    *opState
	port int
	reg  *outReg[B]
}

// Caps returns the set of capabilities the operator holds on this port.
func (o *Out[B]) Caps() *CapSet { return &o.o.caps[o.port] }

// SendSlice emits data stamped with the given antichain of minimal logical
// times. Ownership of both slices passes to the runtime; the data slice may
// be shared with multiple consumers and must not be mutated afterwards.
// Every stamp element must be justified as for CapSet.Insert, so send before
// downgrading past it. Exchanged channels copy the records into staged
// per-destination buffers delivered when the schedule call ends; pipeline
// channels enqueue the slice itself immediately.
func (o *Out[B]) SendSlice(stamp []lattice.Time, data []B) {
	if len(data) == 0 {
		return
	}
	st := o.o
	for _, t := range stamp {
		if !st.justified(o.port, t) {
			panic(fmt.Sprintf("timely: op %q sends at unjustified time %v (held: %v, consumed: %v)",
				st.name, t, st.caps[o.port].held, st.consumed[o.port]))
		}
	}
	st.activity = true
	for _, ch := range o.reg.channels {
		ch.stage(st, stamp, data)
	}
}

func depthAfter(sum Summary, depth int) int {
	switch sum {
	case SumEnter:
		return depth + 1
	case SumLeave:
		return depth - 1
	default:
		return depth
	}
}

// Unary constructs a single-input single-output operator. exch selects the
// exchange channel (nil for pipeline). sum is the progress summary from the
// input to the output. initCaps declares capabilities each worker's shard
// holds at construction.
func Unary[A, B any](s *Stream[A], name string, exch func(A) uint64, sum Summary,
	initCaps []lattice.Time, logic func(ctx *Ctx, in *In[A], out *Out[B])) *Stream[B] {

	g := s.g
	st := newOpState(g, name, 1, 1, [][]Summary{{sum}})
	reg := &outReg[B]{}
	in := attachIn(s, st, 0, exch)
	out := &Out[B]{o: st, port: 0, reg: reg}
	st.run = func(ctx *Ctx) { logic(ctx, in, out) }
	st.register(lattice.NewFrontier(initCaps...))
	return &Stream[B]{g: g, srcOp: st.id, srcPort: 0, depth: depthAfter(sum, s.depth), reg: reg}
}

// Binary constructs a two-input single-output operator.
func Binary[A, B, C any](sa *Stream[A], sb *Stream[B], name string,
	exchA func(A) uint64, exchB func(B) uint64,
	logic func(ctx *Ctx, inA *In[A], inB *In[B], out *Out[C])) *Stream[C] {

	if sa.g != sb.g {
		panic("timely: Binary inputs from different dataflows")
	}
	if sa.depth != sb.depth {
		panic("timely: Binary inputs at different depths")
	}
	g := sa.g
	st := newOpState(g, name, 2, 1, [][]Summary{{SumID}, {SumID}})
	reg := &outReg[C]{}
	inA := attachIn(sa, st, 0, exchA)
	inB := attachIn(sb, st, 1, exchB)
	out := &Out[C]{o: st, port: 0, reg: reg}
	st.run = func(ctx *Ctx) { logic(ctx, inA, inB, out) }
	st.register()
	return &Stream[C]{g: g, srcOp: st.id, srcPort: 0, depth: sa.depth, reg: reg}
}

// Source constructs a zero-input single-output operator holding an initial
// capability at initCap on every worker; logic runs every schedule and
// manages the capability through out.Caps().
func Source[B any](g *Graph, name string, depth int, initCap lattice.Time,
	logic func(ctx *Ctx, out *Out[B])) *Stream[B] {

	st := newOpState(g, name, 0, 1, nil)
	reg := &outReg[B]{}
	out := &Out[B]{o: st, port: 0, reg: reg}
	st.run = func(ctx *Ctx) { logic(ctx, out) }
	st.register(lattice.NewFrontier(initCap))
	return &Stream[B]{g: g, srcOp: st.id, srcPort: 0, depth: depth, reg: reg}
}

// Sink constructs a single-input zero-output operator.
func Sink[A any](s *Stream[A], name string, exch func(A) uint64,
	logic func(ctx *Ctx, in *In[A])) {

	g := s.g
	st := newOpState(g, name, 1, 0, [][]Summary{{}})
	in := attachIn(s, st, 0, exch)
	st.run = func(ctx *Ctx) { logic(ctx, in) }
	st.register()
}
