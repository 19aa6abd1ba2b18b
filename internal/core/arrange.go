package core

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/timely"
)

// BatchSink receives an arrangement's durability events: every sealed batch
// as it enters the spine, and the compaction-frontier advance that follows
// it (TraceAgent.maintain). Implemented by wal.ShardLog; core stays free of
// any storage dependency. Sink methods run on the owning worker's goroutine.
// A sink error is a durability failure and is fatal (the arrange operator
// panics): continuing would silently break the recovery contract.
type BatchSink[K, V any] interface {
	AppendBatch(b *Batch[K, V]) error
	AdvanceSince(f lattice.Frontier) error
}

// TraceAgent is the worker-local owner of one arrangement: the spine (nil
// for stream-only arrangements), the frontier through which batches have
// been sealed, and the list of same-worker subscriptions feeding imports of
// this trace into other dataflows.
//
// Compaction is decided here and nowhere else: an arrange operator's agent
// holds the trace's primary handle, and maintain moves its logical frontier
// to the trace's upper with every sealed batch. Times below the sealed upper
// are complete, so no reader that attaches later can tell them apart;
// readers that attached earlier hold the meet back through their own
// handles. An agent created by NewAgentForOperator has no primary handle:
// the operator's own handle on its output plays that part.
type TraceAgent[K, V any] struct {
	Fn      Funcs[K, V]
	spine   *Spine[K, V]
	primary *Handle[K, V]
	upper   lattice.Frontier
	depth   int
	subs    []*importSub[K, V]
	sink    BatchSink[K, V] // non-nil for durable arrangements
}

type importSub[K, V any] struct {
	queue []*Batch[K, V]
}

// Upper returns the frontier through which the trace has been sealed.
func (a *TraceAgent[K, V]) Upper() lattice.Frontier { return a.upper }

// Closed reports whether the upstream collection has finished (empty upper).
func (a *TraceAgent[K, V]) Closed() bool { return a.upper.Empty() }

// NewHandle returns a fresh read handle on the trace, starting at the
// trace's current compaction frontier. It panics on a stream-only
// arrangement, which has no trace.
func (a *TraceAgent[K, V]) NewHandle() *Handle[K, V] {
	if a.spine == nil {
		panic("core: a stream-only arrangement has no trace to read")
	}
	return a.spine.NewHandle()
}

// Spine exposes the spine for stats; nil for stream-only arrangements.
func (a *TraceAgent[K, V]) Spine() *Spine[K, V] { return a.spine }

// CompactionFrontier returns the trace's current compaction frontier — the
// meet of all live readers' logical frontiers, the promise a run-chain
// checkpoint manifest records. Panics on a stream-only arrangement.
func (a *TraceAgent[K, V]) CompactionFrontier() lattice.Frontier {
	if a.spine == nil {
		panic("core: a stream-only arrangement has no compaction frontier")
	}
	return a.spine.compactionFrontier()
}

// NewAgentForOperator creates a trace agent for an operator that maintains
// its own output arrangement (the reduce operator's output trace, §5.3.2).
func NewAgentForOperator[K, V any](fn Funcs[K, V], depth int) *TraceAgent[K, V] {
	agent := &TraceAgent[K, V]{
		Fn:    fn,
		spine: NewSpine[K, V](fn, 0),
		upper: lattice.MinFrontier(depth),
		depth: depth,
	}
	agent.spine.SetUpperDepth(depth)
	return agent
}

// Maintain inserts a sealed batch into the trace and feeds every same-worker
// subscription.
func (a *TraceAgent[K, V]) Maintain(b *Batch[K, V]) { a.maintain(b) }

// maintain seals b into the arrangement. The primary handle moves to b's
// upper before the append, so merges that append starts already consolidate
// behind it, and a durable arrangement logs the same frontier right behind
// the batch it follows. A closing batch (empty upper) advances nothing: the
// finished trace stays readable where it was last compacted.
func (a *TraceAgent[K, V]) maintain(b *Batch[K, V]) {
	trail := !b.Upper.Empty()
	if trail && a.primary != nil {
		a.primary.SetLogical(b.Upper)
	}
	if a.spine != nil {
		a.spine.Append(b)
	}
	if a.sink != nil {
		if err := a.sink.AppendBatch(b); err != nil {
			panic(fmt.Sprintf("core: durable sink append: %v", err))
		}
		if trail {
			if err := a.sink.AdvanceSince(b.Upper); err != nil {
				panic(fmt.Sprintf("core: durable sink advance: %v", err))
			}
		}
	}
	for _, sub := range a.subs {
		sub.queue = append(sub.queue, b)
	}
	a.upper = b.Upper.Clone()
}

// Arranged is an arrangement: the stream of shared indexed batches plus the
// trace agent granting same-worker read access. It carries no read handle:
// readers (join, reduce) take their own from the agent, and the trace
// compacts behind the meet of theirs and the agent's primary handle.
type Arranged[K, V any] struct {
	Stream *timely.Stream[*Batch[K, V]]
	Agent  *TraceAgent[K, V]
	// Shift counts how many iteration scopes this arrangement has been
	// entered into: batch and trace times are in the base (outer) domain and
	// must be interpreted with Shift trailing zero coordinates appended.
	// Indices and batches remain shared across the scope boundary (§5.4).
	Shift int
	// Cancel, set on imported arrangements, tears the import down: the
	// source drops its capabilities, detaches its subscription, and emits
	// nothing further. It must run on the owning worker's goroutine (post it
	// as a worker action); the teardown takes effect at the source's next
	// schedule. Nil for arrangements that are not imports.
	Cancel func()
}

// RestoreRuns pre-loads a recovered run chain into a freshly built
// arrangement's trace, bypassing both the output stream and the durable sink
// (the runs are already on disk; re-emitting them would double-log, and late
// subscribers receive them through snapshot imports instead). The trace upper
// advances to the last run's upper, so the arrange operator seals nothing
// until the input frontier passes the recovered point; the primary handle
// starts at since and resumes trailing the upper at the next seal. The chain
// may mix resident batches and spilled (cold) runs: cold runs enter the
// spine as readers without being loaded, so restoring a disk-tiered
// arrangement costs I/O proportional to the resident tier, not the full
// history (the spill tier must be attached via ArrangeOptions.Spill). Must
// run on the owning worker's goroutine before any updates are ingested and
// before any reader imports the trace.
func (a *Arranged[K, V]) RestoreRuns(runs []BatchReader[K, V], since lattice.Frontier) {
	agent := a.Agent
	if agent.spine == nil {
		panic("core: cannot restore a stream-only arrangement")
	}
	if len(agent.spine.entries) != 0 {
		panic("core: cannot restore into a non-empty trace")
	}
	agent.primary.SetLogical(since)
	for _, r := range runs {
		if b, ok := r.(*Batch[K, V]); ok {
			agent.spine.Append(b)
		} else {
			agent.spine.appendCold(r)
		}
		_, upper, _ := r.Bounds()
		agent.upper = upper.Clone()
	}
}

// ShiftTime appends n zero loop coordinates to t (Enter applied n times).
func ShiftTime(t lattice.Time, n int) lattice.Time {
	for i := 0; i < n; i++ {
		t = t.Enter()
	}
	return t
}

// ProjectFrontier strips n loop coordinates from every element of f,
// yielding the base-domain frontier used for compaction and cursor cuts of
// an entered trace.
func ProjectFrontier(f lattice.Frontier, n int) lattice.Frontier {
	if n == 0 {
		return f
	}
	var out lattice.Frontier
	for _, t := range f.Elements() {
		for i := 0; i < n; i++ {
			t = t.Leave()
		}
		out.Insert(t)
	}
	return out
}

// DefaultMaintenanceFuel is the per-schedule trace maintenance budget
// applied on busy schedules (ones that ingested or sealed data). Idle
// schedules apply IdleFuelFactor times as much, so compaction drains off the
// critical path of live data and query installs.
const (
	DefaultMaintenanceFuel = 256
	IdleFuelFactor         = 8
)

// ArrangeOptions tunes an arrangement.
type ArrangeOptions struct {
	// MergeCoef is the merge effort coefficient (MergeLazy, MergeDefault,
	// MergeEager); zero means MergeDefault.
	MergeCoef int
	// StreamOnly builds no trace at all: the operator mints and emits
	// batches but maintains no index (used by Consolidate).
	StreamOnly bool
	// Durable, when non-nil, must be a BatchSink[K, V] for the arrangement's
	// key/value types (ArrangeOptions is not generic, so the field is typed
	// any and asserted at Arrange time; a mismatched sink panics). Every
	// sealed batch is appended to the sink as it enters the spine, followed
	// by the compaction frontier the seal advanced to, so a restarted process
	// can rebuild the trace from the log alone.
	Durable any
	// Spill, when non-nil, attaches a cold storage tier: maintenance evicts
	// the oldest completed runs to Spill.Store (a SpillStore[K, V], asserted
	// at Arrange time) whenever the spine's resident bytes exceed
	// Spill.MaxResidentBytes. Ignored for StreamOnly arrangements.
	Spill *SpillOptions
}

// Arrange builds the paper's arrange operator: it exchanges update triples
// by key hash, buffers them in geometrically merged sorted runs, and when
// the input frontier advances seals an immutable indexed batch which it (i)
// appends to the shared trace, (ii) forwards to same-worker subscribers, and
// (iii) emits on its output stream. One logical-time-decoupled batch is
// minted per frontier advance regardless of how many logical times it spans
// (Principle 1).
func Arrange[K, V any](s *timely.Stream[Update[K, V]], fn Funcs[K, V],
	name string, opt ArrangeOptions) *Arranged[K, V] {

	depth := s.Depth()
	agent := &TraceAgent[K, V]{
		Fn:    fn,
		upper: lattice.MinFrontier(depth),
		depth: depth,
	}
	if !opt.StreamOnly {
		agent.spine = NewSpine[K, V](fn, opt.MergeCoef)
		agent.spine.SetUpperDepth(depth)
		agent.primary = agent.spine.NewHandle()
		if opt.Spill != nil {
			store, ok := opt.Spill.Store.(SpillStore[K, V])
			if !ok {
				panic(fmt.Sprintf("core: ArrangeOptions.Spill.Store is %T, not a SpillStore for this arrangement's types", opt.Spill.Store))
			}
			agent.spine.SetSpill(store, opt.Spill.MaxResidentBytes)
		}
	}
	if opt.Durable != nil {
		sink, ok := opt.Durable.(BatchSink[K, V])
		if !ok {
			panic(fmt.Sprintf("core: ArrangeOptions.Durable is %T, not a BatchSink for this arrangement's types", opt.Durable))
		}
		agent.sink = sink
	}

	exch := func(u Update[K, V]) uint64 { return fn.HashK(u.Key) }
	st := &arrangeState[K, V]{fn: fn, agent: agent}
	stream := timely.Unary[Update[K, V], *Batch[K, V]](s, name, exch, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[Update[K, V]], out *timely.Out[*Batch[K, V]]) {
			st.schedule(ctx, in, out)
		})
	return &Arranged[K, V]{Stream: stream, Agent: agent}
}

// arrangeState is the per-shard state of one arrange operator.
type arrangeState[K, V any] struct {
	fn    Funcs[K, V]
	agent *TraceAgent[K, V]
	// runs is a partially evaluated merge sort: sorted runs of geometrically
	// increasing size, merged when adjacent runs are within 2x in length, so
	// buffered memory stays linear in distinct (data, time) pairs.
	runs [][]Update[K, V]
	// capSet mirrors the retained capabilities: the antichain of minimal
	// pending update times.
	capSet lattice.Frontier
}

func (st *arrangeState[K, V]) schedule(ctx *timely.Ctx,
	in *timely.In[Update[K, V]], out *timely.Out[*Batch[K, V]]) {

	// Ingest new updates, extending capability coverage to their times.
	busy := false
	in.ForEach(func(stamp []lattice.Time, data []Update[K, V]) {
		busy = true
		run := make([]Update[K, V], len(data))
		copy(run, data)
		st.pushRun(SortUpdates(st.fn, run))
		for _, t := range stamp {
			st.extendCap(ctx, t)
		}
	})

	// Seal a batch when the input frontier has advanced past the trace upper.
	frontier := in.Frontier()
	if !frontier.Equal(st.agent.upper) && frontierAdvanced(st.agent.upper, frontier) {
		st.seal(ctx, out, frontier)
		busy = true
	}

	// Fueled trace maintenance continues across schedules: a small budget
	// while data (or an install replay) is in flight, a large one once the
	// operator goes quiet, so compaction stays off the critical path.
	if sp := st.agent.spine; sp != nil {
		fuel := DefaultMaintenanceFuel
		if !busy {
			fuel *= IdleFuelFactor
		}
		if sp.Work(fuel) {
			ctx.Activate()
		}
	}
}

// frontierAdvanced reports whether new is strictly beyond old for at least
// one element (i.e. sealing [old, new) is non-trivial and legal).
func frontierAdvanced(old, new lattice.Frontier) bool {
	// new must dominate nothing before old: every element of new must be in
	// advance of old, or the frontiers are incomparable (wait for more).
	for _, t := range new.Elements() {
		if !old.LessEqual(t) {
			return false
		}
	}
	return true
}

// pushRun adds a sorted run, merging geometrically comparable neighbours.
// Both neighbours are sorted and coalesced, so the merge is a linear pass
// rather than a re-sort of the concatenation.
func (st *arrangeState[K, V]) pushRun(run []Update[K, V]) {
	if len(run) == 0 {
		return
	}
	st.runs = append(st.runs, run)
	for len(st.runs) >= 2 {
		n := len(st.runs)
		if len(st.runs[n-2]) > 2*len(st.runs[n-1]) {
			break
		}
		merged := MergeSortedUpdates(st.fn, st.runs[n-2], st.runs[n-1])
		st.runs = st.runs[:n-2]
		if len(merged) > 0 {
			st.runs = append(st.runs, merged)
		}
	}
}

// extendCap retains a capability at t unless already covered.
func (st *arrangeState[K, V]) extendCap(ctx *timely.Ctx, t lattice.Time) {
	if st.capSet.LessEqual(t) {
		return
	}
	ctx.Retain(0, t)
	// Drop any capabilities the new one dominates.
	for _, e := range st.capSet.Elements() {
		if t.LessEqual(e) {
			ctx.Drop(0, e)
		}
	}
	st.capSet.Insert(t)
}

// seal extracts all buffered updates not in advance of the new frontier,
// mints one immutable batch covering [upper, frontier), maintains the trace,
// emits the batch, and rebuilds capability coverage for what remains.
func (st *arrangeState[K, V]) seal(ctx *timely.Ctx,
	out *timely.Out[*Batch[K, V]], frontier lattice.Frontier) {

	// Split every run in order: both halves inherit the run's sort order, so
	// the sealed updates fold together with linear merges (BuildBatch's sort
	// then sees already-sorted input) and the remainders re-enter the run
	// stack without re-sorting.
	var sealed []Update[K, V]
	var rests [][]Update[K, V]
	for _, run := range st.runs {
		var s, r []Update[K, V]
		for _, u := range run {
			if frontier.LessEqual(u.Time) {
				r = append(r, u)
			} else {
				s = append(s, u)
			}
		}
		if sealed == nil {
			sealed = s
		} else if len(s) > 0 {
			sealed = MergeSortedUpdates(st.fn, sealed, s)
		}
		if len(r) > 0 {
			rests = append(rests, r)
		}
	}
	st.runs = st.runs[:0]
	for _, r := range rests {
		st.pushRun(r)
	}

	since := lattice.MinFrontier(st.agent.depth)
	if sp := st.agent.spine; sp != nil {
		since = sp.compactionFrontier()
	}
	b := BuildBatch(st.fn, sealed, st.agent.upper.Clone(), frontier.Clone(), since)

	// New capability coverage: minimal times of remaining updates. Retain
	// before dropping old caps so every retention is justified.
	var newCaps lattice.Frontier
	for _, r := range rests {
		for _, u := range r {
			newCaps.Insert(u.Time)
		}
	}
	for _, t := range newCaps.Elements() {
		if !contains(st.capSet, t) {
			ctx.Retain(0, t)
		}
	}
	for _, t := range st.capSet.Elements() {
		if !contains(newCaps, t) {
			ctx.Drop(0, t)
		}
	}
	st.capSet = newCaps

	st.agent.maintain(b)
	out.SendSlice(b.MinTimes(), []*Batch[K, V]{b})
}

func contains(f lattice.Frontier, t lattice.Time) bool {
	for _, e := range f.Elements() {
		if e == t {
			return true
		}
	}
	return false
}

// ImportOptions tunes a cross-dataflow trace import.
type ImportOptions struct {
	// Snapshot presents the replayed history as of the trace's compaction
	// frontier (§6.2, Fig 5): every visible run is emitted as an as-of view,
	// so a query installed against a long-running arrangement sees the
	// history at the open epoch and its first results complete when that
	// epoch seals. Without it the runs are emitted as they are stored, at
	// whatever historical times merges have not yet advanced. That is not a
	// cheaper mode — both emit the same runs by reference — but a different
	// contract: raw times put the importing dataflow's first evaluation
	// behind times the server has long sealed, and a front-end waiting for a
	// query to be complete through the loaded epoch then waits for every
	// standing plan's first evaluation too (measured: wire_datalog set-up
	// 0.018 s to 0.05 s). Server imports therefore always set it.
	Snapshot bool
}

// Import mirrors an existing trace into a new dataflow on the same worker
// (§4.3): the source first emits the trace's visible runs, then every newly
// minted batch, with its capability tracking the trace's upper frontier. The
// returned arrangement shares the original trace and, like every
// arrangement, holds no handle on it: shells such as JoinCore acquire their
// own from the agent.
func Import[K, V any](g *timely.Graph, agent *TraceAgent[K, V], name string) *Arranged[K, V] {
	return ImportOpts(g, agent, name, ImportOptions{})
}

// snapshotFrontier is the frontier a snapshot of the trace sits at: the meet
// of all live readers' logical frontiers, joined with every visible run's own
// Since. Stored times are only exact at or beyond the frontier they were
// already compacted to, so a snapshot may (and, for self-consistency of its
// bounds, must) advance at least that far, whatever the readers currently
// say.
func (a *TraceAgent[K, V]) snapshotFrontier() lattice.Frontier {
	since := a.spine.compactionFrontier()
	for _, r := range a.spine.Runs() {
		_, _, bs := r.Bounds()
		since = lattice.JoinFrontiers(since, bs)
	}
	if since.Empty() {
		since = lattice.MinFrontier(a.depth)
	}
	return since
}

// ImportOpts is Import with explicit options. The returned arrangement's
// Cancel tears the import down on its owning worker (run it via a posted
// worker action): capabilities drop, the subscription detaches, and the
// source emits nothing further — the mechanism behind live query uninstall.
//
// The history is the trace's visible runs, shared by reference: runs are
// immutable, so the importing dataflow reads the very columns the spine
// holds, and installing it costs a header per run, not a pass over the
// updates (a spilled run is the exception: it is loaded once, as a merge
// would load it). Nobody may write through an emitted batch.
func ImportOpts[K, V any](g *timely.Graph, agent *TraceAgent[K, V], name string,
	opt ImportOptions) *Arranged[K, V] {

	if agent.spine == nil {
		panic("core: cannot import a stream-only arrangement")
	}
	sub := &importSub[K, V]{}
	agent.subs = append(agent.subs, sub)

	// Take the history now: batches minted after this point arrive through
	// the subscription, so the replay-then-live sequence has no gap and no
	// overlap. (Import runs on the worker goroutine that also schedules the
	// arrange operator, so this cut is consistent.)
	history := agent.spine.visibleBatches()
	if opt.Snapshot {
		asOf := agent.snapshotFrontier()
		for i, b := range history {
			history[i] = b.viewAsOf(asOf)
		}
	}

	cancelled := false
	detached := false
	var capSet lattice.Frontier
	capSet.Insert(lattice.Ts(0))

	detach := func(ctx *timely.Ctx) {
		for _, t := range capSet.Elements() {
			ctx.Drop(0, t)
		}
		capSet = lattice.Frontier{}
		for i, s := range agent.subs {
			if s == sub {
				agent.subs = append(agent.subs[:i], agent.subs[i+1:]...)
				break
			}
		}
		sub.queue = nil
		history = nil
		detached = true
	}

	stream := timely.Source[*Batch[K, V]](g, name, 1, lattice.Ts(0),
		func(ctx *timely.Ctx, out *timely.Out[*Batch[K, V]]) {
			if cancelled {
				if !detached {
					detach(ctx)
				}
				return
			}
			// The history goes out once and is let go: this closure lives as
			// long as the import, and must not pin runs the spine has since
			// merged away.
			for _, b := range history {
				out.SendSlice(b.MinTimes(), []*Batch[K, V]{b})
			}
			history = nil
			for _, b := range sub.queue {
				out.SendSlice(b.MinTimes(), []*Batch[K, V]{b})
			}
			clear(sub.queue)
			sub.queue = sub.queue[:0]
			// Downgrade capabilities to the trace's upper frontier.
			upper := agent.upper
			if !capSet.Equal(upper) {
				for _, t := range upper.Elements() {
					if !contains(capSet, t) {
						ctx.Retain(0, t)
					}
				}
				for _, t := range capSet.Elements() {
					if !contains(upper, t) {
						ctx.Drop(0, t)
					}
				}
				capSet = upper.Clone()
			}
		})
	out := &Arranged[K, V]{Stream: stream, Agent: agent}
	out.Cancel = func() { cancelled = true }
	return out
}
