package core

import (
	"fmt"
	"slices"

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

// TraceAgent is the worker-local owner of one arrangement: the spine, the
// frontier through which batches have been sealed, the durable sink if the
// arrangement has one, and the list of same-worker subscriptions feeding
// imports of this trace into other dataflows.
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
// trace's current compaction frontier.
func (a *TraceAgent[K, V]) NewHandle() *Handle[K, V] { return a.spine.NewHandle() }

// Spine exposes the spine for stats.
func (a *TraceAgent[K, V]) Spine() *Spine[K, V] { return a.spine }

// CompactionFrontier returns the trace's current compaction frontier — the
// meet of all live readers' logical frontiers, the promise a run-chain
// checkpoint manifest records.
func (a *TraceAgent[K, V]) CompactionFrontier() lattice.Frontier {
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

// Seal builds the batch of upds covering [Upper, upper), maintains the trace
// with it and returns it. Its Since is the trace's compaction frontier, the
// meet of every reader's handle: a merge joins its inputs' Since into its
// own frontier, so a batch stamped ahead of any reader would let merges
// collapse times that reader still tells apart.
func (a *TraceAgent[K, V]) Seal(upds []Update[K, V], upper lattice.Frontier) *Batch[K, V] {
	b := BuildBatch(a.Fn, upds, a.upper.Clone(), upper.Clone(), a.spine.compactionFrontier())
	a.maintain(b)
	return b
}

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
	a.spine.Append(b)
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

// maintenanceFuel is the per-schedule trace maintenance budget applied on
// busy schedules (ones that ingested or sealed data). Idle schedules apply
// idleFuelFactor times as much, so compaction drains off the critical path
// of live data and query installs.
const (
	maintenanceFuel = 256
	idleFuelFactor  = 8
)

// Work spends one schedule's maintenance budget on the trace's merges — the
// small one if the operator was busy this schedule, the idle one otherwise —
// and reactivates the operator while merge work remains owed. Every operator
// that owns a trace calls it once per schedule.
func (a *TraceAgent[K, V]) Work(ctx *timely.Ctx, busy bool) {
	fuel := maintenanceFuel
	if !busy {
		fuel *= idleFuelFactor
	}
	if a.spine.Work(fuel) {
		ctx.Activate()
	}
}

// ArrangeOptions tunes an arrangement. The zero value arranges in memory
// with no durable log.
type ArrangeOptions[K, V any] struct {
	// Durable, when non-nil, receives every sealed batch as it enters the
	// spine, followed by the compaction frontier the seal advanced to, so a
	// restarted process can rebuild the trace from the log alone.
	Durable BatchSink[K, V]
	// Spill, when non-nil, attaches a cold storage tier: maintenance evicts
	// the oldest completed runs to it whenever the spine's approximate
	// resident bytes exceed MaxResidentBytes. Merges read cold inputs a
	// block at a time and write output bound for disk a block at a time, so
	// the bound holds up to one block per merge input plus the one output
	// block being filled.
	Spill SpillStore[K, V]
	// MaxResidentBytes is the spine's resident budget; it has no effect
	// without Spill.
	MaxResidentBytes int64
}

// Arrange builds the paper's arrange operator: it exchanges update triples
// by key hash, buffers them until the input frontier passes their times, and
// then seals them into an immutable indexed batch which it (i) appends to the
// shared trace, (ii) forwards to same-worker subscribers, and (iii) emits on
// its output stream. One logical-time-decoupled batch is minted per frontier
// advance regardless of how many logical times it spans (Principle 1).
func Arrange[K, V any](s *timely.Stream[Update[K, V]], fn Funcs[K, V],
	name string, opt ArrangeOptions[K, V]) *Arranged[K, V] {

	depth := s.Depth()
	agent := &TraceAgent[K, V]{
		Fn:    fn,
		spine: NewSpine[K, V](fn, MergeDefault),
		upper: lattice.MinFrontier(depth),
		depth: depth,
		sink:  opt.Durable,
	}
	agent.spine.SetUpperDepth(depth)
	agent.primary = agent.spine.NewHandle()
	if opt.Spill != nil {
		agent.spine.SetSpill(opt.Spill, opt.MaxResidentBytes)
	}

	exch := func(u Update[K, V]) uint64 { return fn.HashK(u.Key) }
	st := &arrangeState[K, V]{agent: agent}
	stream := timely.Unary[Update[K, V], *Batch[K, V]](s, name, exch, timely.SumID, nil,
		func(ctx *timely.Ctx, in *timely.In[Update[K, V]], out *timely.Out[*Batch[K, V]]) {
			st.schedule(ctx, in, out)
		})
	return &Arranged[K, V]{Stream: stream, Agent: agent}
}

// arrangeState is the per-shard state of one arrange operator.
type arrangeState[K, V any] struct {
	agent *TraceAgent[K, V]
	// pending holds the raw updates at times the input frontier has not yet
	// passed, in arrival order: the LSM's memtable, sorted and consolidated
	// once, by BuildBatch, at the seal that passes them.
	pending []Update[K, V]
}

func (st *arrangeState[K, V]) schedule(ctx *timely.Ctx,
	in *timely.In[Update[K, V]], out *timely.Out[*Batch[K, V]]) {

	// Ingest new updates; the held capabilities cover their times. The
	// append copies: exchanged slices go back to their pool.
	busy := false
	in.ForEach(func(stamp []lattice.Time, data []Update[K, V]) {
		busy = true
		st.pending = append(st.pending, data...)
		out.Caps().Insert(stamp...)
	})

	// Seal a batch when the input frontier has advanced past the trace upper
	// (and not merely moved to an incomparable frontier: wait for more).
	frontier := in.Frontier()
	if !frontier.Equal(st.agent.upper) && st.agent.upper.Dominates(frontier) {
		st.seal(out, frontier)
		busy = true
	}
	st.agent.Work(ctx, busy)
}

// seal mints one immutable batch of the buffered updates the new frontier
// has passed, covering [upper, frontier), maintains the trace, emits the
// batch, and downgrades the capabilities to the minimal times of the rest.
func (st *arrangeState[K, V]) seal(out *timely.Out[*Batch[K, V]], frontier lattice.Frontier) {
	// One pass moves the updates still ahead of the frontier to the front;
	// the sealed ones stay behind them, in no order, for BuildBatch to sort.
	p := st.pending
	var held lattice.Frontier
	r := 0
	for i := range p {
		if frontier.LessEqual(p[i].Time) {
			held.Insert(p[i].Time)
			p[r], p[i] = p[i], p[r]
			r++
		}
	}
	b := st.agent.Seal(p[r:], frontier)
	out.SendSlice(b.MinTimes(), []*Batch[K, V]{b})

	// The batch holds what was sealed: the buffer lets go of it, and keeps
	// its capacity only while the rest needs it.
	clear(p[r:])
	st.pending = p[:r]
	if cap(st.pending) > 4*len(st.pending) {
		st.pending = slices.Clone(st.pending)
	}
	out.Caps().Downgrade(held)
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

// ImportOpts mirrors an existing trace into a new dataflow on the same
// worker (§4.3): the source first emits the trace's visible runs, then every
// newly minted batch, with its capability tracking the trace's upper
// frontier. The returned arrangement shares the original trace and, like
// every arrangement, holds no handle on it: shells such as JoinCore acquire
// their own from the agent. Its Cancel tears the import down on its owning
// worker (run it via a posted worker action): capabilities drop, the
// subscription detaches, and the source emits nothing further — the
// mechanism behind live query uninstall.
//
// The history is the trace's visible runs, shared by reference: runs are
// immutable, so the importing dataflow reads the very columns the spine
// holds, and installing it costs a header per run, not a pass over the
// updates (a spilled run is the exception: it is loaded once, as a merge
// would load it). Nobody may write through an emitted batch.
func ImportOpts[K, V any](g *timely.Graph, agent *TraceAgent[K, V], name string,
	opt ImportOptions) *Arranged[K, V] {

	sub := &importSub[K, V]{}
	agent.subs = append(agent.subs, sub)

	// Take the history now: batches minted after this point arrive through
	// the subscription, so the replay-then-live sequence has no gap and no
	// overlap. (ImportOpts runs on the worker goroutine that also schedules the
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

	detach := func(caps *timely.CapSet) {
		caps.Downgrade(lattice.Frontier{})
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
					detach(out.Caps())
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
			// Trail the trace's upper, from the initial capability at 0 on.
			out.Caps().Downgrade(agent.upper)
		})
	out := &Arranged[K, V]{Stream: stream, Agent: agent}
	out.Cancel = func() { cancelled = true }
	return out
}
