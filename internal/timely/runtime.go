// Package timely implements a data-parallel dataflow runtime in the style of
// timely dataflow (Naiad): a static set of workers, each a single goroutine,
// cooperatively schedule shards of every operator of every live dataflow.
// All data carry partially ordered logical timestamps and the runtime
// provides every operator with a frontier: a lower bound on the timestamps
// it may still receive. Dataflow graphs may contain cycles through Feedback
// operators, whose progress summaries increment a loop coordinate.
//
// Workers are goroutines; a process runs a contiguous shard of the global
// worker set over a pluggable communication fabric (see fabric.go). In the
// default single-process mode the progress protocol is a shared per-dataflow
// tracker updated with atomic batches; across processes each holds a full
// replica of the tracker and pointstamp-delta batches are broadcast through
// the fabric — Naiad's distributed could-result-in protocol.
package timely

import (
	"sync"

	"repro/internal/lattice"
)

// runtime is the state shared by the local workers of one Execute call or
// one Cluster. peers is the global worker count across every process of the
// fabric; this process runs the contiguous index range [first, first+nlocal).
type runtime struct {
	peers  int
	first  int
	nlocal int
	fab    Fabric

	mu       sync.Mutex
	cond     *sync.Cond
	activity uint64 // bumped whenever anything happens; wakes idle workers

	trackers  []*tracker // per dataflow sequence number
	scratchMu sync.Mutex
	scratch   []*closureScratch // idle progress-closure scratch (progress.go)
	mailboxes map[mailboxKey]any

	// inbound maps (dataflow, channel) to the decode-and-enqueue handler for
	// remote data partitions; pending stashes frames that arrive before the
	// local process has built the channel (peers install dataflows without a
	// barrier, so a fast peer's first flush can beat our construction).
	inbound map[[2]int]inboundHandler
	pending map[[2]int][]pendingFrame

	// actions holds, per worker (global index), closures posted from other
	// goroutines to be run on that worker's goroutine (live dataflow
	// installation, trace handle maintenance, teardown). Only Cluster workers
	// drain them; only local slots are used.
	actions [][]func(w *Worker)
	stopped bool // set by Cluster.Shutdown; serving workers exit when idle
}

type mailboxKey struct {
	dataflow int
	channel  int
	worker   int
}

// inboundHandler decodes one remote data partition and enqueues it on the
// destination worker's mailbox. Registered once per exchanged channel.
type inboundHandler func(worker int, stamp []lattice.Time, payload []byte) error

type pendingFrame struct {
	worker  int
	stamp   []lattice.Time
	payload []byte
}

func newRuntime(fab Fabric) *runtime {
	rt := &runtime{
		peers:     fab.Workers(),
		first:     fab.FirstLocal(),
		nlocal:    fab.LocalWorkers(),
		fab:       fab,
		mailboxes: make(map[mailboxKey]any),
		inbound:   make(map[[2]int]inboundHandler),
		pending:   make(map[[2]int][]pendingFrame),
		actions:   make([][]func(w *Worker), fab.Workers()),
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// remote reports whether other processes exist (progress must be broadcast
// and exchanged partitions may need the wire).
func (rt *runtime) remote() bool { return rt.nlocal < rt.peers }

// localWorker reports whether global worker index w runs in this process.
func (rt *runtime) localWorker(w int) bool { return w >= rt.first && w < rt.first+rt.nlocal }

// registerInbound installs the remote-partition handler for one exchanged
// channel (first local worker to attach wins) and replays any frames that
// arrived before construction.
func (rt *runtime) registerInbound(df, ch int, h inboundHandler) {
	key := [2]int{df, ch}
	rt.mu.Lock()
	if _, dup := rt.inbound[key]; dup {
		rt.mu.Unlock()
		return
	}
	rt.inbound[key] = h
	stash := rt.pending[key]
	delete(rt.pending, key)
	rt.mu.Unlock()
	for _, f := range stash {
		if err := h(f.worker, f.stamp, f.payload); err != nil {
			rt.fab.Fail(err)
			return
		}
	}
	if len(stash) > 0 {
		rt.wake()
	}
}

// DeliverData implements FabricHost: route one remote data partition to the
// destination worker's mailbox, stashing it if the channel is not built yet.
func (rt *runtime) DeliverData(df, ch, worker int, stamp []lattice.Time, payload []byte) error {
	key := [2]int{df, ch}
	rt.mu.Lock()
	h, ok := rt.inbound[key]
	if !ok {
		rt.pending[key] = append(rt.pending[key], pendingFrame{worker, stamp, payload})
		rt.mu.Unlock()
		return nil
	}
	rt.mu.Unlock()
	if err := h(worker, stamp, payload); err != nil {
		return err
	}
	rt.wake()
	return nil
}

// DeliverProgress implements FabricHost: apply one peer's pointstamp-delta
// batch to the local replica of the dataflow's tracker.
func (rt *runtime) DeliverProgress(df int, deltas []ProgressDelta) {
	rt.trackerFor(df).applyRemote(deltas)
}

// trackerFor returns (creating if needed) the progress tracker for the given
// dataflow sequence number. Slots of uninstalled dataflows are nil; sequence
// numbers are never reused, so a nil slot is only ever re-filled here if a
// caller races an uninstall it initiated itself, which the Cluster forbids.
func (rt *runtime) trackerFor(seq int) *tracker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for seq >= len(rt.trackers) {
		rt.trackers = append(rt.trackers, newTracker(rt, len(rt.trackers)))
	}
	if rt.trackers[seq] == nil {
		rt.trackers[seq] = newTracker(rt, seq)
	}
	return rt.trackers[seq]
}

// wake bumps the activity counter and wakes all parked workers.
func (rt *runtime) wake() {
	rt.mu.Lock()
	rt.activity++
	rt.mu.Unlock()
	rt.cond.Broadcast()
}

// waitActivity parks the calling worker until the activity counter moves
// past the provided generation.
func (rt *runtime) waitActivity(gen uint64) {
	rt.mu.Lock()
	for rt.activity == gen {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
}

func (rt *runtime) activityGen() uint64 {
	rt.mu.Lock()
	g := rt.activity
	rt.mu.Unlock()
	return g
}

// mailbox is one typed FIFO queue from any sender to one worker on one
// channel. Queues are unbounded: memory is bounded by progress (operators
// drain their inputs each schedule), not by backpressure, as in timely.
// Drained queue segments are recycled (see recycle), so steady-state
// delivery reuses one backing array per mailbox.
type mailbox[D any] struct {
	mu    sync.Mutex
	queue []message[D]
	free  []message[D] // recycled backing for the next queue
}

// message is one timestamped bundle of data. The stamp is an antichain: the
// minimal logical times of the contents. An empty stamp is legal and carries
// no progress obligation (used for data-free signals such as empty batches).
// pool, when non-nil, owns the data slice: the receiver returns it after
// delivery (exchanged channels only).
type message[D any] struct {
	stamp []lattice.Time
	data  []D
	pool  *slicePool[D]
}

func (m *mailbox[D]) push(msg message[D]) {
	m.mu.Lock()
	if m.queue == nil && m.free != nil {
		m.queue, m.free = m.free, nil
	}
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
}

func (m *mailbox[D]) drain() []message[D] {
	m.mu.Lock()
	q := m.queue
	m.queue = nil
	m.mu.Unlock()
	return q
}

// recycle returns a fully processed drain result for reuse as queue backing.
// Entries are cleared so the recycled array retains no slices.
func (m *mailbox[D]) recycle(q []message[D]) {
	if cap(q) == 0 {
		return
	}
	clear(q[:cap(q)])
	m.mu.Lock()
	if m.free == nil {
		m.free = q[:0]
	}
	m.mu.Unlock()
}

// mailboxFor returns (creating if needed) the typed mailbox for a
// (dataflow, channel, worker) triple. Mailboxes exist only for local
// workers; remote destinations go through the fabric.
func mailboxFor[D any](rt *runtime, df, ch, worker int) *mailbox[D] {
	if !rt.localWorker(worker) {
		panic("timely: mailbox for non-local worker")
	}
	key := mailboxKey{df, ch, worker}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if mb, ok := rt.mailboxes[key]; ok {
		return mb.(*mailbox[D])
	}
	mb := &mailbox[D]{}
	rt.mailboxes[key] = mb
	return mb
}

// Execute runs program once per worker on peers workers and blocks until all
// return. Every worker must construct the same dataflows in the same order
// (operator identifiers are assigned by construction order). Worker indices
// are 0..peers-1.
func Execute(peers int, program func(w *Worker)) {
	ExecuteFabric(NewLocalFabric(peers), program)
}
