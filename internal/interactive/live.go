package interactive

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/timely"
)

// argFuture is the epoch query-argument inputs are pushed to at install:
// arguments are fixed for the query's lifetime, so their clock runs ahead
// and the output frontier tracks the edges alone.
const argFuture = uint64(1) << 40

// Live hosts the interactive query classes on a server: the edge graph is a
// named, continuously maintained source, and every query is a dataflow
// installed — and uninstalled — while edge updates stream. Whether a query
// shares the server's edges arrangement (importing its runs by reference) or
// rebuilds a private one from the replayed edge log is an install-time
// choice per query, turning Fig 5's static shared/not-shared configurations
// into a live decision.
//
// Live is driven by one goroutine at a time (its mutex serializes drivers).
type Live struct {
	Srv   *server.Server
	Edges *server.Source[uint64, uint64]

	mu      sync.Mutex
	queries map[string]liveHandle
}

// liveHandle is the class-erased view of a live query the epoch cycle needs.
type liveHandle interface {
	feedEdges(upds []core.Update[uint64, uint64])
	advanceEdges(epoch uint64)
}

// StartLive launches a server hosting the shared edges arrangement.
func StartLive(workers int) (*Live, error) {
	srv := server.New(workers)
	edges, err := server.NewSource(srv, "edges", core.U64())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Live{Srv: srv, Edges: edges, queries: make(map[string]liveHandle)}, nil
}

// Close uninstalls nothing and stops the server (live queries are abandoned
// with it); use LiveQuery.Close first for orderly teardown.
func (l *Live) Close() { l.Srv.Close() }

// UpdateEdges applies edge updates at the current epoch: to the shared
// arrangement and to every rebuilt query's private arrangement.
func (l *Live) UpdateEdges(upds []core.Update[uint64, uint64]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range l.queries {
		q.feedEdges(upds)
	}
	// A racing Close means the whole harness is coming down; nothing to do.
	_ = l.Edges.Update(upds)
}

// InsertEdge adds one edge at the current epoch.
func (l *Live) InsertEdge(src, dst uint64) {
	l.UpdateEdges([]core.Update[uint64, uint64]{{Key: src, Val: dst, Diff: 1}})
}

// RemoveEdge deletes one edge at the current epoch.
func (l *Live) RemoveEdge(src, dst uint64) {
	l.UpdateEdges([]core.Update[uint64, uint64]{{Key: src, Val: dst, Diff: -1}})
}

// Advance seals the current epoch everywhere and returns it.
func (l *Live) Advance() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.advanceLocked()
}

func (l *Live) advanceLocked() uint64 {
	sealed, _ := l.Edges.Advance()
	next := sealed + 1
	for _, q := range l.queries {
		q.advanceEdges(next)
	}
	return sealed
}

// Sync blocks until the shared arrangement reflects every sealed epoch.
func (l *Live) Sync() { _ = l.Edges.Sync() }

// LiveQuery is one installed query-class dataflow and its result stream.
type LiveQuery[K comparable, V comparable] struct {
	Name string
	// Results is the continuously maintained net result collection
	// (consolidated as updates arrive, so it stays proportional to the
	// result set however long the query lives).
	Results *dd.View[K, V]
	// InstallLatency is the measured install-to-first-complete-result time:
	// from the installation request until the query's results through the
	// epoch sealed at install were complete.
	InstallLatency time.Duration

	l         *Live
	q         *server.Query
	shared    bool
	args      []argHandle
	privEdges []*dd.InputCollection[uint64, uint64] // nil when shared
	epoch     uint64                                // private-edges clock (== Edges epoch)
}

// argHandle is the driver-side surface of a query-argument input.
type argHandle interface {
	AdvanceTo(epoch uint64)
	Close()
}

func (q *LiveQuery[K, V]) feedEdges(upds []core.Update[uint64, uint64]) {
	if len(q.privEdges) == 0 {
		return
	}
	q.privEdges[0].SendSlice(core.StampAt(upds, lattice.Ts(q.epoch)))
}

func (q *LiveQuery[K, V]) advanceEdges(epoch uint64) {
	q.epoch = epoch
	for _, in := range q.privEdges {
		in.AdvanceTo(epoch)
	}
}

// WaitDone blocks until the query's results through the sealed epoch are
// complete; false if the server stopped first.
func (q *LiveQuery[K, V]) WaitDone(sealed uint64) bool {
	return q.q.WaitDone(lattice.Ts(sealed))
}

// Close uninstalls the query while the rest of the system keeps serving.
func (q *LiveQuery[K, V]) Close() {
	q.l.mu.Lock()
	delete(q.l.queries, q.Name)
	q.l.mu.Unlock()
	for _, a := range q.args {
		a.Close()
	}
	for _, in := range q.privEdges {
		in.Close()
	}
	q.q.Uninstall()
}

// install is the class-generic installation path. class builds the query
// dataflow over an edges arrangement (per worker); seed sends the query
// arguments on worker 0's handles; args lists every worker's argument
// handles (valid once the install returns). With shared=true the dataflow
// imports the server's edges arrangement (its runs as of the compaction
// frontier + live batches). Otherwise it rebuilds a private arrangement by
// replaying history — the raw edge-update log — which is what a system
// without shared arrangements pays on query arrival: it has no index, only
// the input stream, so the full log is re-exchanged, re-sorted, and
// re-indexed (the cancelling pairs the shared arrangement already
// consolidated away included). The private arrangement then follows all future edge updates.
// The call returns once the query's results through the epoch sealed at
// install are complete, with the measured latency recorded.
func install[K comparable, V comparable](l *Live, name string, shared bool,
	history []core.Update[uint64, uint64],
	class func(g *timely.Graph, w *timely.Worker, aE *core.Arranged[uint64, uint64]) dd.Collection[K, V],
	seed func(), args func() []argHandle) (*LiveQuery[K, V], error) {

	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()

	results := &dd.View[K, V]{}
	lq := &LiveQuery[K, V]{Name: name, Results: results, l: l, shared: shared}
	if !shared {
		lq.privEdges = make([]*dd.InputCollection[uint64, uint64], l.Srv.Workers())
	}
	q, err := l.Srv.Install(name, func(w *timely.Worker, g *timely.Graph) server.Built {
		var aE *core.Arranged[uint64, uint64]
		var cancel func()
		if shared {
			imported := l.Edges.ImportInto(g)
			aE = imported
			cancel = imported.Cancel
		} else {
			ein, ec := dd.NewInput[uint64, uint64](g)
			lq.privEdges[w.Index()] = ein
			aE = dd.Arrange(ec, core.U64(), name+"-edges")
		}
		out := class(g, w, aE)
		dd.Watch(out, results)
		probe := dd.Probe(out)
		return server.Built{Probe: probe, Teardown: func() {
			if cancel != nil {
				cancel()
			}
		}}
	})
	if err != nil {
		return nil, err
	}
	lq.q = q

	epoch := l.Edges.Epoch()
	lq.epoch = epoch
	if !shared {
		// Replay the edge log into the private arrangement, then align its
		// clock with the shared epoch.
		lq.privEdges[0].SendSlice(core.StampAt(history, lattice.Ts(0)))
		if epoch > 0 {
			for _, in := range lq.privEdges {
				in.AdvanceTo(epoch)
			}
		}
	}
	seed()
	lq.args = args()
	for _, a := range lq.args {
		a.AdvanceTo(argFuture)
	}

	// Register before sealing so the private arrangement follows the epoch
	// cycle, then flush one epoch: the import presents history as of the open
	// epoch, so first results complete when it seals.
	l.queries[name] = lq
	sealed := l.advanceLocked()
	if !q.WaitDone(lattice.Ts(sealed)) {
		delete(l.queries, name)
		return nil, fmt.Errorf("interactive: server stopped during install of %q", name)
	}
	lq.InstallLatency = time.Since(start)
	return lq, nil
}

// argHandles adapts per-worker argument inputs to the driver-side surface.
func argHandles[V any](qins []*dd.InputCollection[uint64, V]) func() []argHandle {
	return func() []argHandle {
		out := make([]argHandle, len(qins))
		for i, qi := range qins {
			out[i] = qi
		}
		return out
	}
}

// keyArgs builds the seed/args plumbing for the three key-argument classes.
func keyArgs(keys []uint64,
	qins []*dd.InputCollection[uint64, core.Unit]) (func(), func() []argHandle) {
	seed := func() {
		for _, k := range keys {
			qins[0].Insert(k, core.Unit{})
		}
	}
	return seed, argHandles(qins)
}

// InstallLookup installs the point look-up class for the given vertices.
func (l *Live) InstallLookup(name string, keys []uint64, shared bool,
	history []core.Update[uint64, uint64]) (*LiveQuery[uint64, int64], error) {
	qins := make([]*dd.InputCollection[uint64, core.Unit], l.Srv.Workers())
	seed, args := keyArgs(keys, qins)
	return install(l, name, shared, history,
		func(g *timely.Graph, w *timely.Worker, aE *core.Arranged[uint64, uint64]) dd.Collection[uint64, int64] {
			qi, qc := dd.NewInput[uint64, core.Unit](g)
			qins[w.Index()] = qi
			return Lookup(aE, qc)
		}, seed, args)
}

// InstallOneHop installs the 1-hop neighbourhood class.
func (l *Live) InstallOneHop(name string, keys []uint64, shared bool,
	history []core.Update[uint64, uint64]) (*LiveQuery[uint64, uint64], error) {
	qins := make([]*dd.InputCollection[uint64, core.Unit], l.Srv.Workers())
	seed, args := keyArgs(keys, qins)
	return install(l, name, shared, history,
		func(g *timely.Graph, w *timely.Worker, aE *core.Arranged[uint64, uint64]) dd.Collection[uint64, uint64] {
			qi, qc := dd.NewInput[uint64, core.Unit](g)
			qins[w.Index()] = qi
			return OneHop(aE, qc)
		}, seed, args)
}

// InstallTwoHop installs the 2-hop neighbourhood class.
func (l *Live) InstallTwoHop(name string, keys []uint64, shared bool,
	history []core.Update[uint64, uint64]) (*LiveQuery[uint64, uint64], error) {
	qins := make([]*dd.InputCollection[uint64, core.Unit], l.Srv.Workers())
	seed, args := keyArgs(keys, qins)
	return install(l, name, shared, history,
		func(g *timely.Graph, w *timely.Worker, aE *core.Arranged[uint64, uint64]) dd.Collection[uint64, uint64] {
			qi, qc := dd.NewInput[uint64, core.Unit](g)
			qins[w.Index()] = qi
			return TwoHop(aE, qc)
		}, seed, args)
}

// InstallPath installs the 4-hop shortest-path class for (src, dst) pairs.
func (l *Live) InstallPath(name string, pairs [][2]uint64, shared bool,
	history []core.Update[uint64, uint64]) (*LiveQuery[[2]uint64, uint64], error) {
	qins := make([]*dd.InputCollection[uint64, uint64], l.Srv.Workers())
	seed := func() {
		for _, p := range pairs {
			qins[0].Insert(p[0], p[1])
		}
	}
	return install(l, name, shared, history,
		func(g *timely.Graph, w *timely.Worker, aE *core.Arranged[uint64, uint64]) dd.Collection[[2]uint64, uint64] {
			qi, pc := dd.NewInput[uint64, uint64](g)
			qins[w.Index()] = qi
			return ShortestPath(aE, pc)
		}, seed, argHandles(qins))
}
