package timely

// Running workers. A Cluster runs the static set of workers as long-lived
// goroutines, and everything a worker does beyond stepping its operators
// arrives as an action posted to it: a dataflow build, trace handle
// maintenance, teardown — and, under Execute, the whole SPMD program. Live
// query installation (§6.2 of the paper) is therefore the only mode: a newly
// arriving query attaches to the running system — and, via core.ImportOpts,
// to its in-memory arrangements — without restarting anything.
//
// Correctness hinges on two invariants:
//
//   - Construction order: operator and channel identifiers are assigned by
//     construction order, so every worker must build the same dataflows in
//     the same sequence. post appends an action to every worker's queue
//     under one lock acquisition, and each worker starts its actions in
//     queue order, giving all workers the same global install order.
//
//   - Worker locality: spines, trace agents, and operator state are strictly
//     worker-local. All mutation of that state (building dataflows, dropping
//     trace handles, cancelling imports) runs on the owning worker's
//     goroutine via posted actions; drivers touch only the mutex-guarded
//     runtime (mailboxes, trackers, input handles, probes).

import "sync"

// Cluster is a running set of dataflow workers. Its workers step their
// installed dataflows, run the actions posted to them, and park when idle,
// until Shutdown.
type Cluster struct {
	rt      *runtime
	workers []*Worker // this process's workers, by local index
	wg      sync.WaitGroup
}

// StartCluster launches this process's shard of a (possibly multi-process)
// cluster over the given fabric — NewLocalFabric(n) for n workers in this
// process alone — and returns immediately: one goroutine per local worker,
// global indices FirstLocal..FirstLocal+LocalWorkers-1. Every process of the
// fabric must install the same dataflows in the same order (operator and
// channel identifiers are assigned by construction order). The fabric is
// started here; its lifecycle (Close) belongs to the caller.
func StartCluster(fab Fabric) *Cluster {
	rt := newRuntime(fab)
	fab.Start(rt)
	c := &Cluster{rt: rt, workers: make([]*Worker, rt.nlocal)}
	c.wg.Add(rt.nlocal)
	for i := range c.workers {
		w := &Worker{index: rt.first + i, rt: rt}
		c.workers[i] = w
		go func() {
			defer c.wg.Done()
			w.serve()
		}()
	}
	return c
}

// Execute runs program once on each of peers workers and returns when every
// run has returned and the workers have stopped: program is posted to a
// cluster over NewLocalFabric(peers), which then shuts down. Every worker
// must construct the same dataflows in the same order (operator identifiers
// are assigned by construction order). Worker indices are 0..peers-1.
func Execute(peers int, program func(w *Worker)) {
	c := StartCluster(NewLocalFabric(peers))
	c.PostEach(program).Wait()
	c.Shutdown()
}

// Peers returns the global number of workers across all processes.
func (c *Cluster) Peers() int { return c.rt.peers }

// FirstLocal returns the global index of this process's first worker.
func (c *Cluster) FirstLocal() int { return c.rt.first }

// LocalWorkers returns the number of workers this process runs.
func (c *Cluster) LocalWorkers() int { return c.rt.nlocal }

// serve is a cluster worker's life: step until the cluster stops, then run
// what was posted before the stop. The post and the stop flag are both
// written under rt.mu, so an action appended before Shutdown always runs and
// its Pending's Wait returns; actions posted after the flag are refused.
func (w *Worker) serve() {
	w.StepUntil(w.rt.stopped.Load)
	w.runActions()
}

// runActions runs the actions posted to this worker, oldest first, and
// reports whether there were any. It pops one action at a time: an action
// that steps the worker (an Execute program) runs the later ones from its
// own Step, still in the order they were posted.
func (w *Worker) runActions() bool {
	ran := false
	for w.queued.Load() > 0 {
		w.rt.mu.Lock()
		f := w.actions[0]
		w.actions[0] = nil
		w.actions = w.actions[1:]
		w.queued.Add(-1)
		w.rt.mu.Unlock()
		f(w)
		ran = true
	}
	return ran
}

// Remove unschedules a dataflow from this worker: its operators are no
// longer stepped. The dataflow must be quiescent (use Graph.Complete); any
// undrained messages would otherwise be counted but never consumed.
//
// The operators are scheduled one last time on the way out. Quiescence is a
// fact about the shared progress tracker, which this worker's shards may not
// have been stepped since; operators let go of what they hold outside the
// dataflow (read handles on imported traces) only when they see their inputs
// closed, and a handle left behind would hold that trace's compaction back
// for good. One pass in any order is enough: a quiescent tracker holds no
// capability and no message, so every input frontier it reports is empty.
func (w *Worker) Remove(g *Graph) {
	for i, h := range w.graphs {
		if h == g {
			for _, op := range g.ops {
				op.schedule()
			}
			w.graphs = append(w.graphs[:i], w.graphs[i+1:]...)
			return
		}
	}
}

// Pending tracks posted actions; Wait blocks until they have all run.
type Pending struct {
	wg      sync.WaitGroup
	aborted bool
}

// Wait blocks until every action of the post has run.
func (p *Pending) Wait() { p.wg.Wait() }

// Aborted reports whether the post was refused because the cluster had
// already shut down (the action never ran). Call only after Wait.
func (p *Pending) Aborted() bool { return p.aborted }

// post is the one way work reaches a worker from outside it: f is appended
// to every local worker's queue under one lock acquisition, so all workers
// see posts in one global order, and the workers are woken. A cluster that
// has shut down refuses the post: p is marked aborted and f never runs.
func (c *Cluster) post(p *Pending, f func(w *Worker)) {
	rt := c.rt
	rt.mu.Lock()
	if rt.stopped.Load() {
		rt.mu.Unlock()
		p.aborted = true
		return
	}
	p.wg.Add(len(c.workers))
	act := func(w *Worker) {
		f(w)
		p.wg.Done()
	}
	for _, w := range c.workers {
		w.actions = append(w.actions, act)
		w.queued.Add(1)
	}
	rt.mu.Unlock()
	rt.wake()
}

// PostEach schedules f to run once on every local worker's goroutine. Use it
// for any mutation of worker-local state (trace handles, import
// cancellation) from a driver goroutine. Posting to a cluster that has
// already shut down does not wedge: the actions are dropped and the returned
// Pending is marked Aborted.
func (c *Cluster) PostEach(f func(w *Worker)) *Pending {
	p := &Pending{}
	c.post(p, f)
	return p
}

// Installed tracks one live installation across this process's workers. Its
// Wait returns once every local worker has built its shard of the dataflow;
// Aborted reports an install refused by a cluster that had shut down.
type Installed struct {
	Pending
	first  int
	graphs []*Graph // indexed by global worker; local slots valid after Wait
	seq    int      // dataflow sequence number; valid after Wait
}

// Complete reports whether the installed dataflow has finished everywhere
// (every process's replica of the tracker converges to the same counts, so
// any local shard answers for the whole cluster). Call only after Wait.
func (in *Installed) Complete() bool { return in.graphs[in.first].Complete() }

// Install constructs a new dataflow on every local worker of a running
// cluster: it posts an action that builds it. build runs once per worker, on
// that worker's goroutine, exactly as a Dataflow closure; it must construct
// the same operators in the same order on every worker. Install may be
// called from any goroutine; concurrent Install calls are serialized and
// every worker observes them in the same order, keeping operator identifiers
// aligned. In a multi-process cluster every process must issue the same
// Install sequence (the driver program is deterministic), which keeps
// dataflow sequence numbers aligned across processes too. Calling Install on
// a cluster that has already shut down does not wedge: the returned
// Installed is marked Aborted and its Wait returns immediately.
func (c *Cluster) Install(build func(w *Worker, g *Graph)) *Installed {
	in := &Installed{first: c.rt.first, graphs: make([]*Graph, c.rt.peers)}
	c.post(&in.Pending, func(w *Worker) {
		g := w.Dataflow(func(g *Graph) { build(w, g) })
		in.graphs[w.index] = g
		if w.index == in.first {
			in.seq = g.seq
		}
	})
	return in
}

// WaitUntil parks the calling (driver) goroutine until cond reports true,
// waking on worker activity. It returns false if the cluster shut down while
// waiting (cond may still be false then).
func (c *Cluster) WaitUntil(cond func() bool) bool {
	for {
		gen := c.rt.activityGen()
		if cond() {
			return true
		}
		if c.rt.stopped.Load() {
			return cond()
		}
		c.rt.waitActivity(gen)
	}
}

// Uninstall removes a quiescent installed dataflow from every worker's
// schedule and releases its mailboxes and progress tracker. The caller must
// first tear the dataflow down (close inputs, cancel imports) and wait for
// Complete.
func (c *Cluster) Uninstall(in *Installed) {
	c.PostEach(func(w *Worker) { w.Remove(in.graphs[w.index]) }).Wait()
	c.rt.mu.Lock()
	for k := range c.rt.mailboxes {
		if k.dataflow == in.seq {
			delete(c.rt.mailboxes, k)
		}
	}
	// Dataflow sequence numbers are never reused, so the slot just goes
	// dark; the slice itself grows one pointer per install ever made.
	if in.seq < len(c.rt.trackers) {
		c.rt.trackers[in.seq] = nil
	}
	c.rt.mu.Unlock()
}

// Wake bumps the cluster's activity counter, re-evaluating every WaitUntil
// condition. Use it after changing state outside the runtime (for example,
// closing a subscription) that a WaitUntil condition observes.
func (c *Cluster) Wake() { c.rt.wake() }

// Shutdown stops the workers and blocks until they exit. Dataflows that are
// not yet complete are abandoned in place. Install and PostEach calls
// racing or following Shutdown are refused with an Aborted result rather
// than wedged; WaitUntil returns false.
func (c *Cluster) Shutdown() {
	c.rt.mu.Lock()
	c.rt.stopped.Store(true)
	c.rt.mu.Unlock()
	c.rt.wake()
	c.wg.Wait()
}
