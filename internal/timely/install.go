package timely

// Live query installation (§6.2 of the paper): a Cluster runs the static set
// of workers as long-lived servant goroutines, and dataflows are constructed
// *after* execution begins by posting build closures to every worker. A
// newly arriving query therefore attaches to the running system — and, via
// core.ImportOpts, to its in-memory arrangements — without restarting anything.
//
// Correctness hinges on two invariants:
//
//   - Construction order: operator and channel identifiers are assigned by
//     construction order, so every worker must build the same dataflows in
//     the same sequence. Install appends the build action to every worker's
//     queue under one lock acquisition, giving all queues the same global
//     install order.
//
//   - Worker locality: spines, trace agents, and operator state are strictly
//     worker-local. All mutation of that state (building dataflows, dropping
//     trace handles, cancelling imports) runs on the owning worker's
//     goroutine via posted actions; drivers touch only the mutex-guarded
//     runtime (mailboxes, trackers, input handles, probes).

import "sync"

// Cluster is a running set of dataflow workers accepting live dataflow
// installation. Unlike Execute, which runs one SPMD program to completion,
// a Cluster's workers are servants: they step installed dataflows, drain
// posted actions, and park when idle, until Shutdown.
type Cluster struct {
	rt *runtime
	wg sync.WaitGroup
}

// StartCluster launches peers worker goroutines and returns immediately.
func StartCluster(peers int) *Cluster {
	return StartClusterFabric(NewLocalFabric(peers))
}

// StartClusterFabric launches this process's shard of a (possibly
// multi-process) cluster over the given fabric: one servant goroutine per
// local worker, global indices FirstLocal..FirstLocal+LocalWorkers-1. Every
// process of the fabric must install the same dataflows in the same order
// (operator and channel identifiers are assigned by construction order).
// The fabric is started here; its lifecycle (Close) belongs to the caller.
func StartClusterFabric(fab Fabric) *Cluster {
	rt := newRuntime(fab)
	fab.Start(rt)
	c := &Cluster{rt: rt}
	c.wg.Add(rt.nlocal)
	for i := 0; i < rt.nlocal; i++ {
		w := &Worker{index: rt.first + i, rt: rt}
		go func() {
			defer c.wg.Done()
			w.serve()
		}()
	}
	return c
}

// Peers returns the global number of workers across all processes.
func (c *Cluster) Peers() int { return c.rt.peers }

// FirstLocal returns the global index of this process's first worker.
func (c *Cluster) FirstLocal() int { return c.rt.first }

// LocalWorkers returns the number of workers this process runs.
func (c *Cluster) LocalWorkers() int { return c.rt.nlocal }

// serve is the servant loop: drain posted actions, step every installed
// dataflow, and park when neither produced activity. Exits when the cluster
// has been stopped and the worker is idle. One final action drain runs after
// observing the stop: an action appended before Shutdown set the flag (the
// append and the flag share rt.mu) is thereby guaranteed to run, so its
// Pending/Installed waiters always unblock — actions appended after the flag
// are refused at the append site instead.
func (w *Worker) serve() {
	for {
		gen := w.rt.activityGen()
		acted := w.runActions()
		stepped := w.Step()
		if acted || stepped {
			continue
		}
		w.rt.mu.Lock()
		stopped := w.rt.stopped
		w.rt.mu.Unlock()
		if stopped {
			w.runActions()
			return
		}
		w.rt.waitActivity(gen)
	}
}

// runActions pops and runs every action queued for this worker, reporting
// whether there were any.
func (w *Worker) runActions() bool {
	rt := w.rt
	rt.mu.Lock()
	acts := rt.actions[w.index]
	rt.actions[w.index] = nil
	rt.mu.Unlock()
	for _, f := range acts {
		f(w)
	}
	return len(acts) > 0
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

// Installed tracks one live installation across this process's workers.
type Installed struct {
	first   int
	wg      sync.WaitGroup
	graphs  []*Graph // indexed by global worker; local slots valid after Wait
	seq     int      // dataflow sequence number; valid after Wait
	aborted bool     // cluster was already stopped; nothing was built
}

// Wait blocks until every worker has built its shard of the dataflow.
func (in *Installed) Wait() { in.wg.Wait() }

// Aborted reports whether the installation was refused because the cluster
// had already shut down (no dataflow was built; Graph returns nil). Call
// only after Wait.
func (in *Installed) Aborted() bool { return in.aborted }

// Complete reports whether the installed dataflow has finished everywhere
// (every process's replica of the tracker converges to the same counts, so
// any local shard answers for the whole cluster). Call only after Wait.
func (in *Installed) Complete() bool { return in.graphs[in.first].Complete() }

// Install constructs a new dataflow on every local worker of a running
// cluster. build runs once per worker, on that worker's goroutine, exactly
// as a Dataflow closure under Execute; it must construct the same operators
// in the same order on every worker. Install may be called from any
// goroutine; concurrent Install calls are serialized and every worker
// observes them in the same order, keeping operator identifiers aligned. In
// a multi-process cluster every process must issue the same Install sequence
// (the driver program is deterministic), which keeps dataflow sequence
// numbers aligned across processes too.
// Calling Install on a cluster that has already shut down does not wedge:
// the returned Installed is marked Aborted and its Wait returns immediately.
func (c *Cluster) Install(build func(w *Worker, g *Graph)) *Installed {
	in := &Installed{first: c.rt.first, graphs: make([]*Graph, c.rt.peers)}
	c.rt.mu.Lock()
	if c.rt.stopped {
		in.aborted = true
		c.rt.mu.Unlock()
		return in
	}
	in.wg.Add(c.rt.nlocal)
	for i := c.rt.first; i < c.rt.first+c.rt.nlocal; i++ {
		c.rt.actions[i] = append(c.rt.actions[i], func(w *Worker) {
			g := w.Dataflow(func(g *Graph) { build(w, g) })
			in.graphs[w.index] = g
			if w.index == c.rt.first {
				in.seq = g.seq
			}
			in.wg.Done()
		})
	}
	c.rt.mu.Unlock()
	c.rt.wake()
	return in
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

// PostEach schedules f to run once on every local worker's goroutine. Use it
// for any mutation of worker-local state (trace handles, import
// cancellation) from a driver goroutine. Posting to a cluster that has
// already shut down does not wedge: the actions are dropped and the returned
// Pending is marked Aborted.
func (c *Cluster) PostEach(f func(w *Worker)) *Pending {
	p := &Pending{}
	c.rt.mu.Lock()
	if c.rt.stopped {
		p.aborted = true
		c.rt.mu.Unlock()
		return p
	}
	p.wg.Add(c.rt.nlocal)
	for i := c.rt.first; i < c.rt.first+c.rt.nlocal; i++ {
		c.rt.actions[i] = append(c.rt.actions[i], func(w *Worker) {
			f(w)
			p.wg.Done()
		})
	}
	c.rt.mu.Unlock()
	c.rt.wake()
	return p
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
		c.rt.mu.Lock()
		stopped := c.rt.stopped
		c.rt.mu.Unlock()
		if stopped {
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
	c.rt.stopped = true
	c.rt.mu.Unlock()
	c.rt.wake()
	c.wg.Wait()
}
