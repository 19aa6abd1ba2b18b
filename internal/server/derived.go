package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/timely"
)

// Derived is a named arrangement maintained over a query's *output*: the
// installed dataflow's build returns an arrangement of its result on every
// worker, and later queries import that arrangement exactly as they import a
// Source — snapshot first, live batches behind. This extends "arrange once,
// share everywhere" from base relations to derived relations: a
// sub-computation two queries share (a transitive closure, a filtered join)
// is built and indexed once, and every consumer attaches to the maintained
// index. Derived indexes nothing itself: the arrangement shared is the one
// the build returns, typically one its own operators maintain anyway.
type Derived[K, V any] struct {
	nm        string
	q         *Query
	arr       []*core.Arranged[K, V]
	uninstall sync.Once
}

// InstallDerived installs a query dataflow whose arranged output is
// maintained and shared on every worker. The build closure runs once per
// worker on that worker's goroutine and returns the output arrangement plus
// a teardown to run on the same worker at uninstall (cancel imports, close
// worker-local inputs); nil teardowns are fine. Like every arrangement, the
// output compacts behind the epochs it has sealed, so the trace
// late-importing queries share is proportional to the live derived
// collection, not its update history.
func InstallDerived[K, V any](s *Server, name string,
	build func(w *timely.Worker, g *timely.Graph) (*core.Arranged[K, V], func())) (*Derived[K, V], error) {

	d := &Derived[K, V]{nm: name, arr: make([]*core.Arranged[K, V], s.c.Peers())}
	q, err := s.Install(name, func(w *timely.Worker, g *timely.Graph) Built {
		a, teardown := build(w, g)
		d.arr[w.Index()] = a
		return Built{Probe: timely.NewProbe(a.Stream), Teardown: teardown}
	})
	if err != nil {
		return nil, err
	}
	d.q = q
	return d, nil
}

// Name returns the derived arrangement's registered (query) name.
func (d *Derived[K, V]) Name() string { return d.nm }

// Query returns the underlying installed query (probe, WaitDone).
func (d *Derived[K, V]) Query() *Query { return d.q }

// ImportInto attaches the calling worker's shard of the derived arrangement
// to a new dataflow under construction: the trace's runs as of its compaction
// frontier, then live batches — the same contract as Source.ImportInto. Call
// only from inside an Install build closure.
func (d *Derived[K, V]) ImportInto(g *timely.Graph) *core.Arranged[K, V] {
	a := d.arr[g.Worker().Index()]
	return core.ImportOpts(g, a.Agent, d.nm+"-import", core.ImportOptions{Snapshot: true})
}

// Uninstall tears the query down. Uninstall queries importing this
// arrangement first: tearing the producer down under a consumer's import
// would sever a live dataflow. Idempotent.
func (d *Derived[K, V]) Uninstall() { d.uninstall.Do(d.q.Uninstall) }
