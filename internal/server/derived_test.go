package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// TestDerivedImportMatchesDirect: a query importing a derived arrangement
// (the reversed edge relation, maintained as a Derived) computes the same
// one-hop results as a query that derives the reversal itself.
func TestDerivedImportMatchesDirect(t *testing.T) {
	phase0, phase1 := testEdges()
	s := New(2)
	defer s.Close()
	edges, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	edges.Update(phase0)
	if _, err := edges.Advance(); err != nil {
		t.Fatalf("advance: %v", err)
	}

	// The derived relation: edges reversed (dst -> src), arranged on every
	// worker, compacting behind its own sealed epochs. built keeps what each
	// worker's build returned.
	built := make([]*core.Arranged[uint64, uint64], 2)
	rev, err := InstallDerived(s, "rev",
		func(w *timely.Worker, g *timely.Graph) (*core.Arranged[uint64, uint64], func()) {
			imported := edges.ImportInto(g)
			out := dd.Map(dd.Flatten(imported), func(k, v uint64) (uint64, uint64) { return v, k })
			built[w.Index()] = dd.Arrange(out, core.U64(), "rev")
			return built[w.Index()], imported.Cancel
		})
	if err != nil {
		t.Fatalf("install derived: %v", err)
	}

	// A consumer importing the derived arrangement: in-degree per node. It
	// must read the very trace the build returned, not a copy of it.
	capDerived := &dd.Captured[uint64, uint64]{}
	read := make([]*core.TraceAgent[uint64, uint64], 2)
	consumer, err := s.Install("indeg-via-rev", func(w *timely.Worker, g *timely.Graph) Built {
		imported := rev.ImportInto(g)
		read[w.Index()] = imported.Agent
		counts := dd.CountCore(imported)
		out := dd.Map(counts, func(k uint64, c int64) (uint64, uint64) { return k, uint64(c) })
		dd.Capture(out, capDerived)
		return Built{Probe: dd.Probe(out), Teardown: imported.Cancel}
	})
	if err != nil {
		t.Fatalf("install consumer: %v", err)
	}
	for w, a := range built {
		if read[w] != a.Agent {
			t.Fatalf("worker %d: the importer reads another trace than the build returned", w)
		}
	}

	// The same computation built directly against the source.
	capDirect := &dd.Captured[uint64, uint64]{}
	direct, err := s.Install("indeg-direct", func(w *timely.Worker, g *timely.Graph) Built {
		imported := edges.ImportInto(g)
		swapped := dd.Map(dd.Flatten(imported), func(k, v uint64) (uint64, uint64) { return v, k })
		counts := dd.Count(swapped, core.U64())
		out := dd.Map(counts, func(k uint64, c int64) (uint64, uint64) { return k, uint64(c) })
		dd.Capture(out, capDirect)
		return Built{Probe: dd.Probe(out), Teardown: imported.Cancel}
	})
	if err != nil {
		t.Fatalf("install direct: %v", err)
	}

	edges.Update(phase1)
	sealed, err := edges.Advance()
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	for _, q := range []*Query{consumer, direct} {
		if !q.WaitDone(lattice.Ts(sealed)) {
			t.Fatalf("server closed before %s completed", q.Name())
		}
	}

	got, want := collect(capDerived), collect(capDirect)
	if len(want) == 0 {
		t.Fatalf("direct query produced nothing; broken test")
	}
	if len(got) != len(want) {
		t.Fatalf("derived-import result has %d records, direct has %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("record %v: derived-import diff %d, direct diff %d", k, got[k], d)
		}
	}

	// Teardown in dependency order: consumers first, then the derived.
	consumer.Uninstall()
	direct.Uninstall()
	rev.Uninstall()
	rev.Uninstall() // idempotent
}

// TestDerivedCompaction: the derived trace's compaction frontier follows its
// sealed epochs, so a late import's snapshot sits at that frontier and
// accumulates to the consolidated collection.
func TestDerivedCompaction(t *testing.T) {
	s := New(1)
	defer s.Close()
	edges, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	ident, err := InstallDerived(s, "ident",
		func(w *timely.Worker, g *timely.Graph) (*core.Arranged[uint64, uint64], func()) {
			imported := edges.ImportInto(g)
			return dd.Arrange(dd.Flatten(imported), core.U64(), "ident"), imported.Cancel
		})
	if err != nil {
		t.Fatalf("install derived: %v", err)
	}

	// Insert and retract the same record across many epochs: the consolidated
	// collection is one record.
	for e := 0; e < 50; e++ {
		edges.Insert(7, uint64(e))
		if e > 0 {
			edges.Remove(7, uint64(e-1))
		}
		if _, err := edges.Advance(); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	if err := edges.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Once the derived output is complete through epoch 49 its arrangement
	// has sealed — and therefore compacted — through it: the late import
	// below must observe that.
	if !ident.Query().WaitDone(lattice.Ts(49)) {
		t.Fatalf("server closed before derived completed")
	}
	var since lattice.Frontier
	var held int // updates the derived trace holds when the late query imports it
	s.c.PostEach(func(w *timely.Worker) {
		since = ident.arr[w.Index()].Agent.CompactionFrontier()
		held = ident.arr[w.Index()].Agent.Spine().UpdateCount()
	}).Wait()
	if want := lattice.NewFrontier(lattice.Ts(50)); !since.Equal(want) {
		t.Fatalf("derived compaction frontier %v, want %v", since, want)
	}

	cap := &dd.Captured[uint64, uint64]{}
	late, err := s.Install("late", func(w *timely.Worker, g *timely.Graph) Built {
		imported := ident.ImportInto(g)
		out := dd.Flatten(imported)
		dd.Capture(out, cap)
		return Built{Probe: dd.Probe(out), Teardown: imported.Cancel}
	})
	if err != nil {
		t.Fatalf("install late: %v", err)
	}
	// The snapshot sits at the compaction frontier, epoch 50: it is complete
	// once that (empty) epoch seals.
	sealed, err := edges.Advance()
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	if !late.WaitDone(lattice.Ts(sealed)) {
		t.Fatalf("server closed before late query completed")
	}
	net := collect(cap)
	if len(net) != 1 || net[[2]uint64{7, 49}] != 1 {
		t.Fatalf("late import sees %v, want exactly {(7,49): 1}", net)
	}
	// The import shares the derived trace's runs as they stand: it replays no
	// more than the trace held (keeping that the size of the live collection
	// is the spine's job; harness/tracesize_test.go holds it to that).
	if raw := len(cap.Updates()); raw > held {
		t.Fatalf("late import replayed %d raw updates, the trace held %d", raw, held)
	}
	late.Uninstall()
	ident.Uninstall()
}

// TestDerivedOnClosedServer: InstallDerived against a closed server fails
// cleanly, and Uninstall after Close is safe.
func TestDerivedOnClosedServer(t *testing.T) {
	s := New(1)
	edges, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	d, err := InstallDerived(s, "ident",
		func(w *timely.Worker, g *timely.Graph) (*core.Arranged[uint64, uint64], func()) {
			imported := edges.ImportInto(g)
			return dd.Arrange(dd.Flatten(imported), core.U64(), "ident"), imported.Cancel
		})
	if err != nil {
		t.Fatalf("install derived: %v", err)
	}
	s.Close()
	d.Uninstall() // must not hang or panic after Close

	if _, err := InstallDerived(s, "post-close",
		func(w *timely.Worker, g *timely.Graph) (*core.Arranged[uint64, uint64], func()) {
			return nil, nil
		}); err != ErrClosed {
		t.Fatalf("InstallDerived on closed server: err=%v, want ErrClosed", err)
	}
}
