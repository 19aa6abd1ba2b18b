package server

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// testEdges is a deterministic two-phase edge workload: phase 0 is loaded
// before the query exists, phase 1 streams in after it is installed.
func testEdges() (phase0, phase1 []core.Update[uint64, uint64]) {
	for i := uint64(0); i < 300; i++ {
		src, dst := i%40, (i*7+3)%40
		phase0 = append(phase0, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: 1})
	}
	for i := uint64(0); i < 150; i++ {
		src, dst := (i*3)%40, (i*11+5)%40
		phase1 = append(phase1, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: 1})
	}
	// Some retractions of phase-0 edges, so the snapshot path must handle
	// cancellation correctly.
	for i := uint64(0); i < 60; i++ {
		src, dst := i%40, (i*7+3)%40
		phase1 = append(phase1, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: -1})
	}
	return
}

// oneHopOracle computes the expected (query, neighbour) multiset for the
// final edge multiset.
func oneHopOracle(queries []uint64, phases ...[]core.Update[uint64, uint64]) map[[2]uint64]core.Diff {
	edges := make(map[[2]uint64]core.Diff)
	for _, ph := range phases {
		for _, u := range ph {
			edges[[2]uint64{u.Key, u.Val}] += u.Diff
		}
	}
	out := make(map[[2]uint64]core.Diff)
	for _, q := range queries {
		for e, d := range edges {
			if e[0] == q && d != 0 {
				out[[2]uint64{q, e[1]}] += d
			}
		}
	}
	for k, d := range out {
		if d == 0 {
			delete(out, k)
		}
	}
	return out
}

// collect reduces captured updates to the net collection.
func collect(cp *dd.Captured[uint64, uint64]) map[[2]uint64]core.Diff {
	out := make(map[[2]uint64]core.Diff)
	for _, u := range cp.Updates() {
		k := [2]uint64{u.Key, u.Val}
		out[k] += u.Diff
		if out[k] == 0 {
			delete(out, k)
		}
	}
	return out
}

// startupOneHop runs the same one-hop query built at startup (the classic
// Execute path), streaming the same two phases, and returns the net result.
func startupOneHop(workers int, queries []uint64,
	phase0, phase1 []core.Update[uint64, uint64]) map[[2]uint64]core.Diff {

	captured := &dd.Captured[uint64, uint64]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var ein *dd.InputCollection[uint64, uint64]
		var qin *dd.InputCollection[uint64, core.Unit]
		var probe *timely.Probe
		w.Dataflow(func(g *timely.Graph) {
			e, ec := dd.NewInput[uint64, uint64](g)
			q, qc := dd.NewInput[uint64, core.Unit](g)
			ein, qin = e, q
			aE := dd.Arrange(ec, core.U64(), "edges")
			aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "q"))
			out := dd.JoinCore(aE, aQ, "onehop",
				func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return q, nbr })
			dd.Capture(out, captured)
			probe = dd.Probe(out)
		})
		if w.Index() == 0 {
			at := func(upds []core.Update[uint64, uint64], e uint64) []core.Update[uint64, uint64] {
				stamped := make([]core.Update[uint64, uint64], len(upds))
				for i, u := range upds {
					u.Time = lattice.Ts(e)
					stamped[i] = u
				}
				return stamped
			}
			ein.SendSlice(at(phase0, 0))
			for _, q := range queries {
				qin.Insert(q, core.Unit{})
			}
			ein.AdvanceTo(1)
			qin.AdvanceTo(1)
			w.StepUntil(func() bool { return probe.Done(lattice.Ts(0)) })
			ein.SendSlice(at(phase1, 1))
		}
		ein.Close()
		qin.Close()
		w.Drain()
	})
	return collect(captured)
}

// installOneHop installs the one-hop query on a live server against the
// named edges source; it returns the query, its capture accumulator, and
// the per-worker query-argument inputs.
func installOneHop(t *testing.T, s *Server, edges *Source[uint64, uint64], name string,
	queries []uint64) (*Query, *dd.Captured[uint64, uint64]) {
	t.Helper()
	captured := &dd.Captured[uint64, uint64]{}
	qins := make([]*dd.InputCollection[uint64, core.Unit], s.Workers())
	q, err := s.Install(name, func(w *timely.Worker, g *timely.Graph) Built {
		imported := edges.ImportInto(g)
		qi, qc := dd.NewInput[uint64, core.Unit](g)
		qins[w.Index()] = qi
		aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "q"))
		out := dd.JoinCore(imported, aQ, "onehop",
			func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return q, nbr })
		dd.Capture(out, captured)
		probe := dd.Probe(out)
		return Built{Probe: probe, Teardown: func() {
			qi.Close()
			imported.Cancel()
		}}
	})
	if err != nil {
		t.Fatalf("install %s: %v", name, err)
	}
	// Seed the query arguments and push the argument clock far ahead: the
	// output frontier then tracks the edges source alone.
	for _, k := range queries {
		qins[0].Insert(k, core.Unit{})
	}
	for _, qi := range qins {
		qi.AdvanceTo(1 << 20)
	}
	return q, captured
}

// TestLiveInstallMatchesStartup is the acceptance test for live query
// installation: a query installed against a live, pre-populated shared
// arrangement returns exactly the same results as the identical query built
// at startup (and both agree with a direct oracle).
func TestLiveInstallMatchesStartup(t *testing.T) {
	phase0, phase1 := testEdges()
	queries := []uint64{3, 17, 25, 39}
	want := oneHopOracle(queries, phase0, phase1)
	if len(want) == 0 {
		t.Fatal("bad workload: empty oracle")
	}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			startup := startupOneHop(workers, queries, phase0, phase1)

			s := New(workers)
			defer s.Close()
			edges, err := NewSource(s, "edges", core.U64())
			if err != nil {
				t.Fatal(err)
			}
			// Pre-populate and fully process the arrangement, advancing its
			// compaction frontier, before the query arrives.
			edges.Update(phase0)
			edges.Advance()
			edges.Sync()

			q, captured := installOneHop(t, s, edges, "onehop", queries)
			if !q.WaitDone(lattice.Ts(0)) {
				t.Fatal("server stopped before first result")
			}

			// Stream the second phase against the now-shared arrangement.
			edges.Update(phase1)
			sealed, _ := edges.Advance()
			if !q.WaitDone(lattice.Ts(sealed)) {
				t.Fatal("server stopped before phase-1 results")
			}

			got := collect(captured)
			if len(got) != len(want) {
				t.Fatalf("live install: %d records, want %d (startup had %d)",
					len(got), len(want), len(startup))
			}
			for k, d := range want {
				if got[k] != d {
					t.Fatalf("live install: record %v = %d, want %d", k, got[k], d)
				}
				if startup[k] != d {
					t.Fatalf("startup run: record %v = %d, want %d", k, startup[k], d)
				}
			}
		})
	}
}

// TestUninstallWhileStreaming installs a query, uninstalls it mid-stream,
// keeps the source streaming, and installs a fresh query under the same
// name: the shared arrangement must keep serving and the second install
// must see the full, current collection.
func TestUninstallWhileStreaming(t *testing.T) {
	phase0, phase1 := testEdges()
	queries := []uint64{5, 12}

	s := New(2)
	defer s.Close()
	edges, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	edges.Update(phase0)
	edges.Advance()
	edges.Sync()

	q1, _ := installOneHop(t, s, edges, "q", queries)
	if !q1.WaitDone(lattice.Ts(0)) {
		t.Fatal("server stopped before q1 results")
	}
	q1.Uninstall()

	// The arrangement keeps maintaining after the uninstall.
	edges.Update(phase1)
	edges.Advance()
	edges.Sync()

	// The reinstalled query's snapshot sits at the compaction frontier, the
	// open epoch: it is complete once that (empty) epoch seals.
	q2, captured := installOneHop(t, s, edges, "q", queries)
	sealed, _ := edges.Advance()
	if !q2.WaitDone(lattice.Ts(sealed)) {
		t.Fatal("server stopped before q2 results")
	}
	got := collect(captured)
	want := oneHopOracle(queries, phase0, phase1)
	if len(got) != len(want) {
		t.Fatalf("reinstalled query: %d records, want %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("reinstalled query: record %v = %d, want %d", k, got[k], d)
		}
	}
	q2.Uninstall()
}

// TestDuplicateNamesRejected pins the registry error paths.
func TestDuplicateNamesRejected(t *testing.T) {
	s := New(1)
	defer s.Close()
	if _, err := NewSource(s, "edges", core.U64()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSource(s, "edges", core.U64()); err == nil {
		t.Fatal("duplicate source name accepted")
	}
}
