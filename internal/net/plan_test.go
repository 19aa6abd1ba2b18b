package net

import (
	"bufio"
	"errors"
	"fmt"
	stdnet "net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/graspan"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/timely"
)

// startFrontendSources launches a server with the named sources behind a
// frontend (startFrontend hard-codes a single "edges" source).
func startFrontendSources(t *testing.T, workers int, names ...string) (*Frontend, string) {
	t.Helper()
	srv := server.New(workers)
	fe := NewFrontend(srv)
	for _, n := range names {
		src, err := server.NewSource(srv, n, core.U64())
		if err != nil {
			srv.Close()
			t.Fatalf("NewSource %q: %v", n, err)
		}
		if err := fe.RegisterSource(src); err != nil {
			t.Fatalf("RegisterSource %q: %v", n, err)
		}
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		fe.Close()
		srv.Close()
	})
	return fe, ln.Addr().String()
}

// installDatalog installs a Datalog program, compiled client-side by
// Client.Install as `kpg client install` does.
func installDatalog(t *testing.T, c *Client, name, src string) {
	t.Helper()
	if err := c.Install(name, src); err != nil {
		t.Fatalf("install %q: %v", name, err)
	}
}

// pushEdges feeds an edge list to a source as one sealed epoch and waits for
// it to be reflected on all workers.
func pushEdges(t *testing.T, c *Client, source string, edges []graphs.Edge) uint64 {
	t.Helper()
	upds := make([]Delta, len(edges))
	for i, e := range edges {
		upds[i] = Delta{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	if err := c.Update(source, upds); err != nil {
		t.Fatalf("update %s: %v", source, err)
	}
	sealed, err := c.Advance(source)
	if err != nil {
		t.Fatalf("advance %s: %v", source, err)
	}
	if err := c.Sync(source); err != nil {
		t.Fatalf("sync %s: %v", source, err)
	}
	return sealed
}

// setOf converts a folded stream state to a set, requiring every surviving
// record to have multiplicity one (the recursive queries are distinct
// relations; anything else means the wire result is not the reference one).
func setOf(t *testing.T, what string, st *state) map[[2]uint64]bool {
	t.Helper()
	out := make(map[[2]uint64]bool, len(st.acc))
	for k, d := range st.acc {
		if d != 1 {
			t.Fatalf("%s: record %v has multiplicity %d, want 1", what, k, d)
		}
		out[k] = true
	}
	return out
}

func sameSet(t *testing.T, what string, got, want map[[2]uint64]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing %v (got %d records, want %d)", what, p, len(got), len(want))
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("%s: spurious %v", what, p)
		}
	}
}

// handBuiltTC evaluates the hand-built datalog.TC over a static edge set and
// returns its output as a set.
func handBuiltTC(t *testing.T, workers int, edges []graphs.Edge) map[[2]uint64]bool {
	t.Helper()
	cap := &dd.Captured[uint64, uint64]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var in *dd.InputCollection[uint64, uint64]
		w.Dataflow(func(g *timely.Graph) {
			ein, ec := dd.NewInput[uint64, uint64](g)
			in = ein
			dd.Capture(datalog.TC(ec), cap)
		})
		if w.Index() == 0 {
			graphs.EdgesInput(in, edges)
		}
		in.Close()
		w.Drain()
	})
	out := map[[2]uint64]bool{}
	for kv, d := range cap.At(lattice.Ts(0)) {
		if d != 1 {
			t.Fatalf("hand-built: non-unit multiplicity %d for %v", d, kv)
		}
		out[[2]uint64{kv[0].(uint64), kv[1].(uint64)}] = true
	}
	return out
}

// TestDatalogOverWireMatchesTCAndSGOracle is the acceptance cross-check: TC
// and SG as Datalog text, compiled client-side, installed over the wire and
// streamed back. TC must equal the hand-built datalog.TC (itself held to
// TCOracle), SG must equal SGOracle.
func TestDatalogOverWireMatchesTCAndSGOracle(t *testing.T) {
	edges := graphs.Random(25, 40, 5)
	hand := handBuiltTC(t, 2, edges)
	sameSet(t, "tc: hand-built vs oracle", hand, datalog.TCOracle(edges))
	cases := []struct {
		name, prog string
		want       map[[2]uint64]bool
	}{
		{"tc", datalog.TCSrc, hand},
		{"sg", datalog.SGSrc, datalog.SGOracle(edges)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, addr := startFrontend(t, 2)
			ctl, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer ctl.Close()
			installDatalog(t, ctl, tc.name, tc.prog)

			watcher, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial watcher: %v", err)
			}
			defer watcher.Close()
			if err := watcher.Subscribe(tc.name); err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			sealed := pushEdges(t, ctl, "edges", edges)
			st := watchUntil(t, watcher, sealed)
			sameSet(t, tc.name+": wire vs reference", setOf(t, tc.name, st), tc.want)
		})
	}
}

// TestDatalogQueriesShareFixpoint is the sharing acceptance: two remote
// clients install queries whose plans contain the same TC fixpoint — the
// full relation and a `?- tc(1, y)` restriction — and the registry must
// build exactly one derived arrangement, serve the second query from it, and
// sweep it only when the last holder uninstalls.
func TestDatalogQueriesShareFixpoint(t *testing.T) {
	fe, _, addr := startFrontend(t, 2)
	a, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial a: %v", err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial b: %v", err)
	}
	defer b.Close()

	installDatalog(t, a, "tc-all", datalog.TCSrc)
	if st := fe.SharedStats(); st != (SharedStats{Entries: 1, Installs: 1, Hits: 0}) {
		t.Fatalf("after first install: stats %+v, want {1 1 0}", st)
	}
	installDatalog(t, b, "tc-from-1", datalog.TCSrc+"\n?- tc(1, y).")
	if st := fe.SharedStats(); st != (SharedStats{Entries: 1, Installs: 1, Hits: 1}) {
		t.Fatalf("after second install: stats %+v, want {1 1 1}", st)
	}

	// Both queries answer correctly through the one shared arrangement.
	watcher, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer watcher.Close()
	if err := watcher.Subscribe("tc-all", "tc-from-1"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	edges := graphs.Chain(8)
	sealed := pushEdges(t, a, "edges", edges)
	all, from1 := newState(), newState()
	for (!all.sawFront || all.frontier < sealed) ||
		(!from1.sawFront || from1.frontier < sealed) {
		ev, err := watcher.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		switch ev.Query {
		case "tc-all":
			all.apply(ev)
		case "tc-from-1":
			from1.apply(ev)
		}
	}
	oracle := datalog.TCOracle(edges)
	sameSet(t, "tc-all", setOf(t, "tc-all", all), oracle)
	want1 := map[[2]uint64]bool{}
	for p := range oracle {
		if p[0] == 1 {
			want1[p] = true
		}
	}
	sameSet(t, "tc-from-1", setOf(t, "tc-from-1", from1), want1)

	// Uninstalling one holder keeps the shared entry; the last sweep clears it.
	if err := a.Uninstall("tc-all"); err != nil {
		t.Fatalf("uninstall tc-all: %v", err)
	}
	if st := fe.SharedStats(); st.Entries != 1 {
		t.Fatalf("after first uninstall: stats %+v, want one live entry", st)
	}
	if err := b.Uninstall("tc-from-1"); err != nil {
		t.Fatalf("uninstall tc-from-1: %v", err)
	}
	if st := fe.SharedStats(); st != (SharedStats{Entries: 0, Installs: 1, Hits: 1}) {
		t.Fatalf("after last uninstall: stats %+v, want {0 1 1}", st)
	}
}

// TestDatalogAndPlanShareArrangements: a Datalog count and the plan built
// for the same computation have one canonical form and therefore share its
// arrangements, and the count over the wire equals plan.Interpret over the
// edges as sent, duplicates and all.
func TestDatalogAndPlanShareArrangements(t *testing.T) {
	fe, _, addr := startFrontend(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const deg = "deg(x, count(y)) :- edges(x, y)."
	installDatalog(t, c, "deg", deg)
	if st := fe.SharedStats(); st != (SharedStats{Entries: 2, Installs: 2, Hits: 0}) {
		t.Fatalf("after the Datalog install: stats %+v, want {2 2 0} (distinct, count)", st)
	}
	built := plan.Scan("edges").Distinct().Count()
	if err := c.InstallPlan("deg-plan", "distinct(edges) | count", built); err != nil {
		t.Fatalf("install plan: %v", err)
	}
	if st := fe.SharedStats(); st != (SharedStats{Entries: 2, Installs: 2, Hits: 2}) {
		t.Fatalf("stats %+v, want {2 2 2}: Datalog and plan must share", st)
	}

	watcher, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer watcher.Close()
	if err := watcher.Subscribe("deg", "deg-plan"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	edges := []graphs.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}
	sealed := pushEdges(t, c, "edges", edges)
	fromText, fromPlan := newState(), newState()
	for (!fromText.sawFront || fromText.frontier < sealed) ||
		(!fromPlan.sawFront || fromPlan.frontier < sealed) {
		ev, err := watcher.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		switch ev.Query {
		case "deg":
			fromText.apply(ev)
		case "deg-plan":
			fromPlan.apply(ev)
		}
	}
	diffStates(t, "Datalog vs plan", fromText.acc, fromPlan.acc)
	rel := plan.Rel{}
	for _, e := range edges {
		rel[[2]uint64{e.Src, e.Dst}]++
	}
	want, err := plan.Interpret(built, map[string]plan.Rel{"edges": rel})
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	diffStates(t, "deg vs Interpret", fromText.acc, want)
	diffStates(t, "deg", fromText.acc, map[[2]uint64]int64{{1, 2}: 1, {2, 1}: 1})
}

// TestGraspanReachabilityAsDatalog runs the graspan dataflow analysis,
// graspan.ReachSrc, over two wire sources and holds it to the brute-force
// oracle.
func TestGraspanReachabilityAsDatalog(t *testing.T) {
	prog := graspan.Generate(60, 3)
	_, addr := startFrontendSources(t, 2, "assign", "nulls")
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	installDatalog(t, ctl, "reach", graspan.ReachSrc)

	watcher, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer watcher.Close()
	if err := watcher.Subscribe("reach"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// A null source is its own key; the value is ignored.
	nullEdges := make([]graphs.Edge, len(prog.Nulls))
	for i, o := range prog.Nulls {
		nullEdges[i] = graphs.Edge{Src: o, Dst: o}
	}
	pushEdges(t, ctl, "assign", prog.Assign)
	sealed := pushEdges(t, ctl, "nulls", nullEdges)
	st := watchUntil(t, watcher, sealed)
	sameSet(t, "graspan wire vs oracle", setOf(t, "reach", st), graspan.DataflowOracle(prog.Assign, prog.Nulls))
}

// TestProtocolVersionMismatchRefused: a hello at any version but Version —
// older, the retired v2 included, or newer — draws a typed error naming the
// version the server speaks, and the connection ends.
func TestProtocolVersionMismatchRefused(t *testing.T) {
	_, _, addr := startFrontend(t, 1)
	for v := uint32(0); v <= Version+1; v++ {
		if v == Version {
			continue
		}
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial raw: %v", err)
		}
		c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
		_, err = c.call(request{kind: reqHello, magic: Magic, version: v})
		var remote *RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, fmt.Sprintf("version %d)", Version)) {
			t.Fatalf("hello at version %d: err %v, want a remote mismatch error naming version %d", v, err, Version)
		}
		if _, err := c.read(); err == nil {
			t.Fatalf("hello at version %d: connection still open after the refusal", v)
		}
		conn.Close()
	}
}

// keyLookupInstallAlloc loads a random graph of the given scale into a
// one-worker server behind a frontend, churns it a little so the trace holds
// several runs, and returns the bytes allocated — by the whole process, which
// is otherwise at rest — from installing the look-up edges(c, y) to its first
// complete result.
func keyLookupInstallAlloc(t *testing.T, scale uint64) uint64 {
	t.Helper()
	srv := server.New(1)
	defer srv.Close()
	fe := NewFrontend(srv)
	defer fe.Close()
	src, err := server.NewSource(srv, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.RegisterSource(src); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	edges := graphs.Random(500*scale, 2500*scale, 7)
	load := make([]Delta, len(edges))
	for i, e := range edges {
		load[i] = Delta{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	must(fe.Update("edges", load))
	for e := 0; e < 6; e++ {
		_, err := fe.Advance("edges")
		must(err)
		must(fe.Update("edges", []Delta{{Key: load[e].Key, Val: load[e].Val, Diff: -1}, {Key: uint64(e), Val: uint64(e + 1), Diff: 1}}))
	}
	_, err = fe.Advance("edges")
	must(err)
	must(fe.SyncSource("edges"))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	must(fe.InstallPlan("q", "", plan.Scan("edges").KeyEq(load[10].Key)))
	sealed, err := fe.Advance("edges")
	must(err)
	must(fe.SyncSource("edges"))
	if !fe.WaitComplete("q", sealed) {
		t.Fatal("server stopped before the look-up was complete")
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestKeyLookupInstallAllocIndependentOfRelationSize: a plan that restricts a
// resident arrangement to one key seeks that key in each of its runs, so
// installing it allocates for what it returns, not for the relation — eight
// times the edges is nowhere near twice the bytes. A count, not a timing.
func TestKeyLookupInstallAllocIndependentOfRelationSize(t *testing.T) {
	small := keyLookupInstallAlloc(t, 1)
	large := keyLookupInstallAlloc(t, 8)
	t.Logf("look-up install: %d bytes over 2500 edges, %d bytes over 20000", small, large)
	if large >= 2*small {
		t.Errorf("look-up install allocated %d bytes over 2500 edges and %d over 20000: it grows with the relation", small, large)
	}
}

// retainedHeap returns the live heap after two collections: what the process
// still references, with the garbage of whatever ran before swept.
func retainedHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// partTraceRatio loads a one-worker source with records (key(i), i), installs
// part as a shared sub-plan over it, and returns the heap the part retains
// as a multiple of the source trace's.
func partTraceRatio(t *testing.T, part *plan.Node, key func(i int) uint64) float64 {
	t.Helper()
	const records = 200_000
	srv := server.New(1)
	defer srv.Close()
	fe := NewFrontend(srv)
	defer fe.Close()
	src, err := server.NewSource(srv, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.RegisterSource(src); err != nil {
		t.Fatal(err)
	}
	// settle seals one (possibly empty) epoch and waits for every worker.
	settle := func() uint64 {
		t.Helper()
		sealed, err := fe.Advance("edges")
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.SyncSource("edges"); err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	// load builds the updates in its own frame, so none stay reachable.
	load := func() {
		upds := make([]Delta, records)
		for i := range upds {
			upds[i] = Delta{Key: key(i), Val: uint64(i), Diff: 1}
		}
		if err := fe.Update("edges", upds); err != nil {
			t.Fatal(err)
		}
	}

	empty := retainedHeap()
	load()
	settle()
	loaded := retainedHeap()

	fe.instMu.Lock()
	e, err := fe.ensurePart(part, map[string]*server.Source[uint64, uint64]{"edges": src})
	fe.instMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The part's snapshot import sits at the open epoch: it is complete once
	// that epoch seals.
	if !e.d.Query().WaitDone(lattice.Ts(settle())) {
		t.Fatal("server stopped before the part was complete")
	}
	withPart := retainedHeap()
	fe.release([]*sharedEntry{e})

	source, retained := int64(loaded-empty), int64(withPart-loaded)
	ratio := float64(retained) / float64(source)
	t.Logf("source trace %d bytes; the %s part retains %d bytes more (%.2f×)", source, part.Op, retained, ratio)
	return ratio
}

// TestDistinctPartHoldsOneTrace: a shared Distinct part is the arrangement
// its reduce maintains, so over a source of distinct records it retains one
// trace the size of the source's — not that trace plus an arranged copy of
// its flattened output. A ratio of heaps, not a timing.
func TestDistinctPartHoldsOneTrace(t *testing.T) {
	ratio := partTraceRatio(t, plan.Scan("edges").Distinct(), func(i int) uint64 { return uint64(i / 4) })
	if ratio > 1.5 {
		t.Errorf("the distinct part retains %.2f× its source's trace, want one trace (≤ 1.5×)", ratio)
	}
}

// TestCountPartHoldsOneTrace: a shared Count part is the arrangement its
// reduce maintains. Over a source with one record per key its output has
// as many records as the source, so it retains one trace the size of the
// source's — not that trace plus an arranged copy of its flattened output.
func TestCountPartHoldsOneTrace(t *testing.T) {
	ratio := partTraceRatio(t, plan.Scan("edges").Count(), func(i int) uint64 { return uint64(i) })
	if ratio > 1.5 {
		t.Errorf("the count part retains %.2f× its source's trace, want one trace (≤ 1.5×)", ratio)
	}
}

// TestPlanBuildErrorDegrades: a build that fails on the workers — here over
// a source the install was not handed — fails its install with that error
// and leaves the server installing as before.
func TestPlanBuildErrorDegrades(t *testing.T) {
	fe, _ := startFrontendSources(t, 2, "edges")
	root := plan.Scan("edges").Distinct()
	fe.instMu.Lock()
	_, err := fe.ensurePart(root, nil)
	fe.instMu.Unlock()
	if err == nil || !strings.Contains(err.Error(), `unknown source "edges"`) {
		t.Errorf("err = %v, want the unknown source", err)
	}
	if st := fe.SharedStats(); st != (SharedStats{}) {
		t.Fatalf("stats %+v after a failed build, want none", st)
	}
	if err := fe.InstallPlan("ok", "", root); err != nil {
		t.Fatalf("install after a failed build: %v", err)
	}
}
