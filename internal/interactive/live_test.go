package interactive

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// liveWorkload is a deterministic two-phase edge history.
func liveWorkload() (phase0, phase1 []core.Update[uint64, uint64]) {
	for _, e := range graphs.Random(80, 400, 11) {
		phase0 = append(phase0, core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: 1})
	}
	// Churn: remove a slice of phase 0, add fresh edges.
	for i := 0; i < 60; i++ {
		phase1 = append(phase1, core.Update[uint64, uint64]{
			Key: phase0[i*3].Key, Val: phase0[i*3].Val, Diff: -1})
	}
	for _, e := range graphs.Random(80, 150, 23) {
		phase1 = append(phase1, core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: 1})
	}
	return
}

var (
	lookupKeys = []uint64{1, 7, 13, 42}
	hopKeys    = []uint64{2, 9, 33}
	twoHopKeys = []uint64{4, 21}
	pathPairs  = [][2]uint64{{3, 55}, {10, 70}}
)

const farFuture = uint64(1) << 41

// startupResults runs all four classes built at startup over the two-phase
// history and returns each class's net result collection.
func startupResults(workers int, phase0, phase1 []core.Update[uint64, uint64]) (
	lookup, onehop, twohop map[[2]any]core.Diff, path map[[2]any]core.Diff) {

	capL := &dd.Captured[uint64, int64]{}
	cap1 := &dd.Captured[uint64, uint64]{}
	cap2 := &dd.Captured[uint64, uint64]{}
	capP := &dd.Captured[[2]uint64, uint64]{}
	timely.Execute(workers, func(w *timely.Worker) {
		var sys *System
		w.Dataflow(func(g *timely.Graph) {
			sys = BuildSystem(g, true)
			dd.Capture(sys.Lookup, capL)
			dd.Capture(sys.OneHop, cap1)
			dd.Capture(sys.TwoHop, cap2)
			dd.Capture(sys.Path, capP)
		})
		if w.Index() == 0 {
			sys.Edges.SendSlice(core.StampAt(phase0, lattice.Ts(0)))
			for _, k := range lookupKeys {
				sys.QLookup.Insert(k, core.Unit{})
			}
			for _, k := range hopKeys {
				sys.Q1Hop.Insert(k, core.Unit{})
			}
			for _, k := range twoHopKeys {
				sys.Q2Hop.Insert(k, core.Unit{})
			}
			for _, p := range pathPairs {
				sys.QPath.Insert(p[0], p[1])
			}
			sys.AdvanceAll(1)
			at0 := lattice.Ts(0)
			w.StepUntil(func() bool { return sys.ProbePath.Done(at0) && sys.ProbeLookup.Done(at0) })
			sys.Edges.SendSlice(core.StampAt(phase1, lattice.Ts(1)))
		}
		sys.CloseAll()
		w.Drain()
	})
	final := lattice.Ts(farFuture)
	return capL.At(final), cap1.At(final), cap2.At(final), capP.At(final)
}

// asAny converts a typed view snapshot to Captured.At's key shape.
func asAny[K comparable, V comparable](m map[dd.Record[K, V]]core.Diff) map[[2]any]core.Diff {
	out := make(map[[2]any]core.Diff, len(m))
	for k, d := range m {
		out[[2]any{k.Key, k.Val}] = d
	}
	return out
}

func requireEqual(t *testing.T, class string, got, want map[[2]any]core.Diff) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: live install has %d records, startup has %d", class, len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			t.Fatalf("%s: record %v = %d live, %d at startup", class, k, got[k], d)
		}
	}
}

// TestLiveClassesMatchStartup installs all four interactive query classes
// against a live, pre-populated shared arrangement — plus one class in the
// rebuilt (not-shared) configuration — streams churn, and checks every
// result collection against the identical queries built at startup.
func TestLiveClassesMatchStartup(t *testing.T) {
	phase0, phase1 := liveWorkload()
	const workers = 2
	wantL, want1, want2, wantP := startupResults(workers, phase0, phase1)
	if len(want1) == 0 || len(wantP) == 0 {
		t.Fatal("bad workload: startup results empty")
	}

	live, err := StartLive(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	live.UpdateEdges(phase0)
	live.Advance()
	live.Sync()

	qL, err := live.InstallLookup("lookup", lookupKeys, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := live.InstallOneHop("onehop", hopKeys, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := live.InstallTwoHop("twohop", twoHopKeys, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	qP, err := live.InstallPath("path", pathPairs, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt configuration: a private arrangement replayed from the
	// current edge multiset, which must then follow the same churn.
	q1r, err := live.InstallOneHop("onehop-rebuilt", hopKeys, false, phase0)
	if err != nil {
		t.Fatal(err)
	}

	live.UpdateEdges(phase1)
	sealed := live.Advance()
	for _, wait := range []func(uint64) bool{qL.WaitDone, q1.WaitDone, q2.WaitDone, qP.WaitDone, q1r.WaitDone} {
		if !wait(sealed) {
			t.Fatal("server stopped before results were complete")
		}
	}

	requireEqual(t, "lookup", asAny(qL.Results.Snapshot()), wantL)
	requireEqual(t, "one-hop", asAny(q1.Results.Snapshot()), want1)
	requireEqual(t, "two-hop", asAny(q2.Results.Snapshot()), want2)
	requireEqual(t, "four-path", asAny(qP.Results.Snapshot()), wantP)
	requireEqual(t, "one-hop rebuilt", asAny(q1r.Results.Snapshot()), want1)

	// Orderly teardown while the arrangement stays live, then one more churn
	// round against the survivors.
	q2.Close()
	q1r.Close()
	live.InsertEdge(hopKeys[0], 77)
	sealed = live.Advance()
	if !q1.WaitDone(sealed) {
		t.Fatal("server stopped after uninstalls")
	}
	got := asAny(q1.Results.Snapshot())
	want1[[2]any{hopKeys[0], uint64(77)}]++
	requireEqual(t, "one-hop after uninstalls", got, want1)
}

// installAlloc preloads a graph of the given scale into a one-worker live
// server, churns it a little so the shared trace holds several runs, and
// returns the bytes allocated — by the whole process, which is otherwise at
// rest — across one shared install.
func installAlloc(t *testing.T, scale uint64, install func(l *Live) error) uint64 {
	t.Helper()
	live, err := StartLive(1)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var preload []core.Update[uint64, uint64]
	for _, e := range graphs.Random(500*scale, 2500*scale, 7) {
		preload = append(preload, core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: 1})
	}
	live.UpdateEdges(preload)
	live.Advance()
	for e := 0; e < 6; e++ {
		live.RemoveEdge(preload[e].Key, preload[e].Val)
		live.InsertEdge(uint64(e), uint64(e+1))
		live.Advance()
	}
	live.Sync()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := install(live); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSharedInstallAllocIndependentOfGraphSize: installing a query against
// the shared arrangement allocates for what the query touches, not for what
// the arrangement holds — eight times the graph (at the same degree) is
// nowhere near twice the bytes. A count, not a timing.
func TestSharedInstallAllocIndependentOfGraphSize(t *testing.T) {
	classes := map[string]func(l *Live) error{
		"1-hop": func(l *Live) error {
			_, err := l.InstallOneHop("q", hopKeys, true, nil)
			return err
		},
		"look-up": func(l *Live) error {
			_, err := l.InstallLookup("q", lookupKeys, true, nil)
			return err
		},
	}
	for class, install := range classes {
		small := installAlloc(t, 1, install)
		large := installAlloc(t, 8, install)
		t.Logf("%s: %d bytes over 2500 edges, %d bytes over 20000", class, small, large)
		if large >= 2*small {
			t.Errorf("%s install allocated %d bytes over 2500 edges and %d over 20000: it grows with the arrangement",
				class, small, large)
		}
	}
}

// BenchmarkPathInstall is one shared 4-hop path query's life on a live
// one-worker server holding graphs.Random(5000, 25000, 1): install (build,
// import the edges arrangement, first complete result), one epoch of 50 edge
// changes maintained through its levels, and uninstall. allocs/op and B/op
// are the figures to watch: they follow what the query's levels hold.
func BenchmarkPathInstall(b *testing.B) {
	live, err := StartLive(1)
	if err != nil {
		b.Fatal(err)
	}
	defer live.Close()
	const nodes = 5000
	preload := edgeUpds(graphs.Random(nodes, 25000, 1), 1)
	// Each op removes the 25 edges the previous op inserted and inserts 25
	// fresh ones, so the graph keeps its size however many ops run.
	fresh := graphs.Random(nodes, 25*uint64(b.N+1), 2)
	live.UpdateEdges(append(preload, edgeUpds(fresh[:25], 1)...))
	live.Advance()
	live.Sync()
	var pairs [][2]uint64
	for k := uint64(0); k < 8; k++ {
		pairs = append(pairs, [2]uint64{k * 600, k*600 + 7})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := live.InstallPath(fmt.Sprintf("path-%d", i), pairs, true, nil)
		if err != nil {
			b.Fatal(err)
		}
		live.UpdateEdges(append(edgeUpds(fresh[25*i:25*i+25], -1), edgeUpds(fresh[25*i+25:25*i+50], 1)...))
		if !q.WaitDone(live.Advance()) {
			b.Fatal("server stopped")
		}
		q.Close()
	}
}

func edgeUpds(edges []graphs.Edge, diff core.Diff) []core.Update[uint64, uint64] {
	out := make([]core.Update[uint64, uint64], len(edges))
	for i, e := range edges {
		out[i] = core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: diff}
	}
	return out
}
