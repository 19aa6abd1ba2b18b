package net

import (
	"fmt"
	"math/rand"
	stdnet "net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/server"
)

// startFrontend launches a server with an "edges" source behind a frontend
// listening on a loopback port.
func startFrontend(t *testing.T, workers int) (*Frontend, *server.Server, string) {
	return startFrontendOpts(t, workers, FrontendOptions{})
}

// startFrontendOpts is startFrontend with explicit lag-control options.
func startFrontendOpts(t *testing.T, workers int, opt FrontendOptions) (*Frontend, *server.Server, string) {
	t.Helper()
	srv := server.New(workers)
	edges, err := server.NewSource(srv, "edges", core.U64())
	if err != nil {
		srv.Close()
		t.Fatalf("NewSource: %v", err)
	}
	fe := NewFrontendOpts(srv, opt)
	if err := fe.RegisterSource(edges); err != nil {
		t.Fatalf("RegisterSource: %v", err)
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
	return fe, srv, ln.Addr().String()
}

// testQuery digs an installed query out of a frontend (same-package test
// hook).
func testQuery(t *testing.T, fe *Frontend, query string) *netQuery {
	t.Helper()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	nq := fe.queries[query]
	if nq == nil {
		t.Fatalf("query %q is not installed", query)
	}
	return nq
}

// state folds stream events into a net collection, tracking the frontier.
type state struct {
	acc      map[[2]uint64]int64
	frontier uint64
	sawFront bool
}

func newState() *state { return &state{acc: make(map[[2]uint64]int64)} }

func (s *state) apply(e Event) {
	switch {
	case e.Frontier():
		s.frontier, s.sawFront = e.Epoch, true
	case e.Resync():
		// The server reset this subscriber: whatever was accumulated is
		// stale; the carried collection replaces it wholesale.
		s.acc = make(map[[2]uint64]int64)
		fallthrough
	default: // snapshot, resync, and delta all fold the same way
		for _, d := range e.Upds {
			k := [2]uint64{d.Key, d.Val}
			s.acc[k] += d.Diff
			if s.acc[k] == 0 {
				delete(s.acc, k)
			}
		}
	}
}

// watchUntil folds events until the stream's frontier reaches epoch.
func watchUntil(t *testing.T, c *Client, epoch uint64) *state {
	t.Helper()
	st := newState()
	for !st.sawFront || st.frontier < epoch {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("Next (frontier %d, want %d): %v", st.frontier, epoch, err)
		}
		st.apply(ev)
	}
	return st
}

// oracle recomputes a query's expected net collection from the full edge
// history by brute force.
type oracle struct {
	edges map[[2]uint64]int64
}

func newOracle() *oracle { return &oracle{edges: make(map[[2]uint64]int64)} }

func (o *oracle) apply(upds []Delta) {
	for _, u := range upds {
		k := [2]uint64{u.Key, u.Val}
		o.edges[k] += u.Diff
		if o.edges[k] == 0 {
			delete(o.edges, k)
		}
	}
}

// filteredCount is the oracle for Count over the edges whose key passes
// keep: per-key record counts, multiplicities included.
func (o *oracle) filteredCount(keep func(key uint64) bool) map[[2]uint64]int64 {
	counts := make(map[uint64]int64)
	for k, d := range o.edges {
		if keep(k[0]) {
			counts[k[0]] += d
		}
	}
	res := make(map[[2]uint64]int64)
	for k, c := range counts {
		if c != 0 {
			res[[2]uint64{k, uint64(c)}] = 1
		}
	}
	return res
}

// everyKey keeps every key: filteredCount(everyKey) is a plain Count.
func everyKey(uint64) bool { return true }

// twoHopPlan is the nodes two hops from x keyed by endpoint, carrying the
// mid node count via multiplicity.
func twoHopPlan(x uint64) *plan.Node {
	return plan.Scan("edges").KeyEq(x).Swap().JoinRight(plan.Scan("edges"))
}

// twoHop is the oracle for twoHopPlan(x).
func (o *oracle) twoHop(x uint64) map[[2]uint64]int64 {
	res := make(map[[2]uint64]int64)
	for e1, d1 := range o.edges {
		if e1[0] != x {
			continue
		}
		mid := e1[1]
		for e2, d2 := range o.edges {
			if e2[0] != mid {
				continue
			}
			res[[2]uint64{e2[1], x}] += d1 * d2
		}
	}
	for k, d := range res {
		if d == 0 {
			delete(res, k)
		}
	}
	return res
}

func diffStates(t *testing.T, what string, got map[[2]uint64]int64, want map[[2]uint64]int64) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: record %v: got %d, want %d (got %d records, want %d)",
				what, k, got[k], w, len(got), len(want))
		}
	}
	for k, g := range got {
		if want[k] != g {
			t.Fatalf("%s: unexpected record %v x%d", what, k, g)
		}
	}
}

// TestRemoteEndToEnd drives the acceptance scenario: a remote client
// installs queries against a running server, streams per-epoch deltas, and
// the accumulated results match a brute-force oracle at every frontier.
func TestRemoteEndToEnd(t *testing.T) {
	_, _, addr := startFrontend(t, 3)

	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	if ctl.Workers() != 3 {
		t.Fatalf("handshake workers = %d, want 3", ctl.Workers())
	}

	orc := newOracle()
	rng := rand.New(rand.NewSource(7))
	roundUpdates := func(n int) []Delta {
		upds := make([]Delta, 0, n)
		for i := 0; i < n; i++ {
			upds = append(upds, Delta{Key: rng.Uint64() % 50, Val: rng.Uint64() % 50, Diff: 1})
		}
		// retract a few known-live edges
		for k := range orc.edges {
			if len(upds) >= n+3 {
				break
			}
			upds = append(upds, Delta{Key: k[0], Val: k[1], Diff: -1})
		}
		return upds
	}

	// Seed a few epochs before any query exists.
	for e := 0; e < 3; e++ {
		upds := roundUpdates(40)
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		orc.apply(upds)
		if _, err := ctl.Advance("edges"); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	if err := ctl.Sync("edges"); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// Install queries from a second client while the first keeps driving.
	inst, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer inst.Close()
	// Both oracles count multiplicities, which a Datalog rule would
	// consolidate away: the plans go in as built.
	if err := inst.InstallPlan("counts", "count of edges with key != 3",
		plan.Scan("edges").Filter(plan.FKeyNe, 3).Count()); err != nil {
		t.Fatalf("install counts: %v", err)
	}
	if err := inst.InstallPlan("twohop", "two hops from 5", twoHopPlan(5)); err != nil {
		t.Fatalf("install twohop: %v", err)
	}
	if l, err := inst.List(); err != nil || len(l.Queries) != 2 || len(l.Sources) != 1 {
		t.Fatalf("listing = %+v, err %v; want 2 queries, 1 source", l, err)
	}

	watcher, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer watcher.Close()
	if err := watcher.Subscribe("counts", "twohop"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// Stream more epochs; check both queries at several frontiers. States
	// accumulate across rounds: the stream is cumulative.
	counts, twohop := newState(), newState()
	for round := 0; round < 4; round++ {
		upds := roundUpdates(30)
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		orc.apply(upds)
		sealed, err := ctl.Advance("edges")
		if err != nil {
			t.Fatalf("advance: %v", err)
		}

		for (!counts.sawFront || counts.frontier < sealed) ||
			(!twohop.sawFront || twohop.frontier < sealed) {
			ev, err := watcher.Next()
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			switch ev.Query {
			case "counts":
				counts.apply(ev)
			case "twohop":
				twohop.apply(ev)
			default:
				t.Fatalf("event for unknown query %q", ev.Query)
			}
		}
		diffStates(t, fmt.Sprintf("counts@%d", sealed), counts.acc, orc.filteredCount(func(k uint64) bool { return k != 3 }))
		diffStates(t, fmt.Sprintf("twohop@%d", sealed), twohop.acc, orc.twoHop(5))
	}

	// Uninstall ends the watcher's stream cleanly: one end event per query.
	if err := inst.Uninstall("counts"); err != nil {
		t.Fatalf("uninstall: %v", err)
	}
	if err := inst.Uninstall("twohop"); err != nil {
		t.Fatalf("uninstall: %v", err)
	}
	ended := map[string]bool{}
	for len(ended) < 2 {
		ev, err := watcher.Next()
		if err != nil {
			t.Fatalf("stream ended with %v, want end events", err)
		}
		if ev.End() {
			if ev.Reason != EndReasonClosed {
				t.Fatalf("end reason %q for %q, want %q", ev.Reason, ev.Query, EndReasonClosed)
			}
			ended[ev.Query] = true
		}
	}
}

// TestLateSubscriberSnapshot: a subscriber arriving after epochs have
// completed receives the consolidated base as one snapshot, not the raw
// history, and then follows live.
func TestLateSubscriberSnapshot(t *testing.T) {
	fe, _, addr := startFrontend(t, 2)
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()

	if err := ctl.InstallPlan("all", "edges", plan.Scan("edges")); err != nil {
		t.Fatalf("install: %v", err)
	}
	orc := newOracle()
	// Churn: insert then retract most of it, so consolidation matters.
	for e := 0; e < 10; e++ {
		var upds []Delta
		upds = append(upds, Delta{Key: uint64(e), Val: uint64(e + 1), Diff: 1})
		if e > 0 {
			upds = append(upds, Delta{Key: uint64(e - 1), Val: uint64(e), Diff: -1})
		}
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		orc.apply(upds)
		if _, err := ctl.Advance("edges"); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	if err := ctl.Sync("edges"); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// Wait for the result arrangement to hold epoch 9, so the late import's
	// history carries all ten epochs. Not required for correctness — a
	// lagging arrangement just means a smaller snapshot and more live deltas
	// — but it is the consolidation this test is about.
	if !fe.WaitComplete("all", 9) {
		t.Fatal("server stopped before epoch 9 was complete")
	}

	late, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer late.Close()
	if err := late.Subscribe("all"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// First event must be the snapshot; its contents (plus any deltas up
	// to the snapshot frontier) must equal the oracle.
	ev, err := late.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if !ev.Snapshot() {
		t.Fatalf("first stream event kind = %d, want snapshot", ev.Kind)
	}
	st := newState()
	st.apply(ev)
	// One more sealed epoch so the frontier definitely passes 9.
	if err := ctl.Update("edges", []Delta{{Key: 100, Val: 200, Diff: 1}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	orc.apply([]Delta{{Key: 100, Val: 200, Diff: 1}})
	sealed, err := ctl.Advance("edges")
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	res := watchUntilInto(t, late, st, sealed)
	want := make(map[[2]uint64]int64, len(orc.edges))
	for k, d := range orc.edges {
		want[k] = d
	}
	diffStates(t, "late subscriber", res.acc, want)
}

// watchUntilInto folds events into an existing state until the frontier
// reaches epoch.
func watchUntilInto(t *testing.T, c *Client, st *state, epoch uint64) *state {
	t.Helper()
	for !st.sawFront || st.frontier < epoch {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("Next (frontier %d, want %d): %v", st.frontier, epoch, err)
		}
		st.apply(ev)
	}
	return st
}

// TestSlowSubscriberDoesNotBlockEpochCycle: one subscriber never reads;
// epochs must keep sealing at full speed and a second subscriber must keep
// streaming.
func TestSlowSubscriberDoesNotBlockEpochCycle(t *testing.T) {
	_, _, addr := startFrontend(t, 2)
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	if err := ctl.InstallPlan("all", "edges", plan.Scan("edges")); err != nil {
		t.Fatalf("install: %v", err)
	}

	slow, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial slow: %v", err)
	}
	defer slow.Close()
	if err := slow.Subscribe("all"); err != nil {
		t.Fatalf("subscribe slow: %v", err)
	}
	// slow never calls Next again.

	fast, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial fast: %v", err)
	}
	defer fast.Close()
	if err := fast.Subscribe("all"); err != nil {
		t.Fatalf("subscribe fast: %v", err)
	}

	// Push enough epochs x updates that a worker-side block would wedge
	// well before the end (socket buffers fill long before 200 epochs of
	// 100 updates each if anything blocks on the slow conn).
	var sealed uint64
	for e := 0; e < 200; e++ {
		upds := make([]Delta, 100)
		for i := range upds {
			upds[i] = Delta{Key: uint64(i), Val: uint64(e), Diff: 1}
		}
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		if sealed, err = ctl.Advance("edges"); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	if err := ctl.Sync("edges"); err != nil {
		t.Fatalf("sync: %v", err)
	}
	st := watchUntil(t, fast, sealed)
	if len(st.acc) != 100*200 {
		t.Fatalf("fast subscriber saw %d records, want %d", len(st.acc), 100*200)
	}
}

// TestSubscriberLagResetReconverges: a subscriber that stops reading while
// updates pour in is reset once its feed's backlog breaches the bound. When it finally reads again it observes a resync event — the
// consolidated collection replacing everything it missed — and its folded
// state re-converges exactly to the brute-force oracle.
func TestSubscriberLagResetReconverges(t *testing.T) {
	fe, _, addr := startFrontendOpts(t, 2, FrontendOptions{SubscriberMaxLag: 1000})
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	if err := ctl.InstallPlan("all", "edges", plan.Scan("edges")); err != nil {
		t.Fatalf("install: %v", err)
	}

	victim, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	defer victim.Close()
	if err := victim.Subscribe("all"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// The victim stops reading here: its socket fills, its server-side
	// stream blocks, and its feed's backlog starts to grow.

	orc := newOracle()
	var sealed uint64
	push := func(e int) {
		upds := make([]Delta, 2000)
		for i := range upds {
			upds[i] = Delta{Key: uint64(i), Val: uint64(e), Diff: 1}
		}
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		orc.apply(upds)
		if sealed, err = ctl.Advance("edges"); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	nq := testQuery(t, fe, "all")
	resyncPending := func() bool {
		nq.mu.Lock()
		defer nq.mu.Unlock()
		for s := range nq.subs {
			if _, dropped := s.fd.held(); dropped {
				return true
			}
		}
		return false
	}

	// Push until the bound drops the victim's feed (the rounds it takes
	// depend on socket buffering; the cap is a safety net only). The mark is
	// looked at once per round and the sighting kept: the victim's stream
	// goroutine replaces the feed whenever its blocked write gets through, so
	// a second look may find it gone.
	rounds, reset := 0, false
	for ; rounds < 300 && !reset; rounds++ {
		push(rounds)
		reset = resyncPending()
	}
	if !reset {
		t.Fatalf("no resync after %d rounds", rounds)
	}
	// Live traffic after the reset, so re-convergence covers both the
	// resync snapshot and ordinary deltas behind it.
	push(rounds)
	push(rounds + 1)
	if err := ctl.Sync("edges"); err != nil {
		t.Fatalf("sync: %v", err)
	}

	st := newState()
	sawResync := false
	for !st.sawFront || st.frontier < sealed {
		ev, err := victim.Next()
		if err != nil {
			t.Fatalf("next (frontier %d, want %d): %v", st.frontier, sealed, err)
		}
		if ev.Resync() {
			sawResync = true
		}
		st.apply(ev)
	}
	if !sawResync {
		t.Fatal("stream never carried a resync event")
	}
	diffStates(t, "reconverged victim", st.acc, orc.edges)
}

// TestClientKilledMidStream: severing a watcher's connection abruptly (the
// network analogue of SIGKILL) neither wedges the epoch cycle nor disturbs
// other subscribers, and a fresh client still sees consistent results.
func TestClientKilledMidStream(t *testing.T) {
	_, _, addr := startFrontend(t, 2)
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	if err := ctl.InstallPlan("counts", "count of edges", plan.Scan("edges").Count()); err != nil {
		t.Fatalf("install: %v", err)
	}

	victim, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	if err := victim.Subscribe("counts"); err != nil {
		t.Fatalf("subscribe victim: %v", err)
	}
	survivor, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial survivor: %v", err)
	}
	defer survivor.Close()
	if err := survivor.Subscribe("counts"); err != nil {
		t.Fatalf("subscribe survivor: %v", err)
	}

	orc := newOracle()
	push := func(n int) uint64 {
		upds := make([]Delta, n)
		for i := range upds {
			upds[i] = Delta{Key: uint64(i % 7), Val: uint64(rand.Int63n(1000)), Diff: 1}
		}
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		orc.apply(upds)
		sealed, err := ctl.Advance("edges")
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		return sealed
	}

	sealed := push(50)
	watchUntil(t, victim, sealed)
	victim.conn.Close() // abrupt: no unsubscribe, no goodbye

	// The cycle continues; the survivor keeps streaming.
	for i := 0; i < 5; i++ {
		sealed = push(50)
	}
	st := watchUntil(t, survivor, sealed)
	diffStates(t, "survivor", st.acc, orc.filteredCount(everyKey))

	// A fresh client attaching now sees the same consistent state.
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial fresh: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Subscribe("counts"); err != nil {
		t.Fatalf("subscribe fresh: %v", err)
	}
	sealed = push(10)
	fst := watchUntil(t, fresh, sealed)
	diffStates(t, "fresh", fst.acc, orc.filteredCount(everyKey))
}

// TestConcurrentClients is the race satellite: N clients install, watch,
// and uninstall concurrently while updates stream; run under -race.
func TestConcurrentClients(t *testing.T) {
	_, _, addr := startFrontend(t, 3)

	stop := make(chan struct{})
	var updater sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		ctl, err := Dial(addr)
		if err != nil {
			t.Errorf("dial updater: %v", err)
			return
		}
		defer ctl.Close()
		e := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A sliding window: epoch e inserts 20 records and retracts the
			// 20 that epoch e-window inserted, so the live collection stays
			// at window*20 records however fast the socket runs. (Without
			// the retractions every key's history grows without bound and
			// the reducers' per-key rescans, not install/uninstall, become
			// what the test measures.)
			const window = 8
			upds := make([]Delta, 0, 40)
			for i := 0; i < 20; i++ {
				upds = append(upds, Delta{Key: uint64(i % 11), Val: uint64(e), Diff: 1})
				if e >= window {
					upds = append(upds, Delta{Key: uint64(i % 11), Val: uint64(e - window), Diff: -1})
				}
			}
			if err := ctl.Update("edges", upds); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if _, err := ctl.Advance("edges"); err != nil {
				t.Errorf("advance: %v", err)
				return
			}
			e++
		}
	}()

	queries := []*plan.Node{
		plan.Scan("edges").Count(),
		plan.Scan("edges").Filter(plan.FKeyNe, 2),
		twoHopPlan(3),
		plan.Scan("edges").Distinct().Count(),
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				name := fmt.Sprintf("q-%d-%d", g, it)
				c, err := Dial(addr)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				if err := c.InstallPlan(name, name, queries[(g+it)%len(queries)]); err != nil {
					t.Errorf("install %s: %v", name, err)
					c.Close()
					return
				}
				w, err := Dial(addr)
				if err != nil {
					t.Errorf("dial: %v", err)
					c.Close()
					return
				}
				if err := w.Subscribe(name); err != nil {
					t.Errorf("subscribe %s: %v", name, err)
				} else {
					// Read a handful of events, then abandon the stream
					// (half the goroutines sever abruptly).
					for i := 0; i < 3; i++ {
						if _, err := w.Next(); err != nil {
							break
						}
					}
				}
				w.Close()
				if err := c.Uninstall(name); err != nil {
					t.Errorf("uninstall %s: %v", name, err)
				}
				c.Close()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	updater.Wait()
}
