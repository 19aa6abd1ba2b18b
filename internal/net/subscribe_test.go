package net

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/plan"
)

// liveBatch is one sealed epoch's batch of (i, epoch) records, as a root
// arrangement emits it; asOf turns it into a replayed history view.
func liveBatch(epoch uint64, n int, diff core.Diff, asOf bool) *core.Batch[uint64, uint64] {
	upds := make([]core.Update[uint64, uint64], n)
	for i := range upds {
		upds[i] = core.Update[uint64, uint64]{Key: uint64(i), Val: epoch, Time: lattice.Ts(epoch), Diff: diff}
	}
	b := core.BuildBatch(core.U64(), upds, lattice.NewFrontier(lattice.Ts(epoch)),
		lattice.NewFrontier(lattice.Ts(epoch+1)), lattice.NewFrontier(lattice.Ts(epoch)))
	if asOf {
		b.AsOf = lattice.NewFrontier(lattice.Ts(epoch + 1))
	}
	return b
}

// TestFeedLagResetBoundsMemory is the zero-drain check on a subscriber's
// feed: one that is never read cannot hold more than the bound plus the
// message that tipped it — the bound drops it, and its reads then report
// the drop, which the stream answers with a resync from a fresh import. A
// replayed history larger than the bound is not backlog and never drops it.
func TestFeedLagResetBoundsMemory(t *testing.T) {
	const maxLag, epochs, per = 50, 40, 20
	f := newFeed(maxLag)
	f.add([]*core.Batch[uint64, uint64]{liveBatch(0, 10*maxLag, 1, true)})
	if p, dropped := f.held(); p != 0 || dropped {
		t.Fatalf("after a history of %d records: feed holds %d live deltas, dropped %v; want 0, false", 10*maxLag, p, dropped)
	}
	for e := uint64(1); e < epochs; e++ {
		f.add([]*core.Batch[uint64, uint64]{liveBatch(e, per, 1, false)})
		if p, _ := f.held(); p > maxLag+per {
			t.Fatalf("epoch %d: feed holds %d deltas, bound %d (+%d slack)", e, p, maxLag, per)
		}
	}
	if p, dropped := f.held(); p != 0 || !dropped {
		t.Fatalf("after %d unread epochs: feed holds %d, dropped %v; want 0, true", epochs, p, dropped)
	}
	if hist, eds, ok := f.take(epochs); ok || len(hist)+len(eds) > 0 {
		t.Fatalf("take from a dropped feed = %d history, %d epochs, ok %v; want nothing, the drop reported", len(hist), len(eds), ok)
	}
}

// TestFeedUnboundedKeepsBacklog: with the bound disabled a laggard holds its
// whole backlog and reads it all back, epoch by epoch, never dropped.
func TestFeedUnboundedKeepsBacklog(t *testing.T) {
	f := newFeed(-1)
	const epochs = 30
	for e := uint64(0); e < epochs; e++ {
		f.add([]*core.Batch[uint64, uint64]{liveBatch(e, 1, 1, false)})
	}
	if p, dropped := f.held(); p != epochs || dropped {
		t.Fatalf("unbounded feed holds %d (dropped %v), want %d", p, dropped, epochs)
	}
	_, eds, ok := f.take(epochs)
	if !ok || len(eds) != epochs {
		t.Fatalf("unbounded read = %d epochs ok=%v, want all %d", len(eds), ok, epochs)
	}
	for i, d := range eds {
		if d.epoch != uint64(i) || !reflect.DeepEqual(d.upds, []Delta{{Key: 0, Val: uint64(i), Diff: 1}}) {
			t.Fatalf("epoch %d read back as %+v", i, d)
		}
	}
}

// TestStreamFrameRoundTrip covers the version-2 frames: streamEnd carries
// its typed reason and streamResync carries deltas, both surviving
// encode/decode.
func TestStreamFrameRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: streamEnd, Query: "q", Reason: EndReasonClosed},
		{Kind: streamResync, Query: "q", Epoch: 17,
			Upds: []Delta{{Key: 1, Val: 2, Diff: 3}, {Key: 4, Val: 5, Diff: -6}}},
		{Kind: streamSnapshot, Query: "q", Epoch: 2, Upds: []Delta{{Key: 7, Val: 8, Diff: 1}}},
	}
	for _, want := range events {
		resp, err := decodeResponse(encodeEvent(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(resp.event, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", resp.event, want)
		}
	}
	if !events[0].End() || events[0].Resync() || !events[1].Resync() {
		t.Fatal("event kind predicates disagree with kinds")
	}
}

// refereeQuery is one program the subscription referee installs.
type refereeQuery struct {
	name string
	root *plan.Node
}

func refereeQueries(t *testing.T) []refereeQuery {
	t.Helper()
	const tc = "tc(x, y) :- edges(x, y).\ntc(x, z) :- tc(x, y), edges(y, z).\n"
	compile := func(src string) *plan.Node {
		prog, err := plan.ParseDatalog(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		root, _, err := plan.Compile(prog)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return root
	}
	edges := plan.Scan("edges")
	return []refereeQuery{
		{"tc", compile(tc)},
		{"tc-from-3", compile(tc + "?- tc(3, y).")},
		{"hop2", compile("h2(x, z) :- edges(x, y), edges(y, z).")},
		{"deg", compile("deg(x, count(y)) :- edges(x, y).")},
		{"sym", plan.Union(edges, edges.Swap())},
		{"scan", edges},
	}
}

// refereeWatch folds one subscriber's stream and, at every frontier event,
// holds the query's accumulated state to want(query, epoch). It returns once
// every query's frontier reached last, reporting the resyncs it saw.
func refereeWatch(t *testing.T, who string, c *Client, names []string, last uint64,
	want func(q string, epoch uint64) plan.Rel) (resyncs int) {

	states := make(map[string]*state, len(names))
	for _, n := range names {
		states[n] = newState()
	}
	reached := 0
	for reached < len(names) {
		ev, err := c.Next()
		if err != nil {
			t.Errorf("%s: next: %v", who, err)
			return resyncs
		}
		st := states[ev.Query]
		if ev.Resync() {
			resyncs++
		}
		if ev.End() {
			t.Errorf("%s: stream of %s ended", who, ev.Query)
			return resyncs
		}
		before := st.sawFront && st.frontier >= last
		st.apply(ev)
		if !ev.Frontier() {
			continue
		}
		if w := want(ev.Query, ev.Epoch); !plan.Rel(st.acc).Equal(w) {
			t.Errorf("%s: %s at frontier %d:\n got %v\nwant %v", who, ev.Query, ev.Epoch, plan.Rel(st.acc), w)
			return resyncs
		}
		if !before && st.frontier >= last {
			reached++
		}
	}
	return resyncs
}

// TestSubscriptionsMatchInterpret is the referee for subscriptions as
// imports: six programs under seeded edge churn with retractions, at one and
// three workers, watched by a subscriber from the start, one attached
// mid-stream, and one whose bound of one delta forces resync after resync.
// At every frontier event each accumulated state must equal plan.Interpret
// over the edges as of that epoch.
func TestSubscriptionsMatchInterpret(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			const epochs, attachAt, nodes = 16, 6, 10
			queries := refereeQueries(t)
			roots := map[string]*plan.Node{}
			names := make([]string, len(queries))
			for i, q := range queries {
				roots[q.name], names[i] = q.root, q.name
			}

			// The churn and the edge relation after each epoch, fixed up
			// front so the watchers read them without synchronization.
			rng := rand.New(rand.NewSource(int64(workers)))
			rels := make([]plan.Rel, epochs)
			churn := make([][]Delta, epochs)
			var live [][2]uint64
			rel := plan.Rel{}
			for e := range churn {
				for i := 0; i < 6; i++ {
					p := [2]uint64{uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))}
					live = append(live, p)
					rel[p]++
					churn[e] = append(churn[e], Delta{Key: p[0], Val: p[1], Diff: 1})
				}
				for i := 0; e > 0 && i < 3; i++ {
					j := rng.Intn(len(live))
					p := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if rel[p]--; rel[p] == 0 {
						delete(rel, p)
					}
					churn[e] = append(churn[e], Delta{Key: p[0], Val: p[1], Diff: -1})
				}
				rels[e] = make(plan.Rel, len(rel))
				for p, d := range rel {
					rels[e][p] = d
				}
			}
			var memoMu sync.Mutex
			memo := map[string]plan.Rel{}
			want := func(q string, epoch uint64) plan.Rel {
				memoMu.Lock()
				defer memoMu.Unlock()
				key := fmt.Sprintf("%s@%d", q, epoch)
				if r, ok := memo[key]; ok {
					return r
				}
				if epoch >= epochs {
					t.Errorf("%s: frontier %d past the last epoch sealed", q, epoch)
					return nil
				}
				r, err := plan.Interpret(roots[q], map[string]plan.Rel{"edges": rels[epoch]})
				if err != nil {
					t.Errorf("interpret %s: %v", q, err)
				}
				memo[key] = r
				return r
			}

			// Every logical epoch seals as its own physical epoch: the
			// referee names states by logical epoch, and a batcher that
			// defers a seal stamps the next epoch's updates into the
			// deferred one, so its frontier would read one epoch early.
			fe, _, addr := startFrontendOpts(t, workers, FrontendOptions{BatchMaxLag: epochs + 1})
			ctl, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer ctl.Close()
			for _, q := range queries {
				if err := ctl.InstallPlan(q.name, q.name, q.root); err != nil {
					t.Fatalf("install %s: %v", q.name, err)
				}
			}
			var watchers sync.WaitGroup
			watch := func(who string, lag int, check func(resyncs int)) {
				fe.mu.Lock()
				fe.opt.SubscriberMaxLag = lag
				fe.mu.Unlock()
				c, err := Dial(addr)
				if err != nil {
					t.Fatalf("dial %s: %v", who, err)
				}
				t.Cleanup(func() { c.Close() })
				c.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
				if err := c.Subscribe(names...); err != nil {
					t.Fatalf("subscribe %s: %v", who, err)
				}
				watchers.Add(1)
				go func() {
					defer watchers.Done()
					check(refereeWatch(t, who, c, names, epochs-1, want))
				}()
			}
			watch("from the start", DefaultSubscriberMaxLag, func(int) {})
			watch("resyncing", 1, func(resyncs int) {
				if resyncs == 0 {
					t.Errorf("resyncing: a bound of one delta never forced a resync")
				}
			})
			for e, upds := range churn {
				if e == attachAt {
					watch("attached late", DefaultSubscriberMaxLag, func(int) {})
				}
				if err := ctl.Update("edges", upds); err != nil {
					t.Fatalf("update: %v", err)
				}
				sealed, err := ctl.Advance("edges")
				if err != nil {
					t.Fatalf("advance: %v", err)
				}
				if sealed != uint64(e) {
					t.Fatalf("advance sealed epoch %d, want %d", sealed, e)
				}
			}
			watchers.Wait()
		})
	}
}

// TestSnapshotRuleAtThreeWorkers: a subscriber's snapshot starts at the
// greatest upper the workers' traces had sealed through, so on an idle
// server it holds every sealed epoch, carries Epoch = last sealed + 1 and is
// followed by that frontier. A resync forced by the lag bound takes a fresh
// import by the same rule; its start lands past the epoch whose batch
// tripped the bound, and workers still sealing that epoch contribute it from
// their live batches.
func TestSnapshotRuleAtThreeWorkers(t *testing.T) {
	fe, _, addr := startFrontendOpts(t, 3, FrontendOptions{SubscriberMaxLag: 5})
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	roots := map[string]*plan.Node{"all": plan.Scan("edges"), "deg": plan.Scan("edges").Count()}
	for name, root := range roots {
		if err := ctl.InstallPlan(name, name, root); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
	}
	rel := plan.Rel{}
	var sealed uint64
	push := func(e, n int) {
		var upds []Delta
		for i := 0; i < n; i++ {
			upds = append(upds, Delta{Key: uint64(i % 7), Val: uint64(e*n + i), Diff: 1})
			rel[[2]uint64{uint64(i % 7), uint64(e*n + i)}]++
			if e > 0 && i%2 == 0 { // retract one of the previous epoch's
				p := [2]uint64{uint64(i % 7), uint64((e-1)*n + i)}
				upds = append(upds, Delta{Key: p[0], Val: p[1], Diff: -1})
				if rel[p]--; rel[p] == 0 {
					delete(rel, p)
				}
			}
		}
		if err := ctl.Update("edges", upds); err != nil {
			t.Fatalf("update: %v", err)
		}
		if sealed, err = ctl.Advance("edges"); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}
	for e := 0; e < 10; e++ {
		push(e, 4)
	}
	if err := ctl.Sync("edges"); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for name := range roots {
		if !fe.WaitComplete(name, sealed) {
			t.Fatalf("%s never completed epoch %d", name, sealed)
		}
	}
	want := func(name string) plan.Rel {
		r, err := plan.Interpret(roots[name], map[string]plan.Rel{"edges": rel})
		if err != nil {
			t.Fatalf("interpret %s: %v", name, err)
		}
		return r
	}

	w, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer w.Close()
	if err := w.Subscribe("all", "deg"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	states := map[string]*state{"all": newState(), "deg": newState()}
	next := func() Event {
		t.Helper()
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		states[ev.Query].apply(ev)
		return ev
	}
	// Each stream opens with its snapshot, then the frontier it holds.
	snapped := map[string]bool{}
	for seen := 0; seen < 2*len(roots); seen++ {
		ev := next()
		st := states[ev.Query]
		switch {
		case ev.Snapshot() && !snapped[ev.Query]:
			snapped[ev.Query] = true
			if ev.Epoch != sealed+1 {
				t.Fatalf("%s: snapshot at epoch %d, want %d", ev.Query, ev.Epoch, sealed+1)
			}
			if !plan.Rel(st.acc).Equal(want(ev.Query)) {
				t.Fatalf("%s: snapshot %v, want %v", ev.Query, plan.Rel(st.acc), want(ev.Query))
			}
		case ev.Frontier() && snapped[ev.Query] && st.frontier == sealed:
		default:
			t.Fatalf("%s: event kind %d at epoch %d, want the snapshot at %d, then frontier %d",
				ev.Query, ev.Kind, ev.Epoch, sealed+1, sealed)
		}
	}

	// One epoch of 40 records trips the bound of 5 on every worker.
	push(10, 40)
	resynced := map[string]bool{}
	for len(resynced) < len(roots) {
		ev := next()
		if ev.End() {
			t.Fatalf("%s: stream ended", ev.Query)
		}
		if ev.Resync() {
			if ev.Epoch != sealed+1 {
				t.Fatalf("%s: resync at epoch %d, want %d", ev.Query, ev.Epoch, sealed+1)
			}
			resynced[ev.Query] = true
			if !plan.Rel(states[ev.Query].acc).Equal(want(ev.Query)) {
				t.Fatalf("%s: resync %v, want %v", ev.Query, plan.Rel(states[ev.Query].acc), want(ev.Query))
			}
		}
	}
}

// TestUninstallEndsSubscriptions: uninstalling a query first writes its
// subscribers the epochs their imports had completed, then ends their
// streams, and only then releases the result arrangement.
func TestUninstallEndsSubscriptions(t *testing.T) {
	fe, _, addr := startFrontend(t, 2)
	ctl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer ctl.Close()
	roots := map[string]*plan.Node{"all": plan.Scan("edges"), "deg": plan.Scan("edges").Count()}
	for name, root := range roots {
		if err := ctl.InstallPlan(name, name, root); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
	}
	w, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial watcher: %v", err)
	}
	defer w.Close()
	if err := w.Subscribe("all", "deg"); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	rel := plan.Rel{}
	var sealed uint64
	for e := 0; e < 5; e++ {
		upds := []Delta{{Key: uint64(e % 3), Val: uint64(e), Diff: 1}, {Key: 9, Val: uint64(e), Diff: 1}}
		for _, d := range upds {
			rel[[2]uint64{d.Key, d.Val}]++
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
	// Every subscription's import has completed the last epoch; nothing has
	// been read yet.
	for name := range roots {
		nq := testQuery(t, fe, name)
		fe.srv.WaitFor(func() bool {
			nq.mu.Lock()
			defer nq.mu.Unlock()
			for s := range nq.subs {
				if s.probe == nil || !s.probe.Done(lattice.Ts(sealed)) {
					return false
				}
			}
			return len(nq.subs) == 1
		})
	}
	for name := range roots {
		if err := ctl.Uninstall(name); err != nil {
			t.Fatalf("uninstall %s: %v", name, err)
		}
	}
	if st := fe.SharedStats(); st.Entries != 0 {
		t.Fatalf("after uninstall: stats %+v, want no live entry", st)
	}
	states := map[string]*state{"all": newState(), "deg": newState()}
	for ended := 0; ended < len(roots); {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		st := states[ev.Query]
		if !ev.End() {
			st.apply(ev)
			continue
		}
		ended++
		if !st.sawFront || st.frontier != sealed {
			t.Fatalf("%s ended at frontier %d (seen %v), want %d", ev.Query, st.frontier, st.sawFront, sealed)
		}
		want, err := plan.Interpret(roots[ev.Query], map[string]plan.Rel{"edges": rel})
		if err != nil {
			t.Fatalf("interpret: %v", err)
		}
		if !plan.Rel(st.acc).Equal(want) {
			t.Fatalf("%s ended at %v, want %v", ev.Query, plan.Rel(st.acc), want)
		}
	}
}

// TestReleaseDrainsOutsideInstMu: a released part drains — waits for its
// dataflow to quiesce — after the registry lock is let go, so while one
// query's uninstall is held in that drain another query installs.
func TestReleaseDrainsOutsideInstMu(t *testing.T) {
	fe, _, _ := startFrontend(t, 2)
	if err := fe.InstallPlan("a", "", plan.Scan("edges").Distinct()); err != nil {
		t.Fatalf("install a: %v", err)
	}
	entered, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fe.drainHook = func() {
		once.Do(func() {
			close(entered)
			<-resume
		})
	}
	uninstalled := make(chan error, 1)
	go func() { uninstalled <- fe.Uninstall("a") }()
	<-entered

	installed := make(chan error, 1)
	go func() { installed <- fe.InstallPlan("b", "", plan.Scan("edges").Count()) }()
	select {
	case err := <-installed:
		if err != nil {
			t.Errorf("install b: %v", err)
		}
		close(resume)
	case <-time.After(10 * time.Second):
		t.Error("install b waited on a's drain")
		close(resume)
		<-installed
	}
	if err := <-uninstalled; err != nil {
		t.Fatalf("uninstall a: %v", err)
	}
}
