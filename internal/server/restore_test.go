package server

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

func durableOpts() SourceOptions[uint64, uint64] {
	return SourceOptions[uint64, uint64]{
		Durable:  true,
		KeyCodec: wal.U64Codec(),
		ValCodec: wal.U64Codec(),
	}
}

// shardDump is the canonical observable state of one worker's shard of an
// arrangement: the accumulated snapshot contents (compacted to the
// compaction frontier, so physically divergent but logically equal spines
// canonicalize identically), the sealed-through frontier, and the
// compaction frontier itself.
type shardDump struct {
	Upds  map[string]core.Diff
	Upper string
	Since string
}

// dumpShards snapshots every worker's shard of the source on its own
// goroutine.
func dumpShards(src *Source[uint64, uint64]) []shardDump {
	out := make([]shardDump, len(src.arr))
	src.s.c.PostEach(func(w *timely.Worker) {
		i := w.Index()
		a := src.arr[i]
		m := make(map[string]core.Diff)
		for _, u := range harness.TraceAt(a.Agent) {
			m[fmt.Sprintf("%d/%d@%v", u.Key, u.Val, u.Time)] = u.Diff
		}
		out[i] = shardDump{Upds: m, Upper: a.Agent.Upper().String(), Since: a.Agent.CompactionFrontier().String()}
	}).Wait()
	return out
}

// netContents sums every worker's shard of the source, as TraceAt reads it,
// into one collection keyed by (key, val).
func netContents(src *Source[uint64, uint64]) map[[2]uint64]core.Diff {
	var mu sync.Mutex
	net := make(map[[2]uint64]core.Diff)
	src.s.c.PostEach(func(w *timely.Worker) {
		upds := harness.TraceAt(src.arr[w.Index()].Agent)
		mu.Lock()
		defer mu.Unlock()
		for _, u := range upds {
			kv := [2]uint64{u.Key, u.Val}
			net[kv] += u.Diff
			if net[kv] == 0 {
				delete(net, kv)
			}
		}
	}).Wait()
	return net
}

// randomHistory derives a deterministic multi-epoch update history from a
// seed: epoch e's updates are a pure function of (seed, e), so a recovered
// run can re-issue exactly the epochs a crash lost.
func randomHistory(seed int64, epochs int) [][]core.Update[uint64, uint64] {
	out := make([][]core.Update[uint64, uint64], epochs)
	for e := range out {
		rng := rand.New(rand.NewSource(seed*1000 + int64(e)))
		n := 5 + rng.Intn(40)
		upds := make([]core.Update[uint64, uint64], 0, n)
		for i := 0; i < n; i++ {
			d := core.Diff(1)
			if rng.Intn(3) == 0 {
				d = -1
			}
			upds = append(upds, core.Update[uint64, uint64]{
				Key: uint64(rng.Intn(20)), Val: uint64(rng.Intn(10)), Diff: d,
			})
		}
		out[e] = upds
	}
	return out
}

func historyOracle(hist [][]core.Update[uint64, uint64]) map[[2]uint64]core.Diff {
	net := make(map[[2]uint64]core.Diff)
	for _, upds := range hist {
		for _, u := range upds {
			k := [2]uint64{u.Key, u.Val}
			net[k] += u.Diff
			if net[k] == 0 {
				delete(net, k)
			}
		}
	}
	return net
}

// runDurable streams hist[from:] into the source, checkpointing after epoch
// ckptAfter (1-based; 0 disables).
func runDurable(t *testing.T, src *Source[uint64, uint64],
	hist [][]core.Update[uint64, uint64], from uint64, ckptAfter int) {
	t.Helper()
	for e := from; e < uint64(len(hist)); e++ {
		src.Update(hist[e])
		src.Advance()
		if int(e+1) == ckptAfter {
			src.Sync()
			if err := src.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after epoch %d: %v", e, err)
			}
		}
	}
	src.Sync()
}

// TestRestartVsOracle is the restart-vs-oracle property test: a random
// multi-epoch history is streamed into a durable arrangement (optionally
// checkpointed mid-stream), the server shuts down, and a fresh server
// restores from the logs alone. The restored trace must canonicalize to
// exactly the live spine's contents, sealed frontier, and compaction
// frontier, per worker shard — and keep serving: further epochs against the
// restored server must land on the full-history oracle.
func TestRestartVsOracle(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("w%d_seed%d", workers, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				epochs := 3 + rng.Intn(6)
				ckptAfter := 0
				if rng.Intn(2) == 0 {
					ckptAfter = 1 + rng.Intn(epochs)
				}
				hist := randomHistory(seed, epochs)
				dir := t.TempDir()

				live := NewOpts(workers, Options{DataDir: dir})
				src, err := NewSourceOpts(live, "edges", core.U64(), durableOpts())
				if err != nil {
					t.Fatal(err)
				}
				runDurable(t, src, hist, 0, ckptAfter)
				want := dumpShards(src)
				live.Close()

				restored := NewOpts(workers, Options{DataDir: dir, Recover: true})
				defer restored.Close()
				if names, err := wal.ListArrangements(dir); err != nil ||
					!reflect.DeepEqual(names, []string{"edges"}) {
					t.Fatalf("logged arrangements = %v, %v", names, err)
				}
				src2, err := NewSourceOpts(restored, "edges", core.U64(), durableOpts())
				if err != nil {
					t.Fatal(err)
				}
				rec, err := restored.Restore()
				if err != nil {
					t.Fatal(err)
				}
				if rec["edges"] != uint64(epochs) {
					t.Fatalf("restored epoch %d, want %d", rec["edges"], epochs)
				}
				got := dumpShards(src2)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("restored shards differ from live spine:\n got %+v\nwant %+v", got, want)
				}

				// The restored arrangement must keep serving: stream two more
				// epochs and compare a fresh snapshot against the oracle.
				extra := randomHistory(seed+100, 2)
				full := append(append([][]core.Update[uint64, uint64]{}, hist...), extra...)
				runDurable(t, src2, full, uint64(epochs), 0)
				if merged, want := netContents(src2), historyOracle(full); !reflect.DeepEqual(merged, want) {
					t.Fatalf("post-restore stream diverged from oracle:\n got %v\nwant %v", merged, want)
				}
			})
		}
	}
}

// TestRestoreTornLogReappliesTail simulates the crash path without signals:
// the last shard log loses its tail mid-record, recovery clamps every shard
// to the consistent prefix, and re-issuing the lost epochs converges on the
// oracle — the in-process twin of the CI SIGKILL smoke.
func TestRestoreTornLogReappliesTail(t *testing.T) {
	const workers, epochs = 2, 6
	hist := randomHistory(7, epochs)
	dir := t.TempDir()

	live := NewOpts(workers, Options{DataDir: dir})
	src, err := NewSourceOpts(live, "edges", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	runDurable(t, src, hist, 0, 0)
	live.Close()

	// Tear the tail off worker 1's shard log.
	shard := wal.ShardDir(dir, "edges", 1)
	ents, err := os.ReadDir(shard)
	if err != nil || len(ents) != 1 {
		t.Fatalf("shard dir: %v %d", err, len(ents))
	}
	path := filepath.Join(shard, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	restored := NewOpts(workers, Options{DataDir: dir, Recover: true})
	defer restored.Close()
	src2, err := NewSourceOpts(restored, "edges", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	from, err := src2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if from >= epochs {
		t.Fatalf("torn log recovered through %d, want a strict prefix of %d", from, epochs)
	}
	runDurable(t, src2, hist, from, 0)
	if merged, want := netContents(src2), historyOracle(hist); !reflect.DeepEqual(merged, want) {
		t.Fatalf("recovered run diverged from oracle:\n got %v\nwant %v", merged, want)
	}
}

// chainHistory churns live records with retractions, one replacement value
// per key per epoch, so spine merges run and consolidate; then it inserts
// fresh keys in batches each far smaller than the last, so the geometric
// merge rule leaves several runs standing behind the consolidated one.
func chainHistory(churn int) [][]core.Update[uint64, uint64] {
	const live = 200
	var hist [][]core.Update[uint64, uint64]
	for e := uint64(0); e < uint64(churn); e++ {
		var upds []core.Update[uint64, uint64]
		for k := uint64(0); k < live; k++ {
			upds = append(upds, core.Update[uint64, uint64]{Key: k, Val: e, Diff: 1})
			if e > 0 {
				upds = append(upds, core.Update[uint64, uint64]{Key: k, Val: e - 1, Diff: -1})
			}
		}
		hist = append(hist, upds)
	}
	next := uint64(live)
	for _, n := range []int{64, 8, 1} {
		var upds []core.Update[uint64, uint64]
		for ; n > 0; n-- {
			upds = append(upds, core.Update[uint64, uint64]{Key: next, Val: 0, Diff: 1})
			next++
		}
		hist = append(hist, upds)
	}
	return hist
}

// TestCheckpointWritesRunChain: a checkpoint of an unspilled durable source
// writes each shard's run chain as the spine holds it — the same runs with
// the same frontiers, not one consolidated snapshot — and a server restored
// from that chain keeps computing the from-scratch answer.
func TestCheckpointWritesRunChain(t *testing.T) {
	const workers = 2
	hist := append(chainHistory(24), randomHistory(11, 6)...)
	ckpt := len(hist) - 6 // checkpoint once the tapering inserts have sealed
	dir := t.TempDir()

	live := NewOpts(workers, Options{DataDir: dir})
	src, err := NewSourceOpts(live, "edges", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	// One seal per epoch: a driver running ahead would fold epochs into one
	// batch and the chain's shape with them.
	step := func(src *Source[uint64, uint64], e int) {
		t.Helper()
		if err := src.Update(hist[e]); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < ckpt; e++ {
		step(src, e)
	}

	// Once every shard has sealed the last epoch (Sync does not wait for a
	// shard with nothing to seal), finish every merge in flight: nothing
	// changes the spines until the checkpoint, so the chains recorded here
	// are the ones it writes.
	type runBounds struct {
		lower, upper, since string
		len                 int
	}
	chains := make([][]runBounds, workers)
	sinces := make([]string, workers)
	sealed := lattice.NewFrontier(lattice.Ts(uint64(ckpt)))
	for behind := []bool{true}; slices.Contains(behind, true); {
		behind = make([]bool, workers)
		src.s.c.PostEach(func(w *timely.Worker) {
			agent := src.arr[w.Index()].Agent
			if !agent.Upper().Equal(sealed) {
				behind[w.Index()] = true
				return
			}
			for agent.Spine().Work(1 << 30) {
			}
			chains[w.Index()] = nil
			for _, r := range agent.Runs() {
				lower, upper, since := r.Bounds()
				chains[w.Index()] = append(chains[w.Index()], runBounds{lower.String(), upper.String(), since.String(), r.Len()})
			}
			sinces[w.Index()] = agent.CompactionFrontier().String()
		}).Wait()
	}
	if len(chains[0])+len(chains[1]) <= workers {
		t.Fatalf("churn left one run per shard (%v); the chain under test is trivial", chains)
	}
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live.Close()

	for i := 0; i < workers; i++ {
		lg, st, err := wal.OpenShard(wal.ShardDir(dir, "edges", i), wal.U64Codec(), wal.U64Codec(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		var logged []runBounds
		for _, r := range st.Runs {
			if r.Batch == nil {
				t.Fatalf("shard %d: an unspilled source logged a block reference", i)
			}
			logged = append(logged, runBounds{r.Batch.Lower.String(), r.Batch.Upper.String(), r.Batch.Since.String(), r.Batch.Len()})
		}
		if !reflect.DeepEqual(logged, chains[i]) {
			t.Fatalf("shard %d logged runs\n %v\nthe spine held\n %v", i, logged, chains[i])
		}
		if st.Since.String() != sinces[i] {
			t.Fatalf("shard %d logged since %v, the spine compacted to %s", i, st.Since, sinces[i])
		}
	}

	restored := NewOpts(workers, Options{DataDir: dir, Recover: true})
	defer restored.Close()
	src2, err := NewSourceOpts(restored, "edges", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	if from, err := src2.Restore(); err != nil || from != uint64(ckpt) {
		t.Fatalf("restored through epoch %d (%v), want %d", from, err, ckpt)
	}
	for e := ckpt; ; e++ {
		if got, want := netContents(src2), historyOracle(hist[:e]); !reflect.DeepEqual(got, want) {
			t.Fatalf("after epoch %d the restored trace holds\n %v\nfrom scratch\n %v", e, got, want)
		}
		if e == len(hist) {
			break
		}
		step(src2, e)
	}
}

// TestCheckpointSkipsRunsPastBound pins checkpointRuns' guard: a shard whose
// runs are compacted beyond the epoch every shard is known to have logged
// keeps its current generation, byte for byte, and rotates once the bound
// covers them.
func TestCheckpointSkipsRunsPastBound(t *testing.T) {
	s := NewOpts(1, Options{DataDir: t.TempDir()})
	defer s.Close()
	src, err := NewSourceOpts(s, "edges", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, upds := range randomHistory(3, 6) { // one seal per epoch
		src.Update(upds)
		src.Advance()
		src.Sync()
	}
	before := src.logs[0].Size()
	for _, c := range []struct {
		bound        uint64
		skipped      bool
		sameLogBytes bool
	}{{0, true, true}, {6, false, false}} {
		var skipped bool
		src.s.c.PostEach(func(w *timely.Worker) {
			skipped, err = src.checkpointRuns(0, lattice.NewFrontier(lattice.Ts(c.bound)))
		}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if skipped != c.skipped || (src.logs[0].Size() == before) != c.sameLogBytes {
			t.Fatalf("bound %d: skipped=%v, log %d -> %d bytes", c.bound, skipped, before, src.logs[0].Size())
		}
	}
}

// TestDurableGuards pins the misuse errors: durable sources need a DataDir
// and codecs, recovery refuses mismatched worker counts, and a recovering
// source refuses updates until restored.
func TestDurableGuards(t *testing.T) {
	s := New(1)
	defer s.Close()
	if _, err := NewSourceOpts(s, "e", core.U64(), durableOpts()); err == nil {
		t.Fatal("durable source without DataDir accepted")
	}

	dir := t.TempDir()
	d := NewOpts(2, Options{DataDir: dir})
	src, err := NewSourceOpts(d, "e", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	src.Update([]core.Update[uint64, uint64]{{Key: 1, Val: 2, Diff: 1}})
	src.Advance()
	src.Sync()
	d.Close()

	// Worker-count mismatch is refused outright.
	bad := NewOpts(3, Options{DataDir: dir, Recover: true})
	if _, err := NewSourceOpts(bad, "e", core.U64(), durableOpts()); err == nil {
		t.Fatal("shard/worker mismatch accepted")
	}
	bad.Close()

	rec := NewOpts(2, Options{DataDir: dir, Recover: true})
	defer rec.Close()
	src2, err := NewSourceOpts(rec, "e", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A client racing Update/Advance/Sync against Restore gets a typed
	// error, never a panic: a remote caller must not crash the server.
	if err := src2.Update([]core.Update[uint64, uint64]{{Key: 9, Val: 9, Diff: 1}}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("update before Restore: %v, want ErrRecovering", err)
	}
	if _, err := src2.Advance(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("advance before Restore: %v, want ErrRecovering", err)
	}
	if err := src2.AdvanceTo(5); !errors.Is(err, ErrRecovering) {
		t.Fatalf("AdvanceTo before Restore: %v, want ErrRecovering", err)
	}
	if err := src2.Sync(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("sync before Restore: %v, want ErrRecovering", err)
	}
	if _, err := src2.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, err := src2.Restore(); err == nil {
		t.Fatal("double Restore accepted")
	}
}

// TestRestoreFailsAtomically: when one durable source's shard logs turn out
// unrecoverable mid-restore, Server.Restore must return a nil map alongside
// the error — never a partially populated epoch map a caller (like serve.go)
// could mistakenly resume from.
func TestRestoreFailsAtomically(t *testing.T) {
	dir := t.TempDir()
	s := NewOpts(2, Options{DataDir: dir})
	good, err := NewSourceOpts(s, "aa-good", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewSourceOpts(s, "zz-bad", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		good.Update([]core.Update[uint64, uint64]{{Key: uint64(e), Val: 1, Diff: 1}})
		good.Advance()
		bad.Update([]core.Update[uint64, uint64]{{Key: uint64(e), Val: 2, Diff: 1}})
		bad.Advance()
	}
	good.Sync()
	bad.Sync()
	s.Close()

	// Corrupt zz-bad: rewrite both worker shards as fresh logs whose only
	// batch has an empty upper frontier — a "closed log" no resume point can
	// be cut from. Replay accepts the frames (they are CRC-valid and
	// well-formed), so the damage only surfaces mid-restore, after aa-good
	// has already restored successfully.
	for w := 0; w < 2; w++ {
		lg, _, err := wal.OpenShard(wal.ShardDir(dir, "zz-bad", w),
			wal.U64Codec(), wal.U64Codec(), wal.Options{Fresh: true})
		if err != nil {
			t.Fatalf("rewriting shard %d: %v", w, err)
		}
		closedBatch := core.BuildBatch(core.U64(),
			[]core.Update[uint64, uint64]{{Key: 7, Val: 7, Time: lattice.Ts(0), Diff: 1}},
			lattice.MinFrontier(1), lattice.Frontier{}, lattice.MinFrontier(1))
		if err := lg.AppendBatch(closedBatch); err != nil {
			t.Fatalf("appending closed batch: %v", err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rec := NewOpts(2, Options{DataDir: dir, Recover: true})
	defer rec.Close()
	if _, err := NewSourceOpts(rec, "aa-good", core.U64(), durableOpts()); err != nil {
		t.Fatalf("re-registering aa-good: %v", err)
	}
	if _, err := NewSourceOpts(rec, "zz-bad", core.U64(), durableOpts()); err != nil {
		t.Fatalf("re-registering zz-bad: %v", err)
	}
	epochs, err := rec.Restore()
	if err == nil {
		t.Fatal("Restore succeeded over an unrecoverable shard")
	}
	if epochs != nil {
		t.Fatalf("Restore returned a partial epoch map %v alongside error %v; want nil", epochs, err)
	}
}

// TestClosedServerRefusesWork: every driver-facing operation against a
// closed server fails fast with ErrClosed instead of wedging or panicking,
// and Close is idempotent — the contract a checkpoint ticker or a remote
// client racing shutdown relies on.
func TestClosedServerRefusesWork(t *testing.T) {
	dir := t.TempDir()
	s := NewOpts(2, Options{DataDir: dir})
	src, err := NewSourceOpts(s, "e", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	src.Update([]core.Update[uint64, uint64]{{Key: 1, Val: 2, Diff: 1}})
	src.Advance()
	src.Sync()
	s.Close()
	s.Close() // idempotent

	if err := src.Update([]core.Update[uint64, uint64]{{Key: 3, Val: 4, Diff: 1}}); err != ErrClosed {
		t.Fatalf("Update after Close: %v, want ErrClosed", err)
	}
	if _, err := src.Advance(); err != ErrClosed {
		t.Fatalf("Advance after Close: %v, want ErrClosed", err)
	}
	if err := src.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := s.Checkpoint(); err != ErrClosed {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Restore(); err != ErrClosed {
		t.Fatalf("Restore after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Install("q", func(w *timely.Worker, g *timely.Graph) Built {
		return Built{}
	}); err != ErrClosed {
		t.Fatalf("Install after Close: %v, want ErrClosed", err)
	}
	if _, err := NewSourceOpts(s, "late", core.U64(), durableOpts()); err != ErrClosed {
		t.Fatalf("NewSource after Close: %v, want ErrClosed", err)
	}
}

// TestCloseRacesDriverOps closes the server while a "ticker" goroutine is
// mid-checkpoint and another streams updates — the exact shutdown race a
// serve -listen process runs every time. Nothing may panic or wedge; the
// racing operations must terminate, erroring only with ErrClosed.
func TestCloseRacesDriverOps(t *testing.T) {
	dir := t.TempDir()
	s := NewOpts(2, Options{DataDir: dir})
	src, err := NewSourceOpts(s, "e", core.U64(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	src.Update([]core.Update[uint64, uint64]{{Key: 1, Val: 1, Diff: 1}})
	src.Advance()
	src.Sync()

	done := make(chan struct{}, 2)
	ckptReady := make(chan struct{}) // first checkpoint completed
	updReady := make(chan struct{})  // first update+advance round completed
	go func() {                      // checkpoint ticker
		defer func() { done <- struct{}{} }()
		first := ckptReady
		for {
			if err := s.Checkpoint(); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("checkpoint failed with %v, want nil or ErrClosed", err)
				return
			}
			if first != nil {
				close(first)
				first = nil
			}
		}
	}()
	go func() { // update stream
		defer func() { done <- struct{}{} }()
		first := updReady
		for e := uint64(0); ; e++ {
			if err := src.Update([]core.Update[uint64, uint64]{{Key: e, Val: 1, Diff: 1}}); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("update failed with %v, want nil or ErrClosed", err)
				return
			}
			if _, err := src.Advance(); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				t.Errorf("advance failed with %v, want nil or ErrClosed", err)
				return
			}
			if first != nil {
				close(first)
				first = nil
			}
		}
	}()
	// Close only once both loops have demonstrably reached steady state (a
	// full successful round each), so Close genuinely races mid-operation
	// instead of depending on a scheduler-sensitive sleep.
	<-ckptReady
	<-updReady
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("driver op wedged across Close")
		}
	}
}
