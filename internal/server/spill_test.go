package server

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

func spillOpts(budget int64) SourceOptions[uint64, uint64] {
	opt := durableOpts()
	opt.SpillBytes = budget
	return opt
}

// TestSpillCheckpointRestoreRoundTrip is the server-level disk-tier round
// trip: a source with an aggressively small resident budget spills runs to
// block files, checkpoints reference them by name instead of rewriting them,
// and a recovered server reopens the referenced files, rebuilds exactly the
// live spine's canonical contents, and keeps serving. Two full
// stop-and-restore generations chain, so a manifest written by a recovered
// server (whose refs came from a previous manifest) restores too.
func TestSpillCheckpointRestoreRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			const epochs = 12
			hist := randomHistory(21, epochs)
			dir := t.TempDir()

			live := NewOpts(workers, Options{DataDir: dir})
			src, err := NewSourceOpts(live, "edges", core.U64(), spillOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			runDurable(t, src, hist, 0, epochs/2)
			// Files and refs agree after a quiescent checkpoint: run the
			// merges the last seals left in progress to their end first, or
			// one landing between the checkpoint and the count retires a
			// file the checkpoint's collection has already passed over.
			src.s.c.PostEach(func(w *timely.Worker) {
				for src.arr[w.Index()].Agent.Spine().Work(1 << 30) {
				}
			}).Wait()
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			files, refs, err := src.SpillStats()
			if err != nil {
				t.Fatal(err)
			}
			if refs == 0 {
				t.Fatal("budget-1 run spilled nothing; the round trip tests nothing")
			}
			if files != refs {
				t.Fatalf("after checkpoint: %d block files on disk, %d referenced", files, refs)
			}
			want := dumpShards(src)
			live.Close()

			restored := NewOpts(workers, Options{DataDir: dir, Recover: true})
			src2, err := NewSourceOpts(restored, "edges", core.U64(), spillOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := restored.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if rec["edges"] != epochs {
				t.Fatalf("restored epoch %d, want %d", rec["edges"], epochs)
			}
			if got := dumpShards(src2); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored shards differ from live spine:\n got %+v\nwant %+v", got, want)
			}

			// Second generation: keep streaming, checkpoint (its refs were
			// themselves restored from refs), restore again, check the oracle.
			extra := randomHistory(121, 4)
			full := append(append([][]core.Update[uint64, uint64]{}, hist...), extra...)
			runDurable(t, src2, full, epochs, 0)
			if err := src2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want2 := dumpShards(src2)
			restored.Close()

			again := NewOpts(workers, Options{DataDir: dir, Recover: true})
			defer again.Close()
			src3, err := NewSourceOpts(again, "edges", core.U64(), spillOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := again.Restore(); err != nil {
				t.Fatal(err)
			}
			if got := dumpShards(src3); !reflect.DeepEqual(got, want2) {
				t.Fatalf("second-generation restore differs:\n got %+v\nwant %+v", got, want2)
			}

			merged := make(map[[2]uint64]core.Diff)
			for _, d := range dumpShards(src3) {
				for ks, diff := range d.Upds {
					var k, v uint64
					var ts string
					if _, err := fmt.Sscanf(ks, "%d/%d@%s", &k, &v, &ts); err != nil {
						t.Fatalf("bad dump key %q", ks)
					}
					kk := [2]uint64{k, v}
					merged[kk] += diff
					if merged[kk] == 0 {
						delete(merged, kk)
					}
				}
			}
			if want := historyOracle(full); !reflect.DeepEqual(merged, want) {
				t.Fatalf("restored contents diverge from oracle:\n got %v\nwant %v", merged, want)
			}
		})
	}
}

// TestCheckpointMidMergeNamesColdInputs: a checkpoint taken while a merge of
// cold runs is in flight names those runs by block reference, exactly as it
// would once they are at rest — it never rewrites spilled data into the WAL.
// During the merge, Runs returns each cold input's own reader, not a
// resident copy of it.
func TestCheckpointMidMergeNamesColdInputs(t *testing.T) {
	const epochs = 6
	dir := t.TempDir()
	live := NewOpts(1, Options{DataDir: dir})
	defer live.Close()
	src, err := NewSourceOpts(live, "edges", core.U64(), spillOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// A reader whose physical frontier holds every merge back, so each
	// sealed run lands cold and stays a run of its own.
	var h *core.Handle[uint64, uint64]
	src.s.c.PostEach(func(w *timely.Worker) {
		h = src.arr[0].Agent.NewHandle()
		h.SetPhysical(lattice.NewFrontier(lattice.Ts(0)))
	}).Wait()
	for _, upds := range randomHistory(5, epochs) { // one seal, so one run, per epoch
		src.Update(upds)
		src.Advance()
		if err := src.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	var before, during []core.BatchReader[uint64, uint64]
	var started, completed int
	var skipped bool
	var cerr error
	src.s.c.PostEach(func(w *timely.Worker) {
		spine := src.arr[0].Agent.Spine()
		before = spine.Runs()
		started, completed = spine.MergesStarted, spine.MergesCompleted
		h.Drop()
		spine.Work(0) // starts the merges, applies no fuel
		during = spine.Runs()
		started, completed = spine.MergesStarted-started, spine.MergesCompleted-completed
		skipped, cerr = src.checkpointRuns(0, lattice.NewFrontier(lattice.Ts(epochs)))
	}).Wait()
	if cerr != nil || skipped {
		t.Fatalf("mid-merge checkpoint: skipped=%v err=%v", skipped, cerr)
	}
	var cold []string
	for _, r := range before {
		if ref, ok := block.Ref(r); ok {
			cold = append(cold, ref.Name)
			if !slices.ContainsFunc(during, func(d core.BatchReader[uint64, uint64]) bool {
				return core.UnwrapReader(d) == core.UnwrapReader(r)
			}) {
				t.Fatalf("cold run %s is not among the runs during the merge", ref.Name)
			}
		}
	}
	if len(cold) < 2 || started == 0 || completed != 0 {
		t.Fatalf("%d cold runs, %d merges started, %d completed: no cold merge in flight to test",
			len(cold), started, completed)
	}
	live.Close()

	lg, st, err := wal.OpenShard(wal.ShardDir(dir, "edges", 0), wal.U64Codec(), wal.U64Codec(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	for _, name := range cold {
		if !slices.ContainsFunc(st.Runs, func(r wal.Run[uint64, uint64]) bool { return r.Ref != nil && r.Ref.Name == name }) {
			t.Fatalf("checkpoint holds no reference to merge input %s: its updates went into the WAL", name)
		}
	}
	if len(st.Runs) != len(during) {
		t.Fatalf("checkpoint logged %d runs, the spine held %d", len(st.Runs), len(during))
	}
	for i, r := range during {
		ref, cold := block.Ref(r)
		switch {
		case cold && st.Runs[i].Ref == nil:
			t.Fatalf("run %d (%s) was logged as a batch record: spilled data rewritten into the WAL", i, ref.Name)
		case cold && st.Runs[i].Ref.Name != ref.Name:
			t.Fatalf("run %d logged as %s, the spine holds %s", i, st.Runs[i].Ref.Name, ref.Name)
		case !cold && st.Runs[i].Batch == nil:
			t.Fatalf("resident run %d logged as a block reference", i)
		}
	}
}

// TestSpillOrphanFilesCollectedOnRecovery: block files spilled after the
// last checkpoint are unreferenced by the manifest a crash leaves behind.
// Recovery must delete them (they are re-derivable from the logged batches)
// rather than leak them forever.
func TestSpillOrphanFilesCollectedOnRecovery(t *testing.T) {
	const epochs = 10
	hist := randomHistory(33, epochs)
	dir := t.TempDir()

	live := NewOpts(1, Options{DataDir: dir})
	src, err := NewSourceOpts(live, "edges", core.U64(), spillOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	runDurable(t, src, hist, 0, 0) // never checkpoints
	files, refs, err := src.SpillStats()
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("budget-1 run spilled nothing; the GC leg tests nothing")
	}
	if refs == 0 {
		t.Fatal("no cold runs in the live trace")
	}
	live.Close()
	orphans, err := src.stores[0].LiveFiles()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewOpts(1, Options{DataDir: dir, Recover: true})
	defer restored.Close()
	src2, err := NewSourceOpts(restored, "edges", core.U64(), spillOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	// The pre-crash manifest references no blocks, so recovery's sweep must
	// remove every orphan. Nothing else can: no run of the restored process
	// names them, so none is ever retired or dead-listed, and the restore's
	// own spills take fresh names.
	after, err := src2.stores[0].LiveFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range after {
		if slices.Contains(orphans, name) {
			t.Fatalf("after recovery: orphan %s survived the sweep", name)
		}
	}
	// Whatever is on disk after a quiescent checkpoint was spilled by the
	// restore itself and is referenced by the live trace. Count only then,
	// as kpg's SPILL line does: a merge the restore scheduled may retire a
	// spilled run after Restore returns, and its file stays dead-listed
	// until a checkpoint collects it.
	src2.s.c.PostEach(func(w *timely.Worker) {
		for src2.arr[w.Index()].Agent.Spine().Work(1 << 30) {
		}
	}).Wait()
	if err := src2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files2, refs2, err := src2.SpillStats()
	if err != nil {
		t.Fatal(err)
	}
	if files2 != refs2 {
		t.Fatalf("after recovery and a checkpoint: %d block files on disk, %d referenced (orphans leaked)", files2, refs2)
	}

	merged := make(map[[2]uint64]core.Diff)
	for _, d := range dumpShards(src2) {
		for ks, diff := range d.Upds {
			var k, v uint64
			var ts string
			if _, err := fmt.Sscanf(ks, "%d/%d@%s", &k, &v, &ts); err != nil {
				t.Fatalf("bad dump key %q", ks)
			}
			kk := [2]uint64{k, v}
			merged[kk] += diff
			if merged[kk] == 0 {
				delete(merged, kk)
			}
		}
	}
	if want := historyOracle(hist); !reflect.DeepEqual(merged, want) {
		t.Fatalf("recovered contents diverge from oracle:\n got %v\nwant %v", merged, want)
	}
}

// TestSpillRequiresDurability pins the option guard: a spill budget without
// durability is a configuration error, not a silent in-memory fallback.
func TestSpillRequiresDurability(t *testing.T) {
	s := New(1)
	defer s.Close()
	if _, err := NewSource(s, "plain", core.U64()); err != nil {
		t.Fatal(err)
	}
	opt := SourceOptions[uint64, uint64]{SpillBytes: 4096}
	if _, err := NewSourceOpts(s, "bad", core.U64(), opt); err == nil {
		t.Fatal("spill without durability accepted")
	}
}
