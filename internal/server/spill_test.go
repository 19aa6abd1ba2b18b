package server

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/timely"
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
