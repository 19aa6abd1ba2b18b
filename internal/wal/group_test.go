package wal

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
)

// TestGroupCommitRoundTrip exercises the group-commit append path end to
// end: appends mark the file dirty, an explicit Commit syncs it, rotation
// drops the old file from the committer, and the log replays identically.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gc := NewGroupCommitter(time.Hour) // ticker never fires: Commit drives it
	lg, _ := openU64(t, dir, Options{Fsync: true, Commit: gc})

	b1 := mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1})
	b2 := mkBatch(t, 1, 2, [4]int64{2, 20, 1, 1})
	if err := lg.AppendBatch(b1); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := gc.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := lg.Rotate(lattice.NewFrontier(lattice.Ts(1)), []*core.Batch[uint64, uint64]{b1}); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := lg.AppendBatch(b2); err != nil {
		t.Fatalf("AppendBatch after rotate: %v", err)
	}
	if err := gc.Close(); err != nil {
		t.Fatalf("Close committer: %v", err)
	}
	lg.Close()

	_, st := openU64(t, dir, Options{})
	if len(st.Batches) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(st.Batches))
	}
	if !st.Upper.Equal(lattice.NewFrontier(lattice.Ts(2))) {
		t.Fatalf("replayed upper %v, want [2]", st.Upper)
	}
}

// TestGroupCommitSyncsOncePerGroup: fsync-mode appends on logs sharing a
// committer only mark their file dirty — however many appends land, the
// dirty set holds one entry per log — and one Commit syncs them all and
// empties it, after which every record replays.
func TestGroupCommitSyncsOncePerGroup(t *testing.T) {
	const appends = 50
	gc := NewGroupCommitter(time.Hour) // ticker never fires: Commit drives it
	dirs := []string{t.TempDir(), t.TempDir()}
	var logs []*ShardLog[uint64, uint64]
	for _, dir := range dirs {
		lg, _ := openU64(t, dir, Options{Fsync: true, Commit: gc})
		logs = append(logs, lg)
	}
	dirty := func() int {
		gc.mu.Lock()
		defer gc.mu.Unlock()
		return len(gc.dirty)
	}
	for e := uint64(0); e < appends; e++ {
		for i, lg := range logs {
			if err := lg.AppendBatch(mkBatch(t, e, e+1, [4]int64{int64(i), int64(e), int64(e), 1})); err != nil {
				t.Fatalf("log %d append %d: %v", i, e, err)
			}
		}
	}
	if n := dirty(); n != len(logs) {
		t.Fatalf("%d dirty files after %d appends to each of %d logs, want %d",
			n, appends, len(logs), len(logs))
	}
	if err := gc.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if n := dirty(); n != 0 {
		t.Fatalf("%d dirty files after Commit, want 0", n)
	}
	if err := gc.Close(); err != nil {
		t.Fatalf("Close committer: %v", err)
	}
	for i, lg := range logs {
		lg.Close()
		_, st := openU64(t, dirs[i], Options{})
		if len(st.Batches) != appends {
			t.Fatalf("log %d replayed %d batches, want %d", i, len(st.Batches), appends)
		}
	}
}

// TestGroupCommitStickyError: once the committer is closed, further appends
// through it are refused rather than silently left unsynced.
func TestGroupCommitClosedRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	gc := NewGroupCommitter(time.Hour)
	lg, _ := openU64(t, dir, Options{Fsync: true, Commit: gc})
	defer lg.Close()
	if err := gc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := lg.AppendBatch(mkBatch(t, 0, 1, [4]int64{1, 1, 0, 1})); err == nil {
		t.Fatal("append after committer close succeeded; want error")
	}
}

// TestShardLogSize: Size tracks appended bytes, resets to the snapshot
// length on rotation, and survives reopen. A dense u64/u64 batch logs in
// at most 24 bytes an update (≈ 21: a one-byte key delta, a one-byte group
// count each for the key and the value, the 8-byte value, the 9-byte time
// and a one-byte diff), against 41 in the row encoding the batch record
// had before it became the block payload.
func TestShardLogSize(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	if lg.Size() != 0 {
		t.Fatalf("fresh log size %d, want 0", lg.Size())
	}
	b := mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}, [4]int64{2, 20, 0, 1})
	if err := lg.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	appended := lg.Size()
	if appended <= 0 {
		t.Fatalf("size %d after append, want > 0", appended)
	}
	if err := lg.AdvanceSince(lattice.NewFrontier(lattice.Ts(1))); err != nil {
		t.Fatal(err)
	}
	if lg.Size() <= appended {
		t.Fatalf("size did not grow across appends: %d then %d", appended, lg.Size())
	}
	if err := lg.Rotate(lattice.NewFrontier(lattice.Ts(1)), []*core.Batch[uint64, uint64]{b}); err != nil {
		t.Fatal(err)
	}
	rotated := lg.Size()
	if rotated <= 0 {
		t.Fatalf("size %d after rotate, want > 0", rotated)
	}
	lg.Close()

	lg2, _ := openU64(t, dir, Options{})
	defer lg2.Close()
	if lg2.Size() != rotated {
		t.Fatalf("reopened size %d, want %d", lg2.Size(), rotated)
	}

	const n = 1000
	quads := make([][4]int64, n)
	for k := range quads {
		quads[k] = [4]int64{int64(k), int64(k) * 7, 1, 1 - 2*int64(k%2)}
	}
	before := lg2.Size()
	if err := lg2.AppendBatch(mkBatch(t, 1, 2, quads...)); err != nil {
		t.Fatal(err)
	}
	got := lg2.Size() - before
	t.Logf("%d dense updates logged in %d bytes", n, got)
	if got > 24*n {
		t.Fatalf("%d dense updates logged in %d bytes, %.1f an update; want at most 24", n, got, float64(got)/n)
	}
}
