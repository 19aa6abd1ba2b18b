package server

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// captureSource installs a dump query over the source (snapshot import plus
// live batches) and returns the shared accumulator and the query.
func captureSource(t *testing.T, s *Server, src *Source[uint64, uint64]) (*dd.Captured[uint64, uint64], *Query) {
	t.Helper()
	cap := &dd.Captured[uint64, uint64]{}
	q, err := s.Install("capture-"+src.Name(), func(w *timely.Worker, g *timely.Graph) Built {
		imported := src.ImportInto(g)
		col := dd.Flatten(imported)
		dd.Capture(col, cap)
		return Built{Probe: dd.Probe(col), Teardown: func() { imported.Cancel() }}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cap, q
}

// TestAdvanceToConservesCollection: sealing epochs one at a time versus
// jumping the epoch clock over the same updates (AdvanceTo — the coalesced
// seal adaptive batching issues) must accumulate to the same collection at
// every coalesced-group boundary and at the end. Within a group the logical
// epochs collapse onto the group's opening epoch; across a boundary nothing
// may be lost, duplicated, or reordered past it.
func TestAdvanceToConservesCollection(t *testing.T) {
	const epochs = 10
	boundaries := []uint64{3, 7, epochs} // coalesced groups [0,3) [3,7) [7,10)
	hist := randomHistory(42, epochs)

	fine := New(2)
	defer fine.Close()
	srcF, err := NewSource(fine, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	capF, qF := captureSource(t, fine, srcF)

	coarse := New(2)
	defer coarse.Close()
	srcC, err := NewSource(coarse, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	capC, qC := captureSource(t, coarse, srcC)

	bi := 0
	for e := uint64(0); e < epochs; e++ {
		if err := srcF.Update(hist[e]); err != nil {
			t.Fatal(err)
		}
		if _, err := srcF.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := srcC.Update(hist[e]); err != nil {
			t.Fatal(err)
		}
		if e+1 == boundaries[bi] {
			if err := srcC.AdvanceTo(boundaries[bi]); err != nil {
				t.Fatal(err)
			}
			bi++
		}
	}
	if err := srcF.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := srcC.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync answers for the sources; the dump queries trail them.
	if !qF.WaitDone(lattice.Ts(epochs-1)) || !qC.WaitDone(lattice.Ts(epochs-1)) {
		t.Fatal("server closed before the dump queries caught up")
	}

	for _, b := range boundaries {
		at := lattice.Ts(b - 1)
		got, want := capC.At(at), capF.At(at)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("coalesced run diverges at boundary %d:\n got %v\nwant %v", b, got, want)
		}
		if count(got) != count(want) || checksum(got) != checksum(want) {
			t.Fatalf("count/checksum mismatch at boundary %d", b)
		}
	}
}

func count(m map[[2]any]core.Diff) int64 {
	var n int64
	for _, d := range m {
		n += int64(d)
	}
	return n
}

func checksum(m map[[2]any]core.Diff) uint64 {
	var sum uint64
	for k, d := range m {
		sum += uint64(d) * core.Mix64(core.Mix64(k[0].(uint64))^k[1].(uint64))
	}
	return sum
}

// TestBatcherCoalescesUnderLag pins the control loop deterministically: with
// every worker goroutine blocked, sealed epochs cannot complete, so after the
// first physical seal the lag sits at the bound and every further logical
// seal defers. Unblocking the workers lets the background drainer issue one
// coalesced seal for everything pending — and the result still lands on the
// oracle.
func TestBatcherCoalescesUnderLag(t *testing.T) {
	const workers, epochs = 2, 8
	hist := randomHistory(7, epochs)

	s := New(workers)
	defer s.Close()
	src, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	cap, capQ := captureSource(t, s, src)

	// Block every worker goroutine (the blocker occupies the action drain).
	block := make(chan struct{})
	started := make(chan struct{}, workers)
	s.c.PostEach(func(w *timely.Worker) {
		started <- struct{}{}
		<-block
	})
	for i := 0; i < workers; i++ {
		<-started
	}

	b := NewBatcher(src, BatcherOptions{MaxLag: 1})
	defer b.Close()
	for e := uint64(0); e < epochs; e++ {
		if err := b.Offer(hist[e]); err != nil {
			t.Fatal(err)
		}
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if sealed != e {
			t.Fatalf("Seal returned logical epoch %d, want %d", sealed, e)
		}
	}
	st := b.Stats()
	if st.LogicalSeals != epochs {
		t.Fatalf("logical seals %d, want %d", st.LogicalSeals, epochs)
	}
	// The first seal went through physically (the pipeline was empty); with
	// the workers blocked nothing completed since, so everything after it
	// deferred.
	if src.Epoch() != 1 {
		t.Fatalf("physical epoch %d while workers blocked, want 1", src.Epoch())
	}
	if got := b.Epoch(); got != epochs {
		t.Fatalf("logical epoch %d, want %d", got, epochs)
	}

	close(block)
	// The drainer must seal the deferred epochs on its own — no further
	// Seal/Flush calls — as soon as the pipeline drains.
	if !s.WaitFor(func() bool { return src.Epoch() == epochs }) {
		t.Fatal("server closed before the drainer caught up")
	}
	if err := src.Sync(); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.PhysicalSeals >= st.LogicalSeals {
		t.Fatalf("no coalescing: %d physical seals for %d logical", st.PhysicalSeals, st.LogicalSeals)
	}
	if st.MaxCoalesced < 2 {
		t.Fatalf("MaxCoalesced %d, want >= 2", st.MaxCoalesced)
	}

	if !capQ.WaitDone(lattice.Ts(epochs - 1)) {
		t.Fatal("server closed before the dump query caught up")
	}
	got := cap.At(lattice.Ts(epochs - 1))
	want := make(map[[2]any]core.Diff)
	for k, d := range historyOracle(hist) {
		want[[2]any{k[0], k[1]}] = d
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coalesced stream diverged from oracle:\n got %v\nwant %v", got, want)
	}
}

// TestBatcherIdleSealsImmediately: a drained pipeline never defers — every
// logical seal is its own physical epoch (minimum latency when idle).
func TestBatcherIdleSealsImmediately(t *testing.T) {
	s := New(1)
	defer s.Close()
	src, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(src, BatcherOptions{MaxLag: 1})
	defer b.Close()
	const epochs = 5
	for e := 0; e < epochs; e++ {
		if err := b.Offer([]core.Update[uint64, uint64]{{Key: uint64(e), Val: 1, Diff: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(); err != nil { // drain: next seal must be immediate
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.PhysicalSeals != epochs || st.MaxCoalesced != 1 {
		t.Fatalf("idle pipeline coalesced: %+v", st)
	}
}

// TestBatcherClosed: operations against a closed batcher fail typed, and
// Close is idempotent.
func TestBatcherClosed(t *testing.T) {
	s := New(1)
	defer s.Close()
	src, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(src, BatcherOptions{})
	b.Close()
	b.Close()
	if err := b.Offer(nil); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("Offer after Close: %v", err)
	}
	if _, err := b.Seal(); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("Seal after Close: %v", err)
	}
	if err := b.Flush(); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
}
