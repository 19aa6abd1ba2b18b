package block

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// decodeImage decodes a complete block-file image from memory, returning
// the batch it stores. Arbitrary input yields either a valid batch or a
// typed *CorruptError — never a panic and never silently wrong counts (the
// fuzz contract; FuzzBlockDecode drives it).
func decodeImage[K, V any](fn core.Funcs[K, V], kc wal.Codec[K], vc wal.Codec[V],
	data []byte) (*core.Batch[K, V], error) {

	cfg, err := newCodecs(fn, kc, vc)
	if err != nil {
		return nil, err
	}
	im, err := openImage(cfg, memSource{data: data}, int64(len(data)), "")
	if err != nil {
		return nil, err
	}
	return im.assemble(cfg)
}

// u64Run builds one sealed u64/u64 run of exactly n updates in the shape a
// spilled durable arrangement holds: sparse keys, four values per key, each
// value at one of two epochs.
func u64Run(n int) *core.Batch[uint64, uint64] { return u64RunAt(n, 0) }

// u64RunAt is u64Run over epochs [lo, lo+2).
func u64RunAt(n int, lo uint64) *core.Batch[uint64, uint64] {
	r := rand.New(rand.NewSource(int64(n) + int64(lo)))
	upds := make([]core.Update[uint64, uint64], 0, n)
	for i := 0; i < n; i++ {
		upds = append(upds, core.Update[uint64, uint64]{
			Key:  uint64(i/4)*5 + 1,
			Val:  uint64(i/2%2)<<40 | uint64(r.Int63n(1<<40)),
			Time: lattice.Ts(lo + uint64(i%2)),
			Diff: 1,
		})
	}
	return core.BuildBatch(core.U64(), upds, lattice.NewFrontier(lattice.Ts(lo)),
		lattice.NewFrontier(lattice.Ts(lo+2)), lattice.MinFrontier(1))
}

// spillU64 spills run into a fresh mmap-backed store and returns the store,
// the cold reader and the file's size in bytes.
func spillU64(tb testing.TB, run *core.Batch[uint64, uint64]) (*Store[uint64, uint64], core.BatchReader[uint64, uint64], int64) {
	tb.Helper()
	st, err := Open[uint64, uint64](tb.TempDir(), core.U64(), nil, wal.U64Codec(), StoreOptions{Mmap: true})
	if err != nil {
		tb.Fatal(err)
	}
	cold, err := st.Spill(run)
	if err != nil {
		tb.Fatal(err)
	}
	return st, cold, cold.(*blockBatch[uint64, uint64]).im.size
}

// TestDecodeAllocsIndependentOfSize: decoding a run allocates its columns
// and a fixed set of headers, never anything per update or per block, so
// decodeImage and Unspill of a 10 k- and a 100 k-update run allocate the
// same number of objects. The collector is off while they are counted: a
// GC cycle's own background allocations (net/netip's unique handles, when
// a dependency links it in) would otherwise land in the count.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(f func()) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, f)
	}
	cfg, err := newCodecs[uint64, uint64](core.U64(), nil, wal.U64Codec())
	if err != nil {
		t.Fatal(err)
	}
	var decode, unspill [2]float64
	for i, n := range []int{10_000, 100_000} {
		run := u64Run(n)
		if run.Len() != n {
			t.Fatalf("test run has %d updates, want %d", run.Len(), n)
		}
		img, err := encodeImage(cfg, run, 0)
		if err != nil {
			t.Fatal(err)
		}
		decode[i] = allocs(func() {
			if _, err := decodeImage[uint64, uint64](core.U64(), nil, wal.U64Codec(), img); err != nil {
				t.Fatal(err)
			}
		})
		st, cold, _ := spillU64(t, run)
		unspill[i] = allocs(func() {
			if _, err := st.Unspill(cold); err != nil {
				t.Fatal(err)
			}
		})
		st.Release(cold)
	}
	if decode[0] != decode[1] {
		t.Errorf("decodeImage allocates %v objects at 10k updates, %v at 100k", decode[0], decode[1])
	}
	if unspill[0] != unspill[1] {
		t.Errorf("Unspill allocates %v objects at 10k updates, %v at 100k", unspill[0], unspill[1])
	}
}

// hostileImage is a file whose one block claims nUpds updates (and as many
// keys and values) around a 12-byte payload, with index totals to match.
func hostileImage(nUpds uint32) []byte {
	return frameBlockClaiming(make([]byte, 12), nUpds, nUpds, nUpds)
}

// TestHostileCountsFailBeforeAllocation: a block claiming more updates than
// its frame length can hold fails openImage with a typed *CorruptError,
// before any column is sized by the claim.
func TestHostileCountsFailBeforeAllocation(t *testing.T) {
	cfg, err := newCodecs[uint64, uint64](core.U64(), nil, wal.U64Codec())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{3, wal.MaxBatchElems} {
		img := hostileImage(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, oerr := openImage(cfg, memSource{data: img}, int64(len(img)), "")
		_, derr := decodeImage[uint64, uint64](core.U64(), nil, wal.U64Codec(), img)
		runtime.ReadMemStats(&after)
		for _, err := range []error{oerr, derr} {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("block claiming %d updates: got %v, want a *CorruptError", n, err)
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("block claiming %d updates: rejecting it allocated %d bytes", n, grew)
		}
	}
}

// withColWidth is img, a valid file, with its index's column-width byte set
// to w and the index frame resealed, so only the width is wrong.
func withColWidth(img []byte, lower, upper, since lattice.Frontier, w byte) []byte {
	indexOff := binary.LittleEndian.Uint64(img[8:16])
	payload, _, err := wal.SplitRecord(img[indexOff:], maxFrameLen)
	if err != nil {
		panic(err)
	}
	payload = append([]byte(nil), payload...)
	// kind, three frontiers, three u32 totals, then the width.
	pos := 1 + len(wal.AppendFrontier(nil, lower)) + len(wal.AppendFrontier(nil, upper)) +
		len(wal.AppendFrontier(nil, since)) + 12
	payload[pos] = w
	return wal.AppendRecord(append([]byte(nil), img[:indexOff]...), payload)
}

// TestLayoutMismatchIsCorrupt: values on disk are codec bytes, so an index
// claiming word columns — a nonzero column width — is a *CorruptError, never
// a panic or a misread. Width zero, the same file, decodes.
func TestLayoutMismatchIsCorrupt(t *testing.T) {
	fn := fnTup(false)
	cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
	if err != nil {
		t.Fatal(err)
	}
	b := randBatch(rand.New(rand.NewSource(3)), fn, 0, 2, 40, 8)
	img, err := encodeImage(cfg, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []byte{0, 1, 4, 255} {
		_, err := decodeImage[uint64, tup](fn, nil, tupCodec{}, withColWidth(img, b.Lower, b.Upper, b.Since, w))
		if w == 0 {
			if err != nil {
				t.Fatalf("width 0: %v", err)
			}
			continue
		}
		if _, ok := err.(*CorruptError); !ok || !strings.Contains(err.Error(), "column width") {
			t.Fatalf("column width %d: got %v, want a *CorruptError about the width", w, err)
		}
	}
}

// TestDescendingValuesAreCorrupt: a block whose key holds its values out
// of order is a *CorruptError, as a repeated key is.
func TestDescendingValuesAreCorrupt(t *testing.T) {
	fn := fnTup(false)
	cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
	if err != nil {
		t.Fatal(err)
	}
	img := swappedValuesImage(t, cfg)
	_, err = decodeImage[uint64, tup](fn, nil, tupCodec{}, img)
	if _, ok := err.(*CorruptError); !ok || !strings.Contains(err.Error(), "value 1 does not ascend") {
		t.Fatalf("got %v, want a *CorruptError about the descending value", err)
	}
}

// coldMerge spills two adjacent n-update u64/u64 runs under a zero budget
// and returns the spine about to merge them: both runs are cold, and the
// merge starts, with no fuel applied, at the next Work. Its output, twice
// the size of the budget, streams into a cold run.
func coldMerge(tb testing.TB, n int) (*core.Spine[uint64, uint64], *Store[uint64, uint64]) {
	tb.Helper()
	st, err := Open[uint64, uint64](tb.TempDir(), core.U64(), nil, wal.U64Codec(), StoreOptions{Mmap: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := core.NewSpine(core.U64(), core.MergeDefault)
	s.SetSpill(st, 0)
	h := s.NewHandle()
	h.SetPhysical(lattice.NewFrontier(lattice.Ts(0))) // hold merges back until both runs are cold
	s.Append(u64RunAt(n, 0))
	s.Append(u64RunAt(n, 2))
	h.SetPhysical(lattice.NewFrontier(lattice.Ts(4)))
	if st.Spills != 2 {
		tb.Fatalf("%d runs spilled, want both", st.Spills)
	}
	return s, st
}

// mergedCold checks that the spine holds the two runs' merge as one cold
// run of 2n updates, and returns it.
func mergedCold(tb testing.TB, s *core.Spine[uint64, uint64], n int) core.BatchReader[uint64, uint64] {
	tb.Helper()
	runs := s.Runs()
	if len(runs) != 1 || runs[0].Len() != 2*n {
		tb.Fatalf("merge left %d runs", len(runs))
	}
	if _, resident := runs[0].(*core.Batch[uint64, uint64]); resident {
		tb.Fatal("a merge of cold runs produced a resident run")
	}
	return runs[0]
}

// liveHeap is the live heap in bytes, just after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestColdMergeBytesIndependentOfRunSize: a merge of two cold runs into a
// cold output holds one decoded block per input and the output block it is
// filling, never a run, so the peak live heap of merging two 10 k-update
// runs and of merging two 100 k-update runs is the same, up to the larger
// output's index and collector noise. The index is one blockMeta per output
// block, held in a slice grown by append (so up to twice that); a
// materialised 100 k-update input, ≈ 6 MB, is far outside the allowance.
func TestColdMergeBytesIndependentOfRunSize(t *testing.T) {
	const noise = 32 << 10
	var peak [2]int64
	var blocks [2]int
	for i, n := range []int{10_000, 100_000} {
		s, _ := coldMerge(t, n)
		base := liveHeap()
		for s.Work(1000) {
			peak[i] = max(peak[i], liveHeap()-base)
		}
		blocks[i] = len(core.UnwrapReader(mergedCold(t, s, n)).(*blockBatch[uint64, uint64]).im.blocks)
	}
	index := 2 * int64(blocks[1]) * int64(unsafe.Sizeof(blockMeta[uint64]{}))
	t.Logf("peak bytes held by the merge: %d at 10k updates a run, %d at 100k; output blocks %d and %d",
		peak[0], peak[1], blocks[0], blocks[1])
	if peak[1] > peak[0]+index+noise {
		t.Errorf("merging 100 k-update runs holds %d bytes at its peak, 10 k-update runs %d (allowance %d)",
			peak[1], peak[0], index+noise)
	}
}

// TestGCSparesRunsBeingWritten: recovery's sweep, which restore runs while
// restore-time merges may be streaming, removes an abandoned temporary file
// but not the one a merge in flight is still writing.
func TestGCSparesRunsBeingWritten(t *testing.T) {
	const n = 10_000
	s, st := coldMerge(t, n)
	s.Work(n) // starts the merge
	s.Work(n) // and writes at least one block of its output
	stray := filepath.Join(st.dir, "run-99999999.blk.tmp")
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for _, r := range s.Runs() {
		ref, _ := Ref(r)
		referenced[ref.Name] = true
	}
	if removed, err := st.GC(referenced); err != nil || removed != 1 {
		t.Fatalf("GC removed %d files (%v), want the stray temporary file alone", removed, err)
	}
	for s.Work(1 << 30) {
	}
	mergedCold(t, s, n)
}

// BenchmarkSpineMergeCold merges two spilled 100 k-update u64/u64 runs into
// a cold output through the spine: what the merge allocates (B/op,
// allocs/op) when its inputs and its output live on disk.
func BenchmarkSpineMergeCold(b *testing.B) {
	const n = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, st := coldMerge(b, n)
		b.StartTimer()
		for s.Work(1 << 30) {
		}
		b.StopTimer()
		st.Retire(mergedCold(b, s, n))
		b.StartTimer()
	}
	b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkUnspill materializes one spilled 100 k-update u64/u64 run: the
// cold tier's decode cost per file byte (MB/s) and its allocations.
func BenchmarkUnspill(b *testing.B) {
	st, cold, size := spillU64(b, u64Run(100_000))
	defer st.Release(cold)
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := st.Unspill(cold); err != nil {
			b.Fatal(err)
		}
	}
}
