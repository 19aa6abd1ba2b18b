package block

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// u64Run builds one sealed u64/u64 run of exactly n updates in the shape a
// spilled durable arrangement holds: sparse keys, two values per key, two
// epochs per value.
func u64Run(n int) *core.Batch[uint64, uint64] {
	r := rand.New(rand.NewSource(int64(n)))
	upds := make([]core.Update[uint64, uint64], 0, n)
	for i := 0; i < n; i++ {
		upds = append(upds, core.Update[uint64, uint64]{
			Key:  uint64(i/4)*5 + 1,
			Val:  uint64(i/2%2)<<40 | uint64(r.Int63n(1<<40)),
			Time: lattice.Ts(uint64(i % 2)),
			Diff: 1,
		})
	}
	return core.BuildBatch(core.U64(), upds, lattice.MinFrontier(1),
		lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
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
// DecodeImage and Unspill of a 10 k- and a 100 k-update run allocate the
// same number of objects.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
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
		decode[i] = testing.AllocsPerRun(3, func() {
			if _, err := DecodeImage[uint64, uint64](core.U64(), nil, wal.U64Codec(), img); err != nil {
				t.Fatal(err)
			}
		})
		st, cold, _ := spillU64(t, run)
		unspill[i] = testing.AllocsPerRun(3, func() {
			if _, err := st.Unspill(cold); err != nil {
				t.Fatal(err)
			}
		})
		st.Release(cold)
	}
	if decode[0] != decode[1] {
		t.Errorf("DecodeImage allocates %v objects at 10k updates, %v at 100k", decode[0], decode[1])
	}
	if unspill[0] != unspill[1] {
		t.Errorf("Unspill allocates %v objects at 10k updates, %v at 100k", unspill[0], unspill[1])
	}
}

// hostileImage is a file whose one block claims nUpds updates (and as many
// keys and values) around a 12-byte payload, with index totals to match.
func hostileImage(nUpds uint32) []byte {
	return frameBlockClaiming(make([]byte, 12), 0, 0, nUpds, nUpds, nUpds)
}

// TestHostileCountsFailBeforeAllocation: a block claiming more updates than
// its frame length can hold fails openImage with a typed *CorruptError,
// before any column is sized by the claim.
func TestHostileCountsFailBeforeAllocation(t *testing.T) {
	cfg, err := newCodecs[uint64, uint64](core.U64(), nil, wal.U64Codec())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{3, maxElems} {
		img := hostileImage(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, oerr := openImage(cfg, memSource{data: img}, int64(len(img)), "")
		_, derr := DecodeImage[uint64, uint64](core.U64(), nil, wal.U64Codec(), img)
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

// TestLayoutMismatchIsCorrupt: a file whose value layout the store cannot
// decode — columnar values for a row store, row values for a store without
// a value codec — is a *CorruptError, never a panic.
func TestLayoutMismatchIsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, columnar := range []bool{true, false} {
		fn := fnTup(columnar)
		cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
		if err != nil {
			t.Fatal(err)
		}
		img, err := encodeImage(cfg, randBatch(r, fn, 0, 2, 40, 8), 8)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeImage[uint64, tup](fnTup(!columnar), nil, nil, img)
		if _, ok := err.(*CorruptError); !ok {
			t.Fatalf("columnar=%v file decoded by the other layout: got %v, want a *CorruptError", columnar, err)
		}
	}
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
