package block

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// coldSpine spills run from a spine into a store opened with opt and
// returns a handle on the spine, the store and the run's cold reader. The
// spine and the store order keys by fn.
func coldSpine(tb testing.TB, fn core.Funcs[uint64, uint64], run *core.Batch[uint64, uint64], opt StoreOptions) (*core.Handle[uint64, uint64], *Store[uint64, uint64], *blockBatch[uint64, uint64]) {
	tb.Helper()
	st, err := Open[uint64, uint64](tb.TempDir(), fn, nil, wal.U64Codec(), opt)
	if err != nil {
		tb.Fatal(err)
	}
	s := core.NewSpine(fn, core.MergeDefault)
	s.SetSpill(st, 0) // budget zero: the run spills at the first maintenance step
	h := s.NewHandle()
	s.Append(run)
	s.Work(0)
	runs := s.Runs()
	if len(runs) != 1 {
		tb.Fatalf("spine holds %d runs, want 1", len(runs))
	}
	bb, ok := core.UnwrapReader(runs[0]).(*blockBatch[uint64, uint64])
	if !ok {
		tb.Fatalf("run %T did not spill", runs[0])
	}
	return h, st, bb
}

// TestPointLookupDecodesOneSmallBlock: under default options a point lookup
// through a trace cursor that lands strictly inside a cold block decodes
// that block and nothing else, and the block is small: at most 8 KiB of
// frame for a u64/u64 run. Each block is probed once, so every lookup
// starts from a cold cache; odd blocks are probed at an absent key.
func TestPointLookupDecodesOneSmallBlock(t *testing.T) {
	const maxFrame = 8 << 10
	run := u64Run(100_000)
	h, st, bb := coldSpine(t, core.U64(), run, StoreOptions{})
	var reads []int
	st.OnBlockRead = func(_ string, bi int) { reads = append(reads, bi) }
	lookups := 0
	for bi := range bb.im.blocks {
		m := &bb.im.blocks[bi]
		if m.nKeys < 3 {
			continue // no interior key
		}
		k := run.Keys[m.keyBase+m.nKeys/2]
		want := 4 // u64Run's updates per key
		if bi%2 == 1 {
			k, want = k+1, 0 // keys are 5 apart
		}
		reads = reads[:0]
		c := h.Cursor()
		got := 0
		if c.SeekKey(k) {
			c.ForUpdates(k, func(uint64, lattice.Time, core.Diff) { got++ })
		}
		if got != want {
			t.Fatalf("key %d: %d updates, want %d", k, got, want)
		}
		if len(reads) != 1 || reads[0] != bi {
			t.Fatalf("lookup of key %d inside block %d decoded blocks %v", k, bi, reads)
		}
		if m.length > maxFrame {
			t.Fatalf("lookup of key %d decoded a %d-byte block (%d updates), want ≤ %d bytes",
				k, m.length, m.nUpds, maxFrame)
		}
		lookups++
	}
	if lookups < 100 {
		t.Fatalf("only %d blocks have interior keys", lookups)
	}
}

// TestFreshSeekIsOneSearch: a fresh cursor's first seek on a cold run finds
// its block with one binary search over the blocks' last keys and then
// searches inside that one block, so seeking into the last of ≈ 390 blocks
// costs a few dozen key comparisons, not one per block it passes.
func TestFreshSeekIsOneSearch(t *testing.T) {
	compares := 0
	fn := core.U64()
	fn.LessK = func(a, b uint64) bool { compares++; return a < b }
	run := u64Run(100_000)
	h, _, bb := coldSpine(t, fn, run, StoreOptions{})
	if len(bb.im.blocks) < 300 {
		t.Fatalf("the run spilled into %d blocks, want hundreds", len(bb.im.blocks))
	}
	m := &bb.im.blocks[len(bb.im.blocks)-1]
	k := run.Keys[m.keyBase+m.nKeys/2]
	c := h.Cursor()
	compares = 0
	if !c.SeekKey(k) {
		t.Fatalf("key %d missing", k)
	}
	t.Logf("a fresh seek into the last of %d blocks made %d key comparisons", len(bb.im.blocks), compares)
	if compares >= 64 {
		t.Fatalf("a fresh seek into the last of %d blocks made %d key comparisons, want fewer than 64",
			len(bb.im.blocks), compares)
	}
}

// TestCacheMetersApproxBytes: the decoded-block cache meters each block as
// core.Batch.ApproxBytes meters it, so CacheBytes is the sum of its blocks'
// ApproxBytes, and the clock keeps it within the budget plus one block
// while random lookups evict.
func TestCacheMetersApproxBytes(t *testing.T) {
	run := u64Run(100_000)
	h, st, _ := coldSpine(t, core.U64(), run, StoreOptions{})
	r := rand.New(rand.NewSource(5))
	var largest int64
	for i := 0; i < 2000; i++ {
		k := run.Keys[r.Intn(len(run.Keys))]
		c := h.Cursor()
		if !c.SeekKey(k) {
			t.Fatalf("key %d missing", k)
		}
		c.ForUpdates(k, func(uint64, lattice.Time, core.Diff) {})
		var sum int64
		for _, e := range st.ring {
			n := e.blk.ApproxBytes()
			sum += n
			largest = max(largest, n)
		}
		if got := st.CacheBytes(); got != sum {
			t.Fatalf("after %d lookups the cache reports %d bytes, its blocks' ApproxBytes sum to %d", i+1, got, sum)
		}
		if budget := st.opt.CacheBytes; sum > budget+largest {
			t.Fatalf("after %d lookups the cache holds %d bytes, budget %d + one block %d", i+1, sum, budget, largest)
		}
	}
	if st.BlocksRead <= len(st.ring) {
		t.Fatalf("%d blocks read, %d cached: the lookups never evicted", st.BlocksRead, len(st.ring))
	}
}

// BenchmarkColdPointLookup looks up random keys of a spilled 100 k-update
// u64/u64 run, one key per op through a fresh trace cursor, with the
// default decoded-block cache: what a cold point read costs (ns/op is per
// lookup, allocs/op) and how many updates it decodes.
func BenchmarkColdPointLookup(b *testing.B) {
	run := u64Run(100_000)
	h, st, bb := coldSpine(b, core.U64(), run, StoreOptions{})
	decoded := 0
	st.OnBlockRead = func(_ string, bi int) { decoded += bb.im.blocks[bi].nUpds }
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		k := run.Keys[r.Intn(len(run.Keys))]
		c := h.Cursor()
		if !c.SeekKey(k) {
			b.Fatalf("key %d missing", k)
		}
		c.ForUpdates(k, func(uint64, lattice.Time, core.Diff) {})
	}
	b.ReportMetric(float64(decoded)/float64(b.N), "decoded-upds/lookup")
}
