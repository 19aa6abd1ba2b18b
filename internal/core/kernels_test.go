package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// kernelCase is one key/value type of TestOrderedKernelsMatchGeneric: the
// Funcs with kernels, the same order as plain closures, a value generator
// and the value codec.
type kernelCase[V any] struct {
	ordered, generic core.Funcs[uint64, V]
	val              func(r *rand.Rand) V
	vc               wal.Codec[V]
}

// kernelUpdates generates one epoch's updates at depth 1 or 2 from a small
// key and value space: repeated (key, value, time) triples, retractions that
// cancel them, and several loop times per epoch at depth 2.
func kernelUpdates[V any](r *rand.Rand, val func(*rand.Rand) V, depth int, epoch uint64, n int) []core.Update[uint64, V] {
	upds := make([]core.Update[uint64, V], 0, n)
	for len(upds) < n {
		t := lattice.Ts(epoch)
		if depth == 2 {
			t = lattice.Ts(epoch, uint64(r.Intn(4)))
		}
		u := core.Update[uint64, V]{Key: uint64(r.Intn(40)), Val: val(r), Time: t, Diff: core.Diff(r.Intn(5) - 2)}
		upds = append(upds, u)
		switch r.Intn(4) {
		case 0: // the same triple again
			upds = append(upds, u)
		case 1: // its retraction
			u.Diff = -u.Diff
			upds = append(upds, u)
		}
	}
	r.Shuffle(len(upds), func(i, j int) { upds[i], upds[j] = upds[j], upds[i] })
	return upds
}

// frontierAt is the one-element frontier of epoch e at depth.
func frontierAt(depth int, e uint64) lattice.Frontier {
	if depth == 2 {
		return lattice.NewFrontier(lattice.Ts(e, 0))
	}
	return lattice.NewFrontier(lattice.Ts(e))
}

// kernelRun drives one Funcs through a case: it sorts and builds each
// epoch's batch, appends it to a spine whose reader compacts two epochs
// behind, and finally recompacts. It hashes the WAL record of every built
// batch and the block file of every built batch and of the merged trace
// into h, and returns what it saw for comparison.
func kernelRun[V any](t *testing.T, fn core.Funcs[uint64, V], vc wal.Codec[V], depth int, seed int64,
	val func(*rand.Rand) V, h hash.Hash) (sorted [][]core.Update[uint64, V], built, merged []*core.Batch[uint64, V]) {

	t.Helper()
	r := rand.New(rand.NewSource(seed))
	bc, err := wal.NewBatchCodec[uint64, V](nil, vc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := block.Open(dir, fn, nil, vc, block.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spill := func(b *core.Batch[uint64, V]) {
		cold, err := st.Spill(b)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := block.Ref(cold)
		img, err := os.ReadFile(filepath.Join(dir, ref.Name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(img)
	}
	s := core.NewSpine(fn, core.MergeDefault)
	s.SetUpperDepth(depth)
	hd := s.NewHandle()
	const epochs = 12
	for e := uint64(0); e < epochs; e++ {
		upds := kernelUpdates(r, val, depth, e, 300+r.Intn(300))
		sorted = append(sorted, core.SortUpdates(fn, slices.Clone(upds)))
		b := core.BuildBatch(fn, upds, frontierAt(depth, e), frontierAt(depth, e+1), lattice.MinFrontier(depth))
		built = append(built, b)
		rec := wal.AppendHead(nil, b.Lower, b.Upper, b.Since, b.NumKeys(), b.Vals.Len(), b.Len())
		h.Write(bc.AppendPayload(rec, b, 0, b.NumKeys()))
		spill(b)
		if e >= 2 {
			hd.SetLogical(frontierAt(depth, e-2))
		}
		s.Append(b)
	}
	// The runs as the appends' fueled merges left them, then the one run
	// Recompact merges them into, compacted behind the reader.
	runs := s.Runs()
	s.Recompact()
	for _, run := range append(runs, s.Runs()...) {
		b := run.(*core.Batch[uint64, V])
		merged = append(merged, b)
		spill(b)
	}
	if s.MergesCompleted < epochs/2 {
		t.Fatalf("%d merges completed over %d appends", s.MergesCompleted, epochs)
	}
	return sorted, built, merged
}

// TestOrderedKernelsMatchGeneric: Funcs with kernels (core.U64,
// core.U64Key) and the same order given as plain closures, which takes the
// closure path, agree exactly on seeded u64/u64 and u64/Unit update sets at
// depths 1 and 2, with repeated triples and retractions: the same sorted and
// coalesced slices, the same built batches, the same merged trace, and the
// same WAL record and block file bytes — which also match digests taken
// before the kernels existed, so the on-disk formats are unchanged. The
// payloads decode the same through the uint64 word path and through the
// codec path.
func TestOrderedKernelsMatchGeneric(t *testing.T) {
	u64 := kernelCase[uint64]{
		ordered: core.U64(),
		generic: core.Funcs[uint64, uint64]{
			LessK: func(a, b uint64) bool { return a < b },
			LessV: func(a, b uint64) bool { return a < b },
			HashK: core.Mix64,
		},
		val: func(r *rand.Rand) uint64 { return uint64(r.Intn(6)) },
		vc:  wal.U64Codec(),
	}
	unit := kernelCase[core.Unit]{
		ordered: core.U64Key(),
		generic: core.Funcs[uint64, core.Unit]{
			LessK: func(a, b uint64) bool { return a < b },
			LessV: func(a, b core.Unit) bool { return false },
			HashK: core.Mix64,
		},
		val: func(*rand.Rand) core.Unit { return core.Unit{} },
		vc:  wal.UnitCodec(),
	}
	// SHA-256 of every WAL record and block file kernelRun writes, per
	// case, taken with the closure path before the kernels existed.
	golden := map[string]string{
		"u64/depth1":  "2cbb322cd73aaa60fda3b6ef914a6508a7572ac9e01f779af7c0e6707e22ee09",
		"u64/depth2":  "a0abd8d90f527d4a2410550568e0b57dafb56f5f80cc11a1b93067d3a5840527",
		"unit/depth1": "1b7e617767219a27dc737f0df12ccb16f178da1d06697f5be90f38a82e1465f2",
		"unit/depth2": "d700f8281e1cbf9e5646f11ca9038fbbaaec4d2456da33a490c8bca3da1e784e",
	}
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("u64/depth%d", depth), func(t *testing.T) {
			matchKernels(t, u64, depth, golden[fmt.Sprintf("u64/depth%d", depth)])
			checkWordDecode(t, u64, depth)
		})
		t.Run(fmt.Sprintf("unit/depth%d", depth), func(t *testing.T) {
			matchKernels(t, unit, depth, golden[fmt.Sprintf("unit/depth%d", depth)])
		})
	}
}

func matchKernels[V any](t *testing.T, c kernelCase[V], depth int, golden string) {
	for seed := int64(1); seed <= 3; seed++ {
		ho, hg := sha256.New(), sha256.New()
		so, bo, mo := kernelRun(t, c.ordered, c.vc, depth, seed, c.val, ho)
		sg, bg, mg := kernelRun(t, c.generic, c.vc, depth, seed, c.val, hg)
		if !reflect.DeepEqual(so, sg) {
			t.Fatalf("seed %d: sorted updates differ", seed)
		}
		if !reflect.DeepEqual(bo, bg) {
			t.Fatalf("seed %d: built batches differ", seed)
		}
		if !reflect.DeepEqual(mo, mg) {
			t.Fatalf("seed %d: merged traces differ", seed)
		}
		do, dg := hex.EncodeToString(ho.Sum(nil)), hex.EncodeToString(hg.Sum(nil))
		if do != dg {
			t.Fatalf("seed %d: encoded bytes differ", seed)
		}
		if seed == 1 && do != golden {
			t.Errorf("seed 1: WAL records and block files hash to %s, want %s", do, golden)
		}
	}
}

// plainU64 is wal.U64Codec's encoding behind another type, so a batch
// codec over it takes the per-value codec path.
type plainU64 struct{ wal.Codec[uint64] }

// checkWordDecode encodes and decodes one built batch's payload through
// the uint64 word path and through the codec path: the bytes and the
// decoded batches must be identical.
func checkWordDecode(t *testing.T, c kernelCase[uint64], depth int) {
	r := rand.New(rand.NewSource(9))
	b := core.BuildBatch(c.ordered, kernelUpdates(r, c.val, depth, 3, 500),
		frontierAt(depth, 3), frontierAt(depth, 4), lattice.MinFrontier(depth))
	var ps [2][]byte
	var got [2]*core.Batch[uint64, uint64]
	for i, vc := range []wal.Codec[uint64]{wal.U64Codec(), plainU64{wal.U64Codec()}} {
		bc, err := wal.NewBatchCodec[uint64, uint64](nil, vc)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = bc.AppendPayload(nil, b, 0, b.NumKeys())
		got[i] = wal.SizedBatch[uint64, uint64](b.NumKeys(), b.Vals.Len(), b.Len())
		if err := bc.DecodePayload(ps[i], got[i], b.NumKeys(), b.Vals.Len(), b.Len(), depth, nil); err != nil {
			t.Fatalf("codec %d: %v", i, err)
		}
	}
	if !bytes.Equal(ps[0], ps[1]) {
		t.Fatal("word and codec paths encode differently")
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("word and codec paths decode differently")
	}
	n := 0
	got[0].ForEach(func(uint64, uint64, lattice.Time, core.Diff) { n++ })
	if n != b.Len() {
		t.Fatalf("decoded %d of %d updates", n, b.Len())
	}
}

// BenchmarkSortUpdates is one seal's sort: 2 000 u64/u64 updates at one
// time over 500 keys, sorted and coalesced through the kernels (ordered)
// and through the same order as closures (generic).
func BenchmarkSortUpdates(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	upds := make([]core.Update[uint64, uint64], 2000)
	for i := range upds {
		upds[i] = core.Update[uint64, uint64]{Key: uint64(r.Intn(500)), Val: r.Uint64(), Time: lattice.Ts(7), Diff: 1}
	}
	for _, c := range []struct {
		name string
		fn   core.Funcs[uint64, uint64]
	}{
		{"ordered", core.U64()},
		{"generic", core.Funcs[uint64, uint64]{
			LessK: func(a, b uint64) bool { return a < b },
			LessV: func(a, b uint64) bool { return a < b },
			HashK: core.Mix64,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			work := make([]core.Update[uint64, uint64], len(upds))
			for b.Loop() {
				copy(work, upds)
				core.SortUpdates(c.fn, work)
			}
		})
	}
}
