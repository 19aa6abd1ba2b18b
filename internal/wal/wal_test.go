package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
)

// mkBatch builds a sealed batch covering epochs [lo, hi) from (key, val,
// epoch, diff) quads.
func mkBatch(t *testing.T, lo, hi uint64, quads ...[4]int64) *core.Batch[uint64, uint64] {
	if t != nil {
		t.Helper()
	}
	var upds []core.Update[uint64, uint64]
	for _, q := range quads {
		upds = append(upds, core.Update[uint64, uint64]{
			Key: uint64(q[0]), Val: uint64(q[1]), Time: lattice.Ts(uint64(q[2])), Diff: q[3],
		})
	}
	return core.BuildBatch(core.U64(), upds,
		lattice.NewFrontier(lattice.Ts(lo)), lattice.NewFrontier(lattice.Ts(hi)),
		lattice.MinFrontier(1))
}

// u64Batches is the batch payload codec of a u64/u64 shard log.
var u64Batches, _ = NewBatchCodec[uint64, uint64](U64Codec(), U64Codec())

func openU64(t *testing.T, dir string, opt Options) (*ShardLog[uint64, uint64], *ShardState[uint64, uint64]) {
	t.Helper()
	lg, st, err := OpenShard[uint64, uint64](dir, U64Codec(), U64Codec(), opt)
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	return lg, st
}

func shardFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 {
		t.Fatalf("want exactly one generation file, have %v", names)
	}
	return filepath.Join(dir, names[0])
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	lg, st := openU64(t, dir, Options{})
	if len(st.Batches) != 0 || st.Torn {
		t.Fatalf("fresh log not empty: %+v", st)
	}
	b1 := mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}, [4]int64{2, 20, 0, 2})
	b2 := mkBatch(t, 1, 3, [4]int64{1, 10, 1, -1}, [4]int64{3, 30, 2, 1})
	for _, b := range []*core.Batch[uint64, uint64]{b1, b2} {
		if err := lg.AppendBatch(b); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	if err := lg.AdvanceSince(lattice.NewFrontier(lattice.Ts(3))); err != nil {
		t.Fatalf("AdvanceSince: %v", err)
	}
	lg.Close()

	lg2, st2 := openU64(t, dir, Options{})
	defer lg2.Close()
	if st2.Torn {
		t.Fatal("clean log reported torn")
	}
	if !reflect.DeepEqual(st2.Batches, []*core.Batch[uint64, uint64]{b1, b2}) {
		t.Fatalf("replayed batches differ:\n got %+v\nwant %+v", st2.Batches, []*core.Batch[uint64, uint64]{b1, b2})
	}
	if !st2.Since.Equal(lattice.NewFrontier(lattice.Ts(3))) {
		t.Fatalf("replayed since = %v, want {(3)}", st2.Since)
	}
	if !st2.Upper.Equal(lattice.NewFrontier(lattice.Ts(3))) {
		t.Fatalf("replayed upper = %v, want {(3)}", st2.Upper)
	}
}

// TestStagingBufferBounded: a log does not keep the staging buffer of the
// largest record it ever wrote. After a 100 k-update batch and a small one,
// the staging capacity it retains is at most maxStagingBytes, and both
// records replay.
func TestStagingBufferBounded(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	quads := make([][4]int64, 100_000)
	for i := range quads {
		quads[i] = [4]int64{int64(i), int64(i) * 7, 0, 1}
	}
	big := mkBatch(t, 0, 1, quads...)
	small := mkBatch(t, 1, 2, [4]int64{1, 10, 1, 1})
	if err := lg.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if lg.Size() <= maxStagingBytes {
		t.Fatalf("the big record is %d bytes, not above the %d-byte bound; the test is vacuous", lg.Size(), maxStagingBytes)
	}
	if err := lg.AppendBatch(small); err != nil {
		t.Fatal(err)
	}
	if c := cap(lg.pbuf); c > maxStagingBytes {
		t.Fatalf("log retains %d bytes of staging, bound %d", c, maxStagingBytes)
	}
	lg.Close()
	lg2, st := openU64(t, dir, Options{})
	defer lg2.Close()
	if !reflect.DeepEqual(st.Batches, []*core.Batch[uint64, uint64]{big, small}) {
		t.Fatalf("replayed %d batches, want the big and the small one", len(st.Batches))
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	b1 := mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1})
	b2 := mkBatch(t, 1, 2, [4]int64{2, 20, 1, 1})
	lg.AppendBatch(b1)
	lg.AppendBatch(b2)
	lg.Close()

	// Tear mid-record: drop the last 5 bytes, as a crash mid-write would.
	path := shardFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := len(data)
	if err := os.WriteFile(path, data[:full-5], 0o644); err != nil {
		t.Fatal(err)
	}

	lg2, st := openU64(t, dir, Options{})
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(st.Batches) != 1 || !reflect.DeepEqual(st.Batches[0], b1) {
		t.Fatalf("torn replay: want exactly the first batch, got %d batches", len(st.Batches))
	}
	// The tail must be physically gone so appends chain from the prefix.
	if fi, _ := os.Stat(path); fi.Size() >= int64(full-5) {
		t.Fatalf("torn tail not truncated: %d bytes", fi.Size())
	}
	if err := lg2.AppendBatch(b2); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	lg2.Close()
	_, st3 := openU64(t, dir, Options{})
	if len(st3.Batches) != 2 || st3.Torn {
		t.Fatalf("after re-append: %d batches, torn=%v", len(st3.Batches), st3.Torn)
	}
}

func TestBitFlipRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	b1 := mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1})
	b2 := mkBatch(t, 1, 2, [4]int64{2, 20, 1, 1})
	b3 := mkBatch(t, 2, 3, [4]int64{3, 30, 2, 1})
	lg.AppendBatch(b1)
	mid, _ := lg.f.Seek(0, 1)
	lg.AppendBatch(b2)
	lg.AppendBatch(b3)
	lg.Close()

	path := shardFile(t, dir)
	data, _ := os.ReadFile(path)
	data[mid+12] ^= 0x40 // corrupt the second record's payload
	os.WriteFile(path, data, 0o644)

	_, st := openU64(t, dir, Options{})
	if !st.Torn || len(st.Batches) != 1 {
		t.Fatalf("bit flip: want 1-batch prefix and torn=true, got %d batches torn=%v",
			len(st.Batches), st.Torn)
	}
}

// hostileRecord frames a CRC-valid batch record over epoch 0 holding two
// keys, two values and two updates, with the given key deltas, values per
// key and updates per value.
func hostileRecord(keyDeltas, keyGroups, valGroups [2]uint64) []byte {
	p := AppendHead([]byte{recBatch}, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(1)),
		lattice.MinFrontier(1), 2, 2, 2)
	for _, u := range keyDeltas {
		p = AppendUvarint(p, u)
	}
	for _, u := range keyGroups {
		p = AppendUvarint(p, u)
	}
	p = AppendU64(AppendU64(p, 10), 20)
	for _, u := range valGroups {
		p = AppendUvarint(p, u)
	}
	for range 2 {
		p = AppendZigzag(AppendTime(p, lattice.Ts(0)), 1)
	}
	return appendRecord(nil, p)
}

// twoValueRecord frames a batch record of one key, 5, holding two values,
// v1 then v2, each with one update at epoch 0: a valid record when v1 < v2.
func twoValueRecord(v1, v2 uint64) []byte {
	p := AppendHead([]byte{recBatch}, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(1)),
		lattice.MinFrontier(1), 1, 2, 2)
	p = AppendUvarint(AppendUvarint(p, 5), 2)
	p = AppendU64(AppendU64(p, v1), v2)
	p = AppendUvarint(AppendUvarint(p, 1), 1)
	for range 2 {
		p = AppendZigzag(AppendTime(p, lattice.Ts(0)), 1)
	}
	return appendRecord(nil, p)
}

// rowRecord frames one update, key 5, value 10, at epoch 0, as a kind-1
// batch record in the retired row encoding: the three frontiers, then u32
// counts and offsets, 8-byte keys and values, and per update a time and an
// 8-byte diff. These are the bytes the encoder wrote for it at ba96dae.
func rowRecord() []byte {
	p := []byte{recRowBatch}
	p = AppendFrontier(p, lattice.MinFrontier(1))
	p = AppendFrontier(p, lattice.NewFrontier(lattice.Ts(1)))
	p = AppendFrontier(p, lattice.MinFrontier(1))
	p = AppendU64(AppendU32(p, 1), 5)
	p = AppendU32(AppendU32(AppendU32(p, 2), 0), 1)
	p = AppendU64(AppendU32(p, 1), 10)
	p = AppendU32(AppendU32(AppendU32(p, 2), 0), 1)
	p = AppendU64(AppendTime(AppendU32(p, 1), lattice.Ts(0)), 1)
	return appendRecord(nil, p)
}

// TestChainBreakIsCorrupt: a CRC-valid record that is not a valid log —
// a batch breaking the lower/upper chain, a batch record with a repeated
// key, a key whose values descend or repeat, an empty key group or an empty
// value group, or a kind-1 record in the retired row encoding — fails
// replay with a *CorruptError, and the log is left as it was, not truncated
// as a torn tail.
func TestChainBreakIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	lg.AppendBatch(mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}))
	// Skip [1,2): the next batch's lower does not match the chain.
	lg.AppendBatch(mkBatch(t, 2, 3, [4]int64{2, 20, 2, 1}))
	lg.Close()

	_, _, err := OpenShard[uint64, uint64](dir, U64Codec(), U64Codec(), Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("chain break: want *CorruptError, got %v", err)
	}

	// Each log is one record after a valid one, so nothing before it is
	// at fault.
	valid := hostileRecord([2]uint64{5, 1}, [2]uint64{1, 1}, [2]uint64{1, 1})
	for _, c := range []struct {
		name   string
		record []byte
		reason string
	}{
		{"repeated key", hostileRecord([2]uint64{5, 0}, [2]uint64{1, 1}, [2]uint64{1, 1}), "repeats"},
		{"descending values", twoValueRecord(20, 10), "value 1 does not ascend"},
		{"repeated value", twoValueRecord(10, 10), "value 1 does not ascend"},
		{"empty key group", hostileRecord([2]uint64{5, 1}, [2]uint64{0, 2}, [2]uint64{1, 1}), "key offsets"},
		{"empty value group", hostileRecord([2]uint64{5, 1}, [2]uint64{1, 1}, [2]uint64{0, 2}), "value offsets"},
		{"row-encoded batch", rowRecord(), "record kind 1"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, genName(1))
		data := append(append([]byte(nil), valid...), c.record...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenShard[uint64, uint64](dir, U64Codec(), U64Codec(), Options{})
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, c.reason) {
			t.Fatalf("%s: want a *CorruptError about %q, got %v", c.name, c.reason, err)
		}
		if ce.Offset != int64(len(valid)) {
			t.Fatalf("%s: corrupt record reported at offset %d, want %d", c.name, ce.Offset, len(valid))
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: the log changed on a failed replay (%v)", c.name, err)
		}
	}
	for _, control := range [][]byte{valid, twoValueRecord(10, 20)} {
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, genName(1)), control, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, st := openU64(t, dir, Options{})
		lg.Close()
		if st.Torn || len(st.Batches) != 1 || st.Batches[0].Len() != 2 {
			t.Fatalf("a well-formed control record replayed to %d batches, torn=%v", len(st.Batches), st.Torn)
		}
	}
}

func TestRotateSupersedesAndChains(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	lg.AppendBatch(mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}))
	lg.AppendBatch(mkBatch(t, 1, 2, [4]int64{1, 10, 1, 1}))

	// Checkpoint: one consolidated batch through epoch 2, since {2}.
	snap := core.BuildBatch(core.U64(),
		[]core.Update[uint64, uint64]{{Key: 1, Val: 10, Time: lattice.Ts(2), Diff: 2}},
		lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)),
		lattice.NewFrontier(lattice.Ts(2)))
	if err := lg.Rotate(lattice.NewFrontier(lattice.Ts(2)),
		[]*core.Batch[uint64, uint64]{snap}); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	// Appends continue into the new generation.
	lg.AppendBatch(mkBatch(t, 2, 4, [4]int64{2, 20, 3, 1}))
	lg.Close()

	shardFile(t, dir) // asserts the old generation was deleted
	_, st := openU64(t, dir, Options{})
	if len(st.Batches) != 2 {
		t.Fatalf("rotated log: want snapshot + 1 live batch, got %d", len(st.Batches))
	}
	if !st.Batches[0].Since.Equal(lattice.NewFrontier(lattice.Ts(2))) {
		t.Fatalf("snapshot since = %v", st.Batches[0].Since)
	}
	if !st.Upper.Equal(lattice.NewFrontier(lattice.Ts(4))) {
		t.Fatalf("upper = %v, want {(4)}", st.Upper)
	}
}

func TestFreshDiscardsExistingLog(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openU64(t, dir, Options{})
	lg.AppendBatch(mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}))
	lg.Close()
	_, st := openU64(t, dir, Options{Fresh: true})
	if len(st.Batches) != 0 {
		t.Fatalf("Fresh open replayed %d batches", len(st.Batches))
	}
}

func TestClampRuns(t *testing.T) {
	fn := core.U64()
	chain := []*core.Batch[uint64, uint64]{
		mkBatch(t, 0, 1, [4]int64{1, 10, 0, 1}),
		mkBatch(t, 1, 4, [4]int64{2, 20, 1, 1}, [4]int64{3, 30, 2, 1}, [4]int64{4, 40, 3, 1}),
		mkBatch(t, 4, 5, [4]int64{5, 50, 4, 1}),
	}
	// The same chain with its middle run spilled: a reference the clamp must
	// load only when it straddles the cut.
	ref := &BlockRef{Name: "run-00000001.blk", Lower: chain[1].Lower, Upper: chain[1].Upper, Since: chain[1].Since}
	loads := 0
	load := func(r *BlockRef) (*core.Batch[uint64, uint64], error) {
		if r != ref {
			t.Fatalf("loaded %s, want %s", r.Name, ref.Name)
		}
		loads++
		b := *chain[1]
		return &b, nil
	}
	for _, spilled := range []bool{false, true} {
		runs := []Run[uint64, uint64]{{Batch: chain[0]}, {Batch: chain[1]}, {Batch: chain[2]}}
		if spilled {
			runs[1] = Run[uint64, uint64]{Ref: ref}
		}
		loads = 0
		cut := lattice.NewFrontier(lattice.Ts(3))
		out, err := ClampRuns(fn, runs, cut, load)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatalf("spilled=%v: clamp: want 2 runs, got %d", spilled, len(out))
		}
		if out[0].Batch != chain[0] {
			t.Fatalf("spilled=%v: fully covered run should pass through shared", spilled)
		}
		if out[1].Batch == nil || !out[1].Batch.Upper.Equal(cut) {
			t.Fatalf("spilled=%v: straddler = %+v, want a resident run with upper %v", spilled, out[1], cut)
		}
		if want := map[bool]int{false: 0, true: 1}[spilled]; loads != want {
			t.Fatalf("spilled=%v: %d loads, want %d", spilled, loads, want)
		}
		got := map[[2]uint64]core.Diff{}
		out[1].Batch.ForEach(func(k, v uint64, _ lattice.Time, d core.Diff) { got[[2]uint64{k, v}] += d })
		want := map[[2]uint64]core.Diff{{2, 20}: 1, {3, 30}: 1}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spilled=%v: clamp contents = %v, want %v", spilled, got, want)
		}

		// A cut on an existing boundary passes runs through — a reference
		// stays one, unloaded — and drops the rest.
		loads = 0
		out, err = ClampRuns(fn, runs, lattice.NewFrontier(lattice.Ts(4)), load)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || out[0] != runs[0] || out[1] != runs[1] || loads != 0 {
			t.Fatalf("spilled=%v: boundary clamp: got %d runs after %d loads", spilled, len(out), loads)
		}
	}
}

func TestCodecs(t *testing.T) {
	var buf []byte
	buf = U64Codec().Append(buf, 42)
	buf = I64Codec().Append(buf, -7)
	u, n, err := U64Codec().Read(buf)
	if err != nil || u != 42 {
		t.Fatalf("u64: %v %v", u, err)
	}
	buf = buf[n:]
	i, _, err := I64Codec().Read(buf)
	if err != nil || i != -7 {
		t.Fatalf("i64: %v %v", i, err)
	}
}

// TestTimeDecodeAllocations: decoding a time allocates nothing, at any
// depth, and decoding a one-element frontier allocates only the antichain's
// own storage — WAL replay, frame decode and block index reads call both
// once per record.
func TestTimeDecodeAllocations(t *testing.T) {
	for _, want := range []lattice.Time{lattice.Ts(5), lattice.Ts(5, 7), lattice.Ts(1, 2, 3, 4)} {
		timeBuf := AppendTime(nil, want)
		frontierBuf := AppendFrontier(nil, lattice.NewFrontier(want))
		if got, err := NewDec(timeBuf).Time(); err != nil || got != want {
			t.Fatalf("Time decoded %v, %v; want %v", got, err, want)
		}
		if got, err := NewDec(frontierBuf).Frontier(); err != nil || !got.Equal(lattice.NewFrontier(want)) {
			t.Fatalf("Frontier decoded %v, %v; want {%v}", got, err, want)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := NewDec(timeBuf).Time(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Dec.Time of %v allocates %v times, want 0", want, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := NewDec(frontierBuf).Frontier(); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("Dec.Frontier of {%v} allocates %v times, want 1 (its element storage)", want, n)
		}
	}
}

func TestListAndCount(t *testing.T) {
	data := t.TempDir()
	for _, w := range []int{0, 1, 2} {
		lg, _, err := OpenShard[uint64, uint64](ShardDir(data, "edges", w),
			U64Codec(), U64Codec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
	}
	names, err := ListArrangements(data)
	if err != nil || len(names) != 1 || names[0] != "edges" {
		t.Fatalf("ListArrangements = %v, %v", names, err)
	}
	n, err := CountShards(data, "edges")
	if err != nil || n != 3 {
		t.Fatalf("CountShards = %d, %v", n, err)
	}
	if n, _ := CountShards(data, "absent"); n != 0 {
		t.Fatalf("CountShards(absent) = %d", n)
	}
}
