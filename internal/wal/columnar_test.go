package wal

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/tpch"
)

// liBatch builds a LineItem batch with the given store layout from
// (orderKey, lineNumber, epoch, diff) quads.
func liBatch(columnar bool, lo, hi uint64, quads ...[4]int64) *core.Batch[uint64, tpch.LineItem] {
	var upds []core.Update[uint64, tpch.LineItem]
	for _, q := range quads {
		upds = append(upds, core.Update[uint64, tpch.LineItem]{
			Key: uint64(q[0]),
			Val: tpch.LineItem{
				OrderKey: uint64(q[0]), LineNumber: q[1], PartKey: uint64(q[1] * 31),
				SuppKey: uint64(q[1] * 7), Quantity: q[1] % 50, ExtendedPrice: q[1] * 10007,
				Discount: q[1] % 11, Tax: q[1] % 9, ReturnFlag: q[1] % 3, LineStatus: q[1] % 2,
				ShipDate: q[2] * 30, CommitDate: q[2]*30 + 1, ReceiptDate: q[2]*30 + 2,
				ShipInstruct: q[1] % 4, ShipMode: q[1] % 7,
			},
			Time: lattice.Ts(uint64(q[2])), Diff: q[3],
		})
	}
	return core.BuildBatch(tpch.LineItemFuncs(columnar), upds,
		lattice.NewFrontier(lattice.Ts(lo)), lattice.NewFrontier(lattice.Ts(hi)),
		lattice.MinFrontier(1))
}

// wordsCodec is a per-value codec for a Columnar type: its words as
// fixed-width little-endian u64s.
type wordsCodec[V core.Columnar[V]] struct{}

func (wordsCodec[V]) Append(dst []byte, v V) []byte {
	for _, w := range v.AppendWords(nil) {
		dst = AppendU64(dst, w)
	}
	return dst
}

func (wordsCodec[V]) Read(src []byte) (V, int, error) {
	var z V
	words := make([]uint64, z.ColWidth())
	d := NewDec(src)
	for i := range words {
		w, err := d.U64()
		if err != nil {
			return z, 0, err
		}
		words[i] = w
	}
	return z.FromWords(words), d.off, nil
}

type liTuple struct {
	k uint64
	v tpch.LineItem
	t lattice.Time
	d core.Diff
}

func liTuples(b *core.Batch[uint64, tpch.LineItem]) []liTuple {
	var out []liTuple
	b.ForEach(func(k uint64, v tpch.LineItem, tm lattice.Time, d core.Diff) {
		out = append(out, liTuple{k, v, tm, d})
	})
	return out
}

// TestColumnarBatchRoundTrip: a batch held column-major in memory encodes,
// value by value through its codec, to the same bytes as the row-store
// batch of the same contents, and decodes back row-major to an
// observationally identical batch whose re-encode is byte-identical.
func TestColumnarBatchRoundTrip(t *testing.T) {
	vc := wordsCodec[tpch.LineItem]{}
	quads := [][4]int64{}
	for i := int64(0); i < 40; i++ {
		quads = append(quads, [4]int64{i % 7, i, i % 3, 1 + i%2})
	}
	bc := liBatch(true, 0, 3, quads...)
	br := liBatch(false, 0, 3, quads...)
	if bc.Vals.Columns() == nil || br.Vals.Columns() != nil {
		t.Fatal("store layouts not as constructed")
	}

	lc, err := NewBatchCodec[uint64, tpch.LineItem](U64Codec(), vc)
	if err != nil {
		t.Fatal(err)
	}
	encC := lc.encodeBatch(nil, bc)
	encR := lc.encodeBatch(nil, br)
	if !bytes.Equal(encC, encR) {
		t.Fatal("the two store layouts of one batch encode to different bytes")
	}

	d := NewDec(encC)
	dec, err := lc.readBatch(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", d.Remaining())
	}
	if dec.Vals.Columns() != nil {
		t.Fatal("decoded batch must carry a row store")
	}
	got, want := liTuples(dec), liTuples(bc)
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if !dec.Lower.Equal(bc.Lower) || !dec.Upper.Equal(bc.Upper) || !dec.Since.Equal(bc.Since) {
		t.Fatal("framing frontiers differ after round trip")
	}

	// Re-encode determinism (replay idempotence relies on it).
	if again := lc.encodeBatch(nil, dec); !bytes.Equal(again, encC) {
		t.Fatal("re-encode of decoded batch differs")
	}

	// Truncations anywhere in the value section must error, never panic.
	for cut := len(encC) - 1; cut > len(encC)-washWords(bc); cut -= 7 {
		cc := NewDec(encC[:cut])
		if _, err := lc.readBatch(cc); err == nil {
			t.Fatalf("decode of %d-byte truncation succeeded", cut)
		}
	}
}

// washWords bounds how deep the truncation sweep reaches into the record.
func washWords(b *core.Batch[uint64, tpch.LineItem]) int {
	n := b.Vals.Len() * 15 * 8
	if n > 600 {
		n = 600
	}
	return n
}

// TestColumnarShardLogRecovery: a shard log of batches held column-major in
// memory recovers through the full OpenShard path — generation files, CRC
// framing, torn-tail truncation — to row-major batches of the same tuples.
func TestColumnarShardLogRecovery(t *testing.T) {
	dir := t.TempDir()
	vc := wordsCodec[tpch.LineItem]{}
	lg, st, err := OpenShard[uint64, tpch.LineItem](dir, U64Codec(), vc, Options{})
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	if len(st.Batches) != 0 {
		t.Fatalf("fresh log not empty")
	}
	b1 := liBatch(true, 0, 1, [4]int64{1, 10, 0, 1}, [4]int64{2, 20, 0, 2})
	b2 := liBatch(true, 1, 3, [4]int64{1, 10, 1, -1}, [4]int64{3, 30, 2, 1})
	if err := lg.AppendBatch(b1); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := lg.AppendBatch(b2); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	lg.Close()

	lg2, st2, err := OpenShard[uint64, tpch.LineItem](dir, U64Codec(), vc, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg2.Close()
	if st2.Torn || len(st2.Batches) != 2 {
		t.Fatalf("recovered torn=%v batches=%d", st2.Torn, len(st2.Batches))
	}
	for i, want := range []*core.Batch[uint64, tpch.LineItem]{b1, b2} {
		got := st2.Batches[i]
		if got.Vals.Columns() != nil {
			t.Fatalf("batch %d recovered with a columnar store", i)
		}
		g, w := liTuples(got), liTuples(want)
		if len(g) != len(w) {
			t.Fatalf("batch %d: %d tuples, want %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("batch %d tuple %d: %+v vs %+v", i, j, g[j], w[j])
			}
		}
	}
}
