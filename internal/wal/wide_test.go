package wal

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/tpch"
)

// liBatch builds a LineItem batch from (orderKey, lineNumber, epoch, diff)
// quads.
func liBatch(lo, hi uint64, quads ...[4]int64) *core.Batch[uint64, tpch.LineItem] {
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
	return core.BuildBatch(tpch.LineItemFuncs(false), upds,
		lattice.NewFrontier(lattice.Ts(lo)), lattice.NewFrontier(lattice.Ts(hi)),
		lattice.MinFrontier(1))
}

// liCodec is a per-value codec for tpch.LineItem: its fifteen fields as
// fixed-width little-endian words, in declaration order.
type liCodec struct{}

func (liCodec) Append(dst []byte, v tpch.LineItem) []byte {
	for _, w := range [15]uint64{v.OrderKey, v.PartKey, v.SuppKey, uint64(v.LineNumber),
		uint64(v.Quantity), uint64(v.ExtendedPrice), uint64(v.Discount), uint64(v.Tax),
		uint64(v.ReturnFlag), uint64(v.LineStatus), uint64(v.ShipDate), uint64(v.CommitDate),
		uint64(v.ReceiptDate), uint64(v.ShipInstruct), uint64(v.ShipMode)} {
		dst = AppendU64(dst, w)
	}
	return dst
}

func (liCodec) Read(src []byte) (tpch.LineItem, int, error) {
	var w [15]uint64
	d := NewDec(src)
	for i := range w {
		x, err := d.U64()
		if err != nil {
			return tpch.LineItem{}, 0, err
		}
		w[i] = x
	}
	return tpch.LineItem{
		OrderKey: w[0], PartKey: w[1], SuppKey: w[2], LineNumber: int64(w[3]),
		Quantity: int64(w[4]), ExtendedPrice: int64(w[5]), Discount: int64(w[6]), Tax: int64(w[7]),
		ReturnFlag: int64(w[8]), LineStatus: int64(w[9]), ShipDate: int64(w[10]), CommitDate: int64(w[11]),
		ReceiptDate: int64(w[12]), ShipInstruct: int64(w[13]), ShipMode: int64(w[14]),
	}, d.off, nil
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

// TestWideBatchRoundTrip: a batch of wide values encodes value by value
// through its codec and decodes back to an observationally identical batch
// whose re-encode is byte-identical.
func TestWideBatchRoundTrip(t *testing.T) {
	quads := [][4]int64{}
	for i := int64(0); i < 40; i++ {
		quads = append(quads, [4]int64{i % 7, i, i % 3, 1 + i%2})
	}
	b := liBatch(0, 3, quads...)

	lc, err := NewBatchCodec[uint64, tpch.LineItem](U64Codec(), liCodec{})
	if err != nil {
		t.Fatal(err)
	}
	enc := lc.encodeBatch(nil, b)

	d := NewDec(enc)
	dec, err := lc.readBatch(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", d.Remaining())
	}
	got, want := liTuples(dec), liTuples(b)
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if !dec.Lower.Equal(b.Lower) || !dec.Upper.Equal(b.Upper) || !dec.Since.Equal(b.Since) {
		t.Fatal("framing frontiers differ after round trip")
	}

	// Re-encode determinism (replay idempotence relies on it).
	if again := lc.encodeBatch(nil, dec); !bytes.Equal(again, enc) {
		t.Fatal("re-encode of decoded batch differs")
	}

	// Truncations anywhere in the value section must error, never panic.
	for cut := len(enc) - 1; cut > len(enc)-washWords(b); cut -= 7 {
		cc := NewDec(enc[:cut])
		if _, err := lc.readBatch(cc); err == nil {
			t.Fatalf("decode of %d-byte truncation succeeded", cut)
		}
	}
}

// washWords bounds how deep the truncation sweep reaches into the record.
func washWords(b *core.Batch[uint64, tpch.LineItem]) int {
	n := len(b.Vals) * 15 * 8
	if n > 600 {
		n = 600
	}
	return n
}

// TestWideShardLogRecovery: a shard log of batches of wide values recovers
// through the full OpenShard path — generation files, CRC framing,
// torn-tail truncation — to batches of the same tuples.
func TestWideShardLogRecovery(t *testing.T) {
	dir := t.TempDir()
	vc := liCodec{}
	lg, st, err := OpenShard[uint64, tpch.LineItem](dir, U64Codec(), vc, Options{})
	if err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	if len(st.Batches) != 0 {
		t.Fatalf("fresh log not empty")
	}
	b1 := liBatch(0, 1, [4]int64{1, 10, 0, 1}, [4]int64{2, 20, 0, 2})
	b2 := liBatch(1, 3, [4]int64{1, 10, 1, -1}, [4]int64{3, 30, 2, 1})
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
