package block

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// frameAsIndex wraps arbitrary bytes as the index payload of an otherwise
// valid block file: correct magic, version, header CRC, and record framing.
// The CRCs hide most fuzz mutations from the decoder proper; this wrapper
// drives the index parser with adversarial payload bytes directly.
func frameAsIndex(data []byte) []byte {
	img := make([]byte, headerLen)
	img = wal.AppendRecord(img, data)
	copy(img[0:4], magic)
	binary.LittleEndian.PutUint16(img[4:6], version)
	binary.LittleEndian.PutUint16(img[6:8], flagU64Keys)
	binary.LittleEndian.PutUint64(img[8:16], headerLen)
	binary.LittleEndian.PutUint64(img[16:24], uint64(len(img)-headerLen))
	binary.LittleEndian.PutUint32(img[28:32], crc32.Checksum(img[0:28], crcTable))
	return img
}

// frameAsBlock wraps arbitrary bytes as the sole block record of a file
// whose index is valid and self-consistent (fixed small counts and key
// stats). Everything up to block decode passes, so the fuzzer exercises
// the block payload parser with raw input.
func frameAsBlock(data []byte) []byte {
	return frameBlockClaiming(data, 2, 3, 4)
}

// frameBlockClaiming is frameAsBlock with the block's key, value and update
// counts (and the index totals, which must sum to them) chosen by the
// caller.
func frameBlockClaiming(data []byte, nKeys, nVals, nUpds uint32) []byte {
	img := make([]byte, headerLen)
	blockOff := int64(len(img))
	img = wal.AppendRecord(img, data)
	blockLen := int64(len(img)) - blockOff

	p := []byte{kindIndex}
	p = wal.AppendFrontier(p, lattice.MinFrontier(1))
	p = wal.AppendFrontier(p, lattice.NewFrontier(lattice.Ts(1)))
	p = wal.AppendFrontier(p, lattice.MinFrontier(1))
	p = wal.AppendU32(p, nKeys)
	p = wal.AppendU32(p, nVals)
	p = wal.AppendU32(p, nUpds)
	p = append(p, 0)        // column width
	p = wal.AppendU32(p, 1) // one min time
	p = wal.AppendTime(p, lattice.Ts(0))
	p = wal.AppendU32(p, 1) // one block
	p = wal.AppendU32(p, nKeys)
	p = wal.AppendU32(p, nVals)
	p = wal.AppendU32(p, nUpds)
	p = wal.AppendU64(p, uint64(blockOff))
	p = wal.AppendU64(p, uint64(blockLen))
	p = wal.AppendU64(p, 5) // firstKey
	p = wal.AppendU64(p, 9) // lastKey
	indexOff := len(img)
	img = wal.AppendRecord(img, p)

	copy(img[0:4], magic)
	binary.LittleEndian.PutUint16(img[4:6], version)
	binary.LittleEndian.PutUint16(img[6:8], flagU64Keys)
	binary.LittleEndian.PutUint64(img[8:16], uint64(indexOff))
	binary.LittleEndian.PutUint64(img[16:24], uint64(len(img)-indexOff))
	binary.LittleEndian.PutUint32(img[28:32], crc32.Checksum(img[0:28], crcTable))
	return img
}

// decodeChecked runs one input through the decoder, enforcing the contract:
// a decoded batch or a typed *CorruptError — never a panic, never silently
// wrong counts.
func decodeChecked(t *testing.T, data []byte) {
	fn := fnTup()
	got, err := decodeImage[uint64, tup](fn, nil, tupCodec{}, data)
	if err != nil {
		if _, ok := err.(*CorruptError); !ok {
			t.Fatalf("untyped decode error %T: %v", err, err)
		}
		return
	}
	// Structural validity: the offset tables must agree with the arrays
	// (wrong counts here mean the decoder lied about what it read).
	if len(got.KeyOff) != len(got.Keys)+1 || len(got.ValOff) != len(got.Vals)+1 ||
		int(got.KeyOff[len(got.KeyOff)-1]) != len(got.Vals) ||
		int(got.ValOff[len(got.ValOff)-1]) != len(got.Diffs) ||
		len(got.Times) != 0 && len(got.Times) != len(got.Diffs) {
		t.Fatal("decoded batch structurally inconsistent")
	}
	// One-time form: the time column exists exactly when two times differ.
	several := false
	for _, tm := range got.Times {
		several = several || tm != got.Times[0]
	}
	if len(got.Times) > 0 && !several {
		t.Fatalf("decoded batch stores %d copies of one time", len(got.Times))
	}
	n := 0
	got.ForEach(func(uint64, tup, lattice.Time, core.Diff) { n++ })
	if n != got.Len() {
		t.Fatalf("ForEach visited %d of %d updates", n, got.Len())
	}
	// Idempotence: re-encoding what decoded must decode back equal.
	cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
	if err != nil {
		t.Fatal(err)
	}
	img2, err := encodeImage(cfg, got, 7)
	if err != nil {
		t.Fatalf("re-encode of decoded batch failed: %v", err)
	}
	got2, err := decodeImage[uint64, tup](fn, nil, tupCodec{}, img2)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	a, b := collectReader(got), collectReader(got2)
	if len(a) != len(b) {
		t.Fatalf("round trip changed tuple count %d → %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip changed tuple %d", i)
		}
	}
}

// wideLoopImage is a valid depth-3 file but for one update whose loop
// coordinate is 32 bits wide, past its depth's 31-bit field: the decoder
// must report it, not build the time (which panics). The index's min time
// stays valid, so the update loop is what meets it.
func wideLoopImage(f *testing.F, cfg *codecs[uint64, tup]) []byte {
	const mark = 0x5eed5eed
	lower := lattice.NewFrontier(lattice.Ts(0, 0, 0))
	b := core.BuildBatch(fnTup(), []upd{
		{Key: 1, Time: lattice.Ts(1, 0, 0), Diff: 1},
		{Key: 2, Time: lattice.Ts(2, mark, 0), Diff: 1},
	}, lower, lattice.NewFrontier(lattice.Ts(3, 0, 0)), lower.Clone())
	img, err := encodeImage(cfg, b, 8)
	if err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(img, wal.AppendU64(nil, mark))
	img[at+3] |= 0x80
	return resealAt(img, at)
}

// resealAt recomputes the checksum of the record of img that holds byte
// at, after a test changed it.
func resealAt(img []byte, at int) []byte {
	for off := headerLen; ; {
		end := off + 8 + int(binary.LittleEndian.Uint32(img[off:]))
		if at < end {
			wal.SealRecord(img[off:end])
			return img
		}
		off = end
	}
}

// swappedValuesImage is a valid file of one key holding two values, but
// for those two values' encodings being swapped in the block: the key's
// values descend.
func swappedValuesImage(tb testing.TB, cfg *codecs[uint64, tup]) []byte {
	lo, hi := tup{A: 1, C: 0x5eed}, tup{A: 2, C: 0x5eed}
	b := core.BuildBatch(fnTup(), []upd{
		{Key: 1, Val: lo, Time: lattice.Ts(0), Diff: 1},
		{Key: 1, Val: hi, Time: lattice.Ts(0), Diff: 1},
	}, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1))
	img, err := encodeImage(cfg, b, 8)
	if err != nil {
		tb.Fatal(err)
	}
	pair := tupCodec{}.Append(tupCodec{}.Append(nil, lo), hi)
	at := bytes.Index(img, pair)
	copy(img[at:], tupCodec{}.Append(tupCodec{}.Append(nil, hi), lo))
	return resealAt(img, at)
}

// FuzzBlockDecode drives the block-file decoder with truncated, bit-flipped
// and arbitrary images (mirroring FuzzWALReplay): arbitrary bytes must
// yield a decoded batch or a typed *block.CorruptError — never a panic,
// never silently wrong counts.
func FuzzBlockDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	fn := fnTup()
	cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
	if err != nil {
		f.Fatal(err)
	}
	var b *core.Batch[uint64, tup]
	var valid []byte
	for _, depth := range []int{1, 2} {
		b = randBatchAt(r, fn, depth, 0, 3, 80, 12)
		if valid, err = encodeImage(cfg, b, 8); err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)-5])
		f.Add(valid[:headerLen])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("KPGB"))
	// Indexes whose block claims more updates than its frame can hold.
	f.Add(hostileImage(3))
	f.Add(hostileImage(wal.MaxBatchElems))
	// A valid file but for a nonzero column width.
	f.Add(withColWidth(valid, b.Lower, b.Upper, b.Since, 4))
	f.Add(wideLoopImage(f, cfg))
	f.Add(swappedValuesImage(f, cfg))
	// A one-time block, and one whose last update alone has another time:
	// the decoder makes the time column there and backfills it.
	for _, last := range []uint64{0, 1} {
		var upds []upd
		for k := uint64(1); k <= 20; k++ {
			upds = append(upds, upd{Key: k, Val: randTup(r), Time: lattice.Ts(0), Diff: 1})
		}
		upds[len(upds)-1].Time = lattice.Ts(last)
		b := core.BuildBatch(fn, upds, lattice.MinFrontier(1), lattice.NewFrontier(lattice.Ts(2)), lattice.MinFrontier(1))
		img, err := encodeImage(cfg, b, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeChecked(t, data)
		// Re-framed variants: valid CRCs around the raw input, so mutations
		// reach the index and block parsers instead of dying at checksums.
		decodeChecked(t, frameAsIndex(data))
		decodeChecked(t, frameAsBlock(data))
	})
}
