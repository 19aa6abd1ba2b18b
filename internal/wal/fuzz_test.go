package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
)

// encodeShard re-encodes a recovered state as a log image (the same bytes
// Rotate would write followed by the batch appends).
func encodeShard(st *ShardState[uint64, uint64]) []byte {
	var data, p []byte
	p = append(p[:0], recSince)
	p = AppendFrontier(p, st.Since)
	data = appendRecord(data, p)
	for _, b := range st.Batches {
		p = u64Batches.encodeBatch(append(p[:0], recBatch), b)
		data = appendRecord(data, p)
	}
	return data
}

// FuzzWALReplay drives replay with truncated, bit-flipped, and arbitrary log
// images. The recovery contract under test: replay must never panic, and
// must either recover a consistent prefix — a contiguous lower/upper chain
// of structurally valid batches — or fail with a typed *CorruptError; it
// must never hand back wrong counts (offset tables disagreeing with the
// update array) or state that a second replay round-trip would disagree
// with.
func FuzzWALReplay(f *testing.F) {
	valid := encodeShard(&ShardState[uint64, uint64]{
		Since: lattice.NewFrontier(lattice.Ts(1)),
		Batches: []*core.Batch[uint64, uint64]{
			mkBatch(nil, 0, 1, [4]int64{1, 10, 0, 1}, [4]int64{2, 20, 0, 2}),
			mkBatch(nil, 1, 3, [4]int64{1, 10, 1, -1}, [4]int64{7, 70, 2, 1}),
		},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:11])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A batch record whose depth-3 time has a 32-bit loop coordinate, past
	// its depth's 31-bit field: replay must report it, not build the time
	// (which panics).
	const mark = 0x5eed5eed
	lower := lattice.NewFrontier(lattice.Ts(0, 0, 0))
	wide := u64Batches.encodeBatch([]byte{recBatch}, core.BuildBatch(core.U64(),
		[]core.Update[uint64, uint64]{{Key: 1, Val: 1, Time: lattice.Ts(1, mark, 0), Diff: 1}},
		lower, lattice.NewFrontier(lattice.Ts(2, 0, 0)), lower.Clone()))
	wide[bytes.Index(wide, AppendU64(nil, mark))+3] |= 0x80
	f.Add(appendRecord(nil, wide))
	// A batch record whose one key's two values are swapped: replay must
	// reject the descending pair, not hand back values in the wrong order.
	f.Add(twoValueRecord(20, 10))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The CRC hides most mutations from the decoder, so additionally
		// frame the raw input as a checksum-valid record: the record decoder
		// must survive arbitrary payload bytes too (typed error or success,
		// never a panic).
		if _, _, err := replayBytes(u64Batches, appendRecord(nil, data)); err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("framed replay failed with untyped error %T: %v", err, err)
			}
		}

		st, good, err := replayBytes(u64Batches, data)
		if err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("replay failed with untyped error %T: %v", err, err)
			}
			return
		}
		if good > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", good, len(data))
		}
		for i, b := range st.Batches {
			// Structural validity: decode re-checked these, so a failure
			// here means replay handed back wrong counts.
			if len(b.KeyOff) != len(b.Keys)+1 || len(b.ValOff) != b.Vals.Len()+1 ||
				int(b.KeyOff[len(b.KeyOff)-1]) != b.Vals.Len() ||
				int(b.ValOff[len(b.ValOff)-1]) != len(b.Diffs) ||
				len(b.Times) != 0 && len(b.Times) != len(b.Diffs) {
				t.Fatalf("batch %d structurally inconsistent", i)
			}
			if i > 0 && !b.Lower.Equal(st.Batches[i-1].Upper) {
				t.Fatalf("batch %d breaks the recovered chain", i)
			}
			// Every accessor walk must agree with Len (and not panic).
			n := 0
			b.ForEach(func(uint64, uint64, lattice.Time, core.Diff) { n++ })
			if n != b.Len() {
				t.Fatalf("batch %d ForEach visited %d of %d updates", i, n, b.Len())
			}
		}

		// Idempotence: re-encoding the recovered state and replaying again
		// must reproduce it exactly (depth-1 states only: mixed-depth chains
		// cannot occur in a server log and encodeShard assumes epochs).
		if depthOne(st) {
			st2, _, err2 := replayBytes(u64Batches, encodeShard(st))
			if err2 != nil {
				t.Fatalf("re-replay of recovered state failed: %v", err2)
			}
			if st2.Torn {
				t.Fatal("re-replay of recovered state reported torn")
			}
			if !reflect.DeepEqual(st.Batches, st2.Batches) || !st.Since.Equal(st2.Since) {
				t.Fatal("re-replay of recovered state differs")
			}
		}
	})
}

func depthOne(st *ShardState[uint64, uint64]) bool {
	for _, t := range st.Since.Elements() {
		if t.Depth() != 1 {
			return false
		}
	}
	for _, b := range st.Batches {
		for _, f := range []lattice.Frontier{b.Lower, b.Upper, b.Since} {
			for _, t := range f.Elements() {
				if t.Depth() != 1 {
					return false
				}
			}
		}
	}
	return true
}
