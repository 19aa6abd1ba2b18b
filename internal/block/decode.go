package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// image is the decoded, resident part of one block file: framing frontiers,
// totals, MinTimes, and the per-block index. Column data stays on disk
// behind src until a block is loaded.
type image[K, V any] struct {
	path  string
	src   source
	size  int64
	depth int

	lower, upper, since lattice.Frontier
	numKeys             int
	numVals             int
	numUpds             int
	minTimes            []lattice.Time
	blocks              []blockMeta[K]
}

// Size floors that bound what an index may claim by the bytes behind it.
const (
	// minUpdateBytes is the fewest payload bytes one update occupies: a
	// depth byte, one 8-byte coordinate and a one-byte diff varint. A block
	// holds at least as many updates as values and values as keys, so every
	// count a block claims is at most its frame length over this.
	minUpdateBytes = 10
	// minBlockEntryBytes is the fewest index bytes one block entry occupies:
	// three u32 counts and the u64 frame offset and length.
	minBlockEntryBytes = 28
)

// openImage reads and validates the header and index of a block file.
// Every failure is a *CorruptError (I/O faults excepted); successfully
// opened images have internally consistent counts, ordered key stats, and
// uniform time depths, so lazy block loads can trust the index. In
// particular no block claims more updates than its frame length can hold
// (minUpdateBytes), so the decoder sizes every column from the counts
// exactly and no allocation exceeds a small multiple of the file.
func openImage[K, V any](cfg *codecs[K, V], src source, size int64, path string) (*image[K, V], error) {
	fail := func(off int64, format string, args ...any) (*image[K, V], error) {
		err := corrupt(off, format, args...)
		err.(*CorruptError).Path = path
		return nil, err
	}
	if size < headerLen {
		return fail(0, "file of %d bytes is shorter than the %d-byte header", size, headerLen)
	}
	hdr, err := src.view(0, headerLen)
	if err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != magic {
		return fail(0, "bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != version {
		return fail(4, "unsupported version %d", v)
	}
	if crc := binary.LittleEndian.Uint32(hdr[28:32]); crc != crc32.Checksum(hdr[0:28], crcTable) {
		return fail(28, "header checksum mismatch")
	}
	im := &image[K, V]{path: path, src: src, size: size}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if flags&^flagU64Keys != 0 {
		return fail(6, "unknown flags %#x", flags)
	}
	if u64 := flags&flagU64Keys != 0; u64 != cfg.u64Keys {
		return fail(6, "key layout flag %v does not match store key type", u64)
	}
	indexOff := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	indexLen := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if indexOff < headerLen || indexLen < 9 || indexLen > maxFrameLen || indexOff+indexLen != size {
		return fail(8, "index at [%d,+%d) does not terminate the %d-byte file", indexOff, indexLen, size)
	}

	frame, err := src.view(indexOff, indexLen)
	if err != nil {
		return nil, err
	}
	payload, rest, ferr := wal.SplitRecord(frame, maxFrameLen)
	if ferr != nil {
		return fail(indexOff, "index frame: %v", ferr)
	}
	if len(rest) != 0 {
		return fail(indexOff, "%d trailing bytes after index frame", len(rest))
	}
	d := wal.NewDec(payload)
	bad := func(what string, derr error) (*image[K, V], error) {
		return fail(indexOff, "index %s: %v", what, derr)
	}
	kind, derr := d.U8()
	if derr != nil {
		return bad("kind", derr)
	}
	if kind != kindIndex {
		return fail(indexOff, "index record has kind %d", kind)
	}
	if im.lower, derr = d.Frontier(); derr != nil {
		return bad("lower", derr)
	}
	if im.upper, derr = d.Frontier(); derr != nil {
		return bad("upper", derr)
	}
	if im.since, derr = d.Frontier(); derr != nil {
		return bad("since", derr)
	}
	if im.lower.Empty() || im.since.Empty() {
		return fail(indexOff, "empty lower or since frontier")
	}
	im.depth = im.lower.Elements()[0].Depth()
	for _, f := range []lattice.Frontier{im.lower, im.upper, im.since} {
		for _, t := range f.Elements() {
			if t.Depth() != im.depth {
				return fail(indexOff, "mixed time depths %d and %d in framing", im.depth, t.Depth())
			}
		}
	}
	if im.numKeys, err = readCount(d); err != nil {
		return bad("key count", err)
	}
	if im.numVals, err = readCount(d); err != nil {
		return bad("value count", err)
	}
	if im.numUpds, err = readCount(d); err != nil {
		return bad("update count", err)
	}
	// Values are codec bytes; the column-width byte is kept in the format
	// and must be zero.
	w, derr := d.U8()
	if derr != nil {
		return bad("column width", derr)
	}
	if w != 0 {
		return fail(indexOff, "column width %d: values must be codec bytes", w)
	}
	nMins, err := d.Count("min times")
	if err != nil {
		return bad("min-time count", err)
	}
	for i := 0; i < nMins; i++ {
		t, derr := d.Time()
		if derr != nil {
			return bad("min time", derr)
		}
		if t.Depth() != im.depth {
			return fail(indexOff, "min time at depth %d in depth-%d file", t.Depth(), im.depth)
		}
		im.minTimes = append(im.minTimes, t)
	}
	nBlocks, err := d.Count("blocks")
	if err != nil {
		return bad("block count", err)
	}
	if nBlocks > d.Remaining()/minBlockEntryBytes {
		return fail(indexOff, "%d blocks in %d index bytes", nBlocks, d.Remaining())
	}
	im.blocks = make([]blockMeta[K], 0, nBlocks)
	keyBase, valBase, updBase := 0, 0, 0
	end := int64(headerLen)
	for i := 0; i < nBlocks; i++ {
		var m blockMeta[K]
		if m.nKeys, err = readCount(d); err != nil {
			return bad("block key count", err)
		}
		if m.nVals, err = readCount(d); err != nil {
			return bad("block value count", err)
		}
		if m.nUpds, err = readCount(d); err != nil {
			return bad("block update count", err)
		}
		if m.nKeys < 1 || m.nVals < m.nKeys || m.nUpds < m.nVals {
			return fail(indexOff, "block %d with %d keys, %d values, %d updates", i, m.nKeys, m.nVals, m.nUpds)
		}
		off, derr := d.U64()
		if derr != nil {
			return bad("block offset", derr)
		}
		length, derr := d.U64()
		if derr != nil {
			return bad("block length", derr)
		}
		m.off, m.length = int64(off), int64(length)
		if m.off < end || m.length < 9 || m.length > maxFrameLen || m.off+m.length > indexOff {
			return fail(indexOff, "block %d frame [%d,+%d) outside data region", i, m.off, m.length)
		}
		if int64(m.nUpds) > m.length/minUpdateBytes {
			return fail(indexOff, "block %d claims %d updates in %d bytes", i, m.nUpds, m.length)
		}
		end = m.off + m.length
		if m.firstKey, err = readKey(cfg, d); err != nil {
			return bad("block first key", err)
		}
		if m.lastKey, err = readKey(cfg, d); err != nil {
			return bad("block last key", err)
		}
		if cfg.fn.LessK(m.lastKey, m.firstKey) {
			return fail(indexOff, "block %d key stats out of order", i)
		}
		if i > 0 && !cfg.fn.LessK(im.blocks[i-1].lastKey, m.firstKey) {
			return fail(indexOff, "block %d first key not above block %d last key", i, i-1)
		}
		m.keyBase, m.valBase, m.updBase = keyBase, valBase, updBase
		keyBase += m.nKeys
		valBase += m.nVals
		updBase += m.nUpds
		im.blocks = append(im.blocks, m)
	}
	if keyBase != im.numKeys || valBase != im.numVals || updBase != im.numUpds {
		return fail(indexOff, "block sums (%d keys, %d values, %d updates) disagree with totals (%d, %d, %d)",
			keyBase, valBase, updBase, im.numKeys, im.numVals, im.numUpds)
	}
	if d.Remaining() != 0 {
		return fail(indexOff, "%d trailing bytes after index body", d.Remaining())
	}
	return im, nil
}

// readCount reads a u32 element count bounded by maxElems.
func readCount(d *wal.Dec) (int, error) {
	n, err := d.U32()
	if err != nil {
		return 0, err
	}
	if n > maxElems {
		return 0, corrupt(0, "count %d exceeds limit %d", n, maxElems)
	}
	return int(n), nil
}

func readKey[K, V any](cfg *codecs[K, V], d *wal.Dec) (K, error) {
	if cfg.u64Keys {
		u, err := d.U64()
		if err != nil {
			var zero K
			return zero, err
		}
		return any(u).(K), nil
	}
	return wal.DecValue(d, cfg.kc)
}

// corrupt returns a *CorruptError at off in the image's file.
func (im *image[K, V]) corrupt(off int64, format string, args ...any) error {
	err := corrupt(off, format, args...)
	err.(*CorruptError).Path = im.path
	return err
}

// sizedBatch is a decode destination: one batch with its columns sized for
// nKeys keys, nVals values and nUpds updates, allocated once at their exact
// final size so the kernel writes every element in place — one block's
// worth for the read cache or a merge, a whole run's for Unspill. The
// updates append through core.Batch.AppendUpd into Diffs' full capacity,
// which keeps the batch one-time while its times agree and otherwise makes
// the time column once. The counts come from a validated index, which
// holds them to the bytes behind them (openImage), so sizing by them is
// safe. Values decode into the row layout whatever the store's Funcs: a
// columnar arrangement merges them through ValStore.AppendRange's
// mixed-layout path. Framing is left unset.
func sizedBatch[K, V any](nKeys, nVals, nUpds int) *core.Batch[K, V] {
	c := &core.Batch[K, V]{
		Keys:   make([]K, nKeys),
		KeyOff: make([]int32, nKeys+1),
		ValOff: make([]int32, nVals+1),
		Diffs:  make([]core.Diff, 0, nUpds),
	}
	c.Vals.Grow(nVals)
	return c
}

// decodeBlock is the decode kernel: one pass over block bi's payload that
// validates it against the block's index entry — counts, key order, the
// resident first/last key stats, the file's time depth, no trailing bytes —
// and writes its keys, offsets, values and updates straight into dst. With
// inRun, dst holds the whole run and the block lands at its global bases
// (the updates append: assemble decodes the blocks in order); otherwise dst
// holds the block alone. With mins non-nil the kernel also
// folds every update time into that antichain of minimal times.
func (im *image[K, V]) decodeBlock(cfg *codecs[K, V], bi int, dst *core.Batch[K, V], inRun bool, mins *lattice.Frontier) error {
	m := &im.blocks[bi]
	fail := func(format string, args ...any) error {
		return im.corrupt(m.off, "block %d %s", bi, fmt.Sprintf(format, args...))
	}
	frame, err := im.src.view(m.off, m.length)
	if err != nil {
		return err
	}
	p, rest, ferr := wal.SplitRecord(frame, maxFrameLen)
	if ferr != nil {
		return fail("frame: %v", ferr)
	}
	if len(rest) != 0 {
		return fail("frame has %d trailing bytes", len(rest))
	}
	if len(p) == 0 || p[0] != kindBlock {
		return fail("record is not a block")
	}
	pos := 1
	k0, v0, u0 := 0, 0, 0
	if inRun {
		k0, v0, u0 = m.keyBase, m.valBase, m.updBase
	}

	keys := dst.Keys[k0 : k0+m.nKeys]
	if cfg.u64Keys {
		ks := any(keys).([]uint64)
		prev := uint64(0)
		for i := range ks {
			u, n := uvarint(p, pos)
			if n <= 0 {
				return fail("key %d: bad varint at byte %d", i, pos)
			}
			pos += n
			if i > 0 {
				if u == 0 {
					return fail("key %d repeats its predecessor", i)
				}
				if u += prev; u < prev {
					return fail("key %d overflows", i)
				}
			}
			ks[i], prev = u, u
		}
	} else {
		for i := range keys {
			k, n, err := cfg.kc.Read(p[pos:])
			if err != nil || n < 0 || n > len(p)-pos {
				return fail("key %d at byte %d: %v", i, pos, err)
			}
			pos += n
			if i > 0 && !cfg.fn.LessK(keys[i-1], k) {
				return fail("key %d out of order", i)
			}
			keys[i] = k
		}
	}
	if !cfg.fn.EqK(keys[0], m.firstKey) || !cfg.fn.EqK(keys[m.nKeys-1], m.lastKey) {
		return fail("keys disagree with index stats")
	}
	if pos, err = readCounts(p, pos, dst.KeyOff[k0:k0+m.nKeys+1], v0, m.nVals); err != nil {
		return fail("key offsets: %v", err)
	}

	for i := 0; i < m.nVals; i++ {
		v, n, err := cfg.vc.Read(p[pos:])
		if err != nil || n < 0 || n > len(p)-pos {
			return fail("value %d at byte %d: %v", i, pos, err)
		}
		pos += n
		dst.Vals.Append(v)
	}
	if pos, err = readCounts(p, pos, dst.ValOff[v0:v0+m.nVals+1], u0, m.nUpds); err != nil {
		return fail("value offsets: %v", err)
	}

	// Updates: each time is a depth byte, which must be the file's, then
	// that many coordinates, read in place; a loop coordinate must fit its
	// depth's field.
	depth := im.depth
	timeLen := 1 + 8*depth
	maxLoop := lattice.MaxLoopCoord(depth)
	var coords [lattice.MaxDepth]uint64
	min1 := uint64(math.MaxUint64) // depth 1 is totally ordered: one minimum
	for i := 0; i < m.nUpds; i++ {
		if len(p)-pos < timeLen {
			return fail("update %d time: truncated at byte %d", i, pos)
		}
		if int(p[pos]) != depth {
			return fail("update %d at depth %d in depth-%d file", i, p[pos], depth)
		}
		for j := 0; j < depth; j++ {
			coords[j] = binary.LittleEndian.Uint64(p[pos+1+8*j:])
			if j > 0 && coords[j] > maxLoop {
				return fail("update %d time: coordinate %d = %d too wide for depth %d", i, j, coords[j], depth)
			}
		}
		pos += timeLen
		u, n := uvarint(p, pos)
		if n <= 0 {
			return fail("update %d diff: bad varint at byte %d", i, pos)
		}
		pos += n
		var t lattice.Time
		if depth == 1 {
			// A constant depth lets the inlined constructor drop its loops.
			t = lattice.FromCoords(1, [lattice.MaxDepth]uint64{coords[0]})
			min1 = min(min1, coords[0])
		} else {
			t = lattice.FromCoords(depth, coords)
			if mins != nil {
				mins.Insert(t)
			}
		}
		dst.AppendUpd(t, zag(u))
	}
	if mins != nil && depth == 1 {
		mins.Insert(lattice.Ts(min1)) // a block holds at least one update
	}
	if pos != len(p) {
		return fail("has %d trailing bytes", len(p)-pos)
	}
	return nil
}

// uvarint decodes the varint at p[pos:] as binary.Uvarint does (n ≤ 0 when
// malformed or truncated), taking single-byte varints — most counts, diffs
// and key deltas — without entering the general loop.
func uvarint(p []byte, pos int) (v uint64, n int) {
	if pos < len(p) && p[pos] < 0x80 {
		return uint64(p[pos]), 1
	}
	return binary.Uvarint(p[pos:])
}

// readCounts decodes len(off)-1 per-group counts, each ≥ 1, from p at pos
// into the offset array off, rebased: off[i] = base + the first i counts'
// sum (off[0] already holds base). The counts must sum to total. It returns
// the position after the last count.
func readCounts(p []byte, pos int, off []int32, base, total int) (int, error) {
	sum := 0
	for i := 1; i < len(off); i++ {
		u, n := uvarint(p, pos)
		if n <= 0 {
			return pos, fmt.Errorf("bad varint at byte %d", pos)
		}
		pos += n
		if u == 0 || u > uint64(total-sum) {
			return pos, fmt.Errorf("group of %d elements with %d of %d left", u, total-sum, total)
		}
		sum += int(u)
		off[i] = int32(base + sum)
	}
	if sum != total {
		return pos, fmt.Errorf("groups sum to %d, want %d", sum, total)
	}
	return pos, nil
}

// segment decodes block bi into a fresh block-local batch, framing left
// unset: the one block decode, which the read cache calls for cursors and
// Store.Segment calls uncached for merges.
func (im *image[K, V]) segment(cfg *codecs[K, V], bi int) (*core.Batch[K, V], error) {
	m := &im.blocks[bi]
	b := sizedBatch[K, V](m.nKeys, m.nVals, m.nUpds)
	if err := im.decodeBlock(cfg, bi, b, false, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// assemble materializes the whole image as one resident batch (the unspill
// path: imports, restore and probes consume entire runs). Each block
// decodes straight into the run's columns at its global bases, and the
// same pass folds the update times into their antichain of minimal times,
// which must agree with the stored MinTimes: disagreement means the stored
// stats lie about the contents and is corruption.
func (im *image[K, V]) assemble(cfg *codecs[K, V]) (*core.Batch[K, V], error) {
	b := sizedBatch[K, V](im.numKeys, im.numVals, im.numUpds)
	var mins lattice.Frontier
	for bi := range im.blocks {
		if err := im.decodeBlock(cfg, bi, b, true, &mins); err != nil {
			return nil, err
		}
	}
	if !mins.Equal(lattice.NewFrontier(im.minTimes...)) {
		return nil, im.corrupt(0, "stored min-times %v disagree with contents %v", im.minTimes, mins.Elements())
	}
	b.Lower, b.Upper, b.Since = im.lower.Clone(), im.upper.Clone(), im.since.Clone()
	b.SetMinTimes(mins.Elements())
	return b, nil
}
