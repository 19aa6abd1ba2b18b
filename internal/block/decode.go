package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// image is the decoded, resident part of one block file: framing frontiers,
// totals, MinTimes, and the per-block index. Column data stays on disk
// behind src until a block is loaded.
type image[K, V any] struct {
	path string
	src  source
	size int64

	wal.Head // framing, totals and the depth of every time
	minTimes []lattice.Time
	blocks   []blockMeta[K]
}

// minBlockEntryBytes is the fewest index bytes one block entry occupies:
// three u32 counts and the u64 frame offset and length.
const minBlockEntryBytes = 28

// openImage reads and validates the header and index of a block file.
// Every failure is a *CorruptError (I/O faults excepted); successfully
// opened images have internally consistent counts, ordered key stats, and
// uniform time depths, so lazy block loads can trust the index. In
// particular no block claims more updates than its frame length can hold
// (wal.CheckCounts), so the decoder sizes every column from the counts
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
	if u64 := flags&flagU64Keys != 0; u64 != cfg.U64Keys {
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
	if im.Head, derr = d.Head(); derr != nil {
		return bad("head", derr)
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
		if t.Depth() != im.Depth {
			return fail(indexOff, "min time at depth %d in depth-%d file", t.Depth(), im.Depth)
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
		if m.nKeys, err = d.Elems(); err != nil {
			return bad("block key count", err)
		}
		if m.nVals, err = d.Elems(); err != nil {
			return bad("block value count", err)
		}
		if m.nUpds, err = d.Elems(); err != nil {
			return bad("block update count", err)
		}
		if m.nKeys < 1 {
			return fail(indexOff, "block %d with no keys", i)
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
		if err := wal.CheckCounts(m.nKeys, m.nVals, m.nUpds, m.length); err != nil {
			return fail(indexOff, "block %d: %v", i, err)
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
	if keyBase != im.NumKeys || valBase != im.NumVals || updBase != im.NumUpds {
		return fail(indexOff, "block sums (%d keys, %d values, %d updates) disagree with totals (%d, %d, %d)",
			keyBase, valBase, updBase, im.NumKeys, im.NumVals, im.NumUpds)
	}
	if d.Remaining() != 0 {
		return fail(indexOff, "%d trailing bytes after index body", d.Remaining())
	}
	return im, nil
}

func readKey[K, V any](cfg *codecs[K, V], d *wal.Dec) (K, error) {
	if cfg.U64Keys {
		u, err := d.U64()
		if err != nil {
			var zero K
			return zero, err
		}
		return any(u).(K), nil
	}
	return wal.DecValue(d, cfg.KC)
}

// corrupt returns a *CorruptError at off in the image's file.
func (im *image[K, V]) corrupt(off int64, format string, args ...any) error {
	err := corrupt(off, format, args...)
	err.(*CorruptError).Path = im.path
	return err
}

// decodeBlock decodes block bi's payload through the batch kernel
// (wal.BatchCodec.DecodePayload), appending it onto dst — a batch of its
// own, or the whole run's, into which assemble decodes the blocks in order —
// and checks its first and last keys against the index's stats. With mins
// non-nil the kernel also folds every update time into that antichain of
// minimal times.
func (im *image[K, V]) decodeBlock(cfg *codecs[K, V], bi int, dst *core.Batch[K, V], mins *lattice.Frontier) error {
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
	k0 := len(dst.Keys)
	if err := cfg.DecodePayload(p[1:], dst, m.nKeys, m.nVals, m.nUpds, im.Depth, mins); err != nil {
		return fail("%v", err)
	}
	if !cfg.fn.EqK(dst.Keys[k0], m.firstKey) || !cfg.fn.EqK(dst.Keys[k0+m.nKeys-1], m.lastKey) {
		return fail("keys disagree with index stats")
	}
	return nil
}

// segment decodes block bi into a fresh block-local batch, framing left
// unset: the one block decode, which the read cache calls for cursors and
// Store.Segment calls uncached for merges.
func (im *image[K, V]) segment(cfg *codecs[K, V], bi int) (*core.Batch[K, V], error) {
	m := &im.blocks[bi]
	b := wal.SizedBatch[K, V](m.nKeys, m.nVals, m.nUpds)
	if err := im.decodeBlock(cfg, bi, b, nil); err != nil {
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
	b := wal.SizedBatch[K, V](im.NumKeys, im.NumVals, im.NumUpds)
	var mins lattice.Frontier
	for bi := range im.blocks {
		if err := im.decodeBlock(cfg, bi, b, &mins); err != nil {
			return nil, err
		}
	}
	if !mins.Equal(lattice.NewFrontier(im.minTimes...)) {
		return nil, im.corrupt(0, "stored min-times %v disagree with contents %v", im.minTimes, mins.Elements())
	}
	b.Lower, b.Upper, b.Since = im.Lower.Clone(), im.Upper.Clone(), im.Since.Clone()
	b.SetMinTimes(mins.Elements())
	return b, nil
}
