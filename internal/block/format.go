package block

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// On-disk constants. The header is fixed-size so a reader can locate the
// index without scanning; everything else is framed with the WAL's
// length+CRC32-C record framing.
const (
	headerLen = 32
	magic     = "KPGB"
	version   = 1

	flagU64Keys = 1 << 1 // keys stored as delta-varint uint64s

	kindIndex = 1
	kindBlock = 2

	// maxFrameLen bounds any single framed payload (matches the WAL).
	maxFrameLen = 1 << 30

	// DefaultBlockUpdates is the target number of update triples per block:
	// ≈ 5 KiB encoded for a u64/u64 run, what a cold point lookup decodes
	// (DESIGN.md §Disk tier has the sweep that chose it).
	DefaultBlockUpdates = 256
	// writeBufLen is the run writer's buffer: frames reach the file in
	// writes of this size, not one write per block.
	writeBufLen = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports an invalid block file: a damaged frame, an encoding
// that does not decode, or decoded contents that fail cross-validation
// (counts, ordering, stats). The CRC framing makes torn writes look the
// same as corruption — block files are written atomically, so unlike a WAL
// tail there is no legitimate torn state to recover.
type CorruptError struct {
	Path   string // file path, when known
	Offset int64  // byte offset of the offending region, when known
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("block: corrupt at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("block: %s: corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

func corrupt(off int64, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// codecs is a store's batch payload codec with its key order, which also
// checks the order of codec-encoded keys and the index's key stats.
type codecs[K, V any] struct {
	*wal.BatchCodec[K, V]
	fn core.Funcs[K, V]
}

func newCodecs[K, V any](fn core.Funcs[K, V], kc wal.Codec[K], vc wal.Codec[V]) (*codecs[K, V], error) {
	bc, err := wal.NewBatchCodec(kc, vc)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	bc.LessK, bc.LessV = fn.LessK, fn.LessV
	return &codecs[K, V]{bc, fn}, nil
}

// blockMeta is the resident per-block index entry: global bases (derived on
// open; the file stores only counts), counts, the framed record's location,
// and the min/max key stats that make skipping and boundary probes free of
// I/O.
type blockMeta[K any] struct {
	keyBase, valBase, updBase int
	nKeys, nVals, nUpds       int
	off, length               int64 // framed record location in the file
	firstKey, lastKey         K
}

// sink is where a runWriter puts a file: appended in order, with the
// header written last at offset 0. An *os.File is one.
type sink interface {
	io.Writer
	io.WriterAt
}

// runWriter is the one block-file encoder. It takes a run's keys in order,
// in as many batches as the caller likes, and encodes each block the moment
// it closes: blocks split at the first key boundary at or past blockUpdates
// update triples, so one key's values and histories never straddle blocks.
// Frames go to the file through one writeBufLen buffer. It keeps only the
// index — totals, MinTimes, per-block counts, locations and first/last keys
// — and at finish writes that, flushes, then writes the header. Spill feeds
// it a whole batch; a streaming merge feeds it one block at a time.
type runWriter[K, V any] struct {
	cfg          *codecs[K, V]
	blockUpdates int
	out          sink
	buf          *bufio.Writer // buffers out's appends; WriteAt bypasses it
	off          int64         // bytes written, header included
	frame        []byte
	metas        []blockMeta[K]
	numKeys      int
	numVals      int
	numUpds      int
	mins         lattice.Frontier
}

// newRunWriter starts a file on out by reserving its header.
func newRunWriter[K, V any](cfg *codecs[K, V], blockUpdates int, out sink) (*runWriter[K, V], error) {
	if blockUpdates <= 0 {
		blockUpdates = DefaultBlockUpdates
	}
	buf := bufio.NewWriterSize(out, writeBufLen)
	if _, err := buf.Write(make([]byte, headerLen)); err != nil {
		return nil, err
	}
	return &runWriter[K, V]{cfg: cfg, blockUpdates: blockUpdates, out: out, buf: buf, off: headerLen}, nil
}

// append encodes b's keys, which must follow every key appended before, as
// blocks, buffering each frame, and folds b's minimal times into the run's.
func (w *runWriter[K, V]) append(b *core.Batch[K, V]) error {
	ki := 0
	for ki < len(b.Keys) {
		start := ki
		vLo := int(b.KeyOff[ki])
		uLo := int(b.ValOff[vLo])
		for ki < len(b.Keys) {
			ki++
			if int(b.ValOff[b.KeyOff[ki]])-uLo >= w.blockUpdates {
				break
			}
		}
		vHi := int(b.KeyOff[ki])
		uHi := int(b.ValOff[vHi])

		p := w.cfg.AppendPayload(wal.OpenRecord(w.frame[:0], kindBlock), b, start, ki)
		wal.SealRecord(p)
		w.frame = p
		if _, err := w.buf.Write(p); err != nil {
			return err
		}
		w.metas = append(w.metas, blockMeta[K]{
			nKeys: ki - start, nVals: vHi - vLo, nUpds: uHi - uLo,
			off: w.off, length: int64(len(p)),
			firstKey: b.Keys[start], lastKey: b.Keys[ki-1],
		})
		w.off += int64(len(p))
		w.numKeys += ki - start
		w.numVals += vHi - vLo
		w.numUpds += uHi - uLo
	}
	for _, t := range b.MinTimes() {
		w.mins.Insert(t)
	}
	return nil
}

// finish writes the index — its wal.Head (frontiers and totals), MinTimes,
// then the per-block table — flushes the buffer, and then writes the
// header at offset 0, which locates the index.
func (w *runWriter[K, V]) finish(lower, upper, since lattice.Frontier) error {
	flags := uint16(0)
	if w.cfg.U64Keys {
		flags |= flagU64Keys
	}
	p := wal.OpenRecord(w.frame[:0], kindIndex)
	p = wal.AppendHead(p, lower, upper, since, w.numKeys, w.numVals, w.numUpds)
	p = append(p, 0) // column width: values are codec bytes, never word columns
	mins := w.mins.Elements()
	p = wal.AppendU32(p, uint32(len(mins)))
	for _, t := range mins {
		p = wal.AppendTime(p, t)
	}
	p = wal.AppendU32(p, uint32(len(w.metas)))
	for i := range w.metas {
		m := &w.metas[i]
		p = wal.AppendU32(p, uint32(m.nKeys))
		p = wal.AppendU32(p, uint32(m.nVals))
		p = wal.AppendU32(p, uint32(m.nUpds))
		p = wal.AppendU64(p, uint64(m.off))
		p = wal.AppendU64(p, uint64(m.length))
		p = appendKey(w.cfg, p, m.firstKey)
		p = appendKey(w.cfg, p, m.lastKey)
	}
	wal.SealRecord(p)
	if _, err := w.buf.Write(p); err != nil {
		return err
	}
	if err := w.buf.Flush(); err != nil {
		return err
	}

	var hdr [headerLen]byte
	copy(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(w.off))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(p)))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], crcTable))
	_, err := w.out.WriteAt(hdr[:], 0)
	return err
}

func appendKey[K, V any](cfg *codecs[K, V], dst []byte, k K) []byte {
	if cfg.U64Keys {
		return wal.AppendU64(dst, any(k).(uint64))
	}
	return cfg.KC.Append(dst, k)
}
