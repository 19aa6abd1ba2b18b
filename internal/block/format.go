package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/wal"
)

// On-disk constants. The header is fixed-size so a reader can locate the
// index without scanning; everything else is framed with the WAL's
// length+CRC32-C record framing.
const (
	headerLen = 32
	magic     = "KPGB"
	version   = 1

	flagColumnar = 1 << 0 // values stored as delta-varint word columns
	flagU64Keys  = 1 << 1 // keys stored as delta-varint uint64s

	kindIndex = 1
	kindBlock = 2

	// maxFrameLen bounds any single framed payload (matches the WAL).
	maxFrameLen = 1 << 30
	// maxElems bounds decoded element counts before cross-checks run.
	maxElems = 1 << 27

	// DefaultBlockUpdates is the target number of update triples per block.
	DefaultBlockUpdates = 4096
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

// zig and zag are zigzag encoding for signed deltas over unsigned varints.
func zig(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// codecs bundles the per-type capabilities one store (or one DecodeImage
// call) dispatches through.
type codecs[K, V any] struct {
	fn      core.Funcs[K, V]
	kc      wal.Codec[K] // nil iff u64Keys
	vc      wal.Codec[V] // required for row-layout values
	u64Keys bool
	// proto is an empty store of fn's layout; columnar decodes wrap their
	// word columns with its type spec (WithCols).
	proto core.ValStore[V]
}

func newCodecs[K, V any](fn core.Funcs[K, V], kc wal.Codec[K], vc wal.Codec[V]) (*codecs[K, V], error) {
	c := &codecs[K, V]{fn: fn, kc: kc, vc: vc}
	if fn.NewStore != nil {
		c.proto = fn.NewStore(0)
	}
	var zk K
	if _, ok := any(zk).(uint64); ok {
		c.u64Keys = true
	} else if kc == nil {
		return nil, fmt.Errorf("block: key codec required for non-uint64 keys")
	}
	return c, nil
}

// blockMeta is the resident per-block index entry: global bases, counts,
// the framed record's location, and the min/max key stats that make
// skipping and boundary probes free of I/O.
type blockMeta[K any] struct {
	keyBase, valBase, updBase int
	nKeys, nVals, nUpds       int
	off, length               int64 // framed record location in the file
	firstKey, lastKey         K
}

// encodeImage serializes a sealed batch into a complete block-file image.
// Blocks split at key boundaries after accumulating at least blockUpdates
// update triples, so one key's values and histories never straddle blocks.
func encodeImage[K, V any](cfg *codecs[K, V], b *core.Batch[K, V], blockUpdates int) ([]byte, error) {
	if blockUpdates <= 0 {
		blockUpdates = DefaultBlockUpdates
	}
	cols := b.Vals.Columns()
	flags := uint16(0)
	if cols != nil {
		flags |= flagColumnar
	} else if cfg.vc == nil {
		return nil, fmt.Errorf("block: value codec required for row-layout values")
	}
	if cfg.u64Keys {
		flags |= flagU64Keys
	}

	img := make([]byte, headerLen) // header filled in last
	var metas []blockMeta[K]
	var payload []byte

	ki := 0
	for ki < len(b.Keys) {
		start := ki
		vLo := int(b.KeyOff[ki])
		uLo := int(b.ValOff[vLo])
		for ki < len(b.Keys) {
			ki++
			if int(b.ValOff[b.KeyOff[ki]])-uLo >= blockUpdates {
				break
			}
		}
		vHi := int(b.KeyOff[ki])
		uHi := int(b.ValOff[vHi])

		payload = payload[:0]
		payload = append(payload, kindBlock)
		payload = encodeKeys(cfg, payload, b.Keys[start:ki])
		for i := start; i < ki; i++ {
			payload = wal.AppendUvarint(payload, uint64(b.KeyOff[i+1]-b.KeyOff[i]))
		}
		payload = encodeVals(cfg, payload, &b.Vals, cols, vLo, vHi)
		for vi := vLo; vi < vHi; vi++ {
			payload = wal.AppendUvarint(payload, uint64(b.ValOff[vi+1]-b.ValOff[vi]))
		}
		for ui := uLo; ui < uHi; ui++ {
			payload = wal.AppendTime(payload, b.Upds[ui].Time)
			payload = wal.AppendUvarint(payload, zig(b.Upds[ui].Diff))
		}

		off := int64(len(img))
		img = wal.AppendRecord(img, payload)
		metas = append(metas, blockMeta[K]{
			keyBase: start, valBase: vLo, updBase: uLo,
			nKeys: ki - start, nVals: vHi - vLo, nUpds: uHi - uLo,
			off: off, length: int64(len(img)) - off,
			firstKey: b.Keys[start], lastKey: b.Keys[ki-1],
		})
	}

	// Index: frontiers, totals, MinTimes, then the per-block table.
	payload = payload[:0]
	payload = append(payload, kindIndex)
	payload = wal.AppendFrontier(payload, b.Lower)
	payload = wal.AppendFrontier(payload, b.Upper)
	payload = wal.AppendFrontier(payload, b.Since)
	payload = wal.AppendU32(payload, uint32(len(b.Keys)))
	payload = wal.AppendU32(payload, uint32(b.Vals.Len()))
	payload = wal.AppendU32(payload, uint32(len(b.Upds)))
	width := 0
	if cols != nil {
		width = len(cols)
	}
	payload = append(payload, byte(width))
	mins := b.MinTimes()
	payload = wal.AppendU32(payload, uint32(len(mins)))
	for _, t := range mins {
		payload = wal.AppendTime(payload, t)
	}
	payload = wal.AppendU32(payload, uint32(len(metas)))
	for i := range metas {
		m := &metas[i]
		payload = wal.AppendU32(payload, uint32(m.nKeys))
		payload = wal.AppendU32(payload, uint32(m.nVals))
		payload = wal.AppendU32(payload, uint32(m.nUpds))
		payload = wal.AppendU64(payload, uint64(m.off))
		payload = wal.AppendU64(payload, uint64(m.length))
		payload = appendKey(cfg, payload, m.firstKey)
		payload = appendKey(cfg, payload, m.lastKey)
	}
	indexOff := int64(len(img))
	img = wal.AppendRecord(img, payload)

	copy(img[0:4], magic)
	binary.LittleEndian.PutUint16(img[4:6], version)
	binary.LittleEndian.PutUint16(img[6:8], flags)
	binary.LittleEndian.PutUint64(img[8:16], uint64(indexOff))
	binary.LittleEndian.PutUint64(img[16:24], uint64(int64(len(img))-indexOff))
	binary.LittleEndian.PutUint32(img[24:28], 0)
	binary.LittleEndian.PutUint32(img[28:32], crc32.Checksum(img[0:28], crcTable))
	return img, nil
}

func appendKey[K, V any](cfg *codecs[K, V], dst []byte, k K) []byte {
	if cfg.u64Keys {
		return wal.AppendU64(dst, any(k).(uint64))
	}
	return cfg.kc.Append(dst, k)
}

// encodeKeys writes a block's key run: delta varints for uint64 keys
// (strictly increasing, so deltas after the first are ≥ 1), codec bytes
// otherwise.
func encodeKeys[K, V any](cfg *codecs[K, V], dst []byte, keys []K) []byte {
	if cfg.u64Keys {
		prev := uint64(0)
		for i, k := range keys {
			u := any(k).(uint64)
			if i == 0 {
				dst = wal.AppendUvarint(dst, u)
			} else {
				dst = wal.AppendUvarint(dst, u-prev)
			}
			prev = u
		}
		return dst
	}
	for _, k := range keys {
		dst = cfg.kc.Append(dst, k)
	}
	return dst
}

// encodeVals writes a block's value run [vLo, vHi): per-column
// delta-zigzag varints over the word columns when columnar, codec bytes per
// value otherwise.
func encodeVals[K, V any](cfg *codecs[K, V], dst []byte, vs *core.ValStore[V], cols [][]uint64, vLo, vHi int) []byte {
	if cols != nil {
		for _, col := range cols {
			prev := uint64(0)
			for i := vLo; i < vHi; i++ {
				w := col[i]
				if i == vLo {
					dst = wal.AppendUvarint(dst, zig(int64(w)))
				} else {
					dst = wal.AppendUvarint(dst, zig(int64(w-prev)))
				}
				prev = w
			}
		}
		return dst
	}
	for i := vLo; i < vHi; i++ {
		dst = cfg.vc.Append(dst, vs.At(i))
	}
	return dst
}
