package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lattice"
)

// Decode limits: replay must tolerate adversarial inputs (bit flips that
// survive the CRC only in fuzzing, but also genuinely corrupt storage), so
// every count is bounded before allocation. The frontier cap is tight
// because antichain insertion is quadratic in the element count: real
// frontiers hold a handful of mutually incomparable times, never thousands.
const (
	maxFrontierElems = 64
	// MaxBatchElems bounds every element count a batch record or a block
	// file claims, before any cross-check runs.
	MaxBatchElems = 1 << 27
	// minUpdateBytes is the fewest payload bytes one update occupies: a
	// depth byte, one 8-byte coordinate and a one-byte diff varint.
	minUpdateBytes = 10
)

// The batch payload is the one encoding of a sealed batch on disk: the body
// of a WAL batch record after its Head, and of every block of a block file
// (internal/block), which holds a key-aligned slice of a run. In order:
//
//	keys          uint64 keys as delta varints (the first raw, each later
//	              one ≥ 1: keys strictly increase); other keys as key-codec
//	              bytes
//	key groups    per key, its number of values, a varint ≥ 1
//	values        one value-codec encoding each
//	value groups  per value, its number of updates, a varint ≥ 1
//	updates       per update, its time (a depth byte, then that many u64
//	              coordinates) and its diff as a zigzag varint
//
// The counts are not in the payload: the record's Head or the block file's
// index holds them, and the decoder sizes every column from them at once.

// BatchCodec writes and reads the batch payload of one key and value type.
type BatchCodec[K, V any] struct {
	KC      Codec[K] // unused when U64Keys
	VC      Codec[V]
	U64Keys bool // K is uint64: keys are delta varints
	// Less, when set, must hold between consecutive codec-encoded keys. A
	// block store knows its key order (core.Funcs); a shard log does not.
	Less func(a, b K) bool
}

// NewBatchCodec returns the payload codec for K and V. kc may be nil when K
// is uint64; vc is required.
func NewBatchCodec[K, V any](kc Codec[K], vc Codec[V]) (*BatchCodec[K, V], error) {
	if vc == nil {
		return nil, fmt.Errorf("value codec required")
	}
	c := &BatchCodec[K, V]{KC: kc, VC: vc}
	var zk K
	if _, ok := any(zk).(uint64); ok {
		c.U64Keys = true
	} else if kc == nil {
		return nil, fmt.Errorf("key codec required for non-uint64 keys")
	}
	return c, nil
}

// AppendPayload encodes keys [kLo, kHi) of b, with every value and update
// under them, as one payload onto dst. The value section is one codec
// encoding per value, whatever the store's in-memory layout, so the bytes
// are deterministic.
func (c *BatchCodec[K, V]) AppendPayload(dst []byte, b *core.Batch[K, V], kLo, kHi int) []byte {
	if kLo == kHi {
		return dst
	}
	if c.U64Keys {
		prev := uint64(0)
		for _, k := range any(b.Keys[kLo:kHi]).([]uint64) {
			dst = AppendUvarint(dst, k-prev)
			prev = k
		}
	} else {
		for _, k := range b.Keys[kLo:kHi] {
			dst = c.KC.Append(dst, k)
		}
	}
	vLo, vHi := int(b.KeyOff[kLo]), int(b.KeyOff[kHi])
	for ki := kLo; ki < kHi; ki++ {
		dst = AppendUvarint(dst, uint64(b.KeyOff[ki+1]-b.KeyOff[ki]))
	}
	for vi := vLo; vi < vHi; vi++ {
		dst = c.VC.Append(dst, b.Vals.At(vi))
	}
	for vi := vLo; vi < vHi; vi++ {
		dst = AppendUvarint(dst, uint64(b.ValOff[vi+1]-b.ValOff[vi]))
	}
	for ui := int(b.ValOff[vLo]); ui < int(b.ValOff[vHi]); ui++ {
		dst = AppendTime(dst, b.UpdTime(ui))
		dst = AppendZigzag(dst, b.Diffs[ui])
	}
	return dst
}

// CheckCounts bounds the counts a payload of n bytes claims, before
// anything is sized by them: it holds at least as many updates as values
// and values as keys, and each update takes at least minUpdateBytes, so no
// column sized by the counts exceeds a small multiple of n.
func CheckCounts(nKeys, nVals, nUpds int, n int64) error {
	if nVals < nKeys || nUpds < nVals || int64(nUpds) > n/minUpdateBytes {
		return fmt.Errorf("%d keys, %d values and %d updates claimed in %d bytes", nKeys, nVals, nUpds, n)
	}
	return nil
}

// SizedBatch is a decode destination: an empty batch whose columns have
// room for nKeys keys, nVals values and nUpds updates, allocated once at
// their exact final size so DecodePayload appends every element in place —
// one block's worth for a block cache or a merge, a whole run's for a WAL
// record or an unspill. Updates append through core.Batch.AppendUpd into
// Diffs' full capacity, which keeps the batch one-time while its times
// agree and otherwise makes the time column once. Values decode into the
// row layout whatever the store's Funcs: a columnar arrangement merges them
// through ValStore.AppendRange's mixed-layout path. The counts must have
// passed CheckCounts. Framing is left unset.
func SizedBatch[K, V any](nKeys, nVals, nUpds int) *core.Batch[K, V] {
	b := &core.Batch[K, V]{
		Keys:   make([]K, 0, nKeys),
		KeyOff: make([]int32, 1, nKeys+1),
		ValOff: make([]int32, 1, nVals+1),
		Diffs:  make([]core.Diff, 0, nUpds),
	}
	b.Vals.Grow(nVals)
	return b
}

// DecodePayload is the decode kernel: one pass over p, which must be one
// payload of exactly nKeys keys, nVals values and nUpds updates at depth,
// that validates it — key order, group counts, every time's depth and
// field widths, no trailing bytes — and appends its columns onto dst,
// which SizedBatch made with room for them. The offsets it appends continue
// dst's, so a run's payloads decode in order into one batch. With mins
// non-nil it also folds every update time into that antichain of minimal
// times. The caller names the record or block in the error.
func (c *BatchCodec[K, V]) DecodePayload(p []byte, dst *core.Batch[K, V], nKeys, nVals, nUpds, depth int, mins *lattice.Frontier) error {
	k0, v0, u0 := len(dst.Keys), dst.Vals.Len(), len(dst.Diffs)
	dst.Keys = dst.Keys[:k0+nKeys]
	keys := dst.Keys[k0:]
	pos := 0
	if c.U64Keys {
		ks := any(keys).([]uint64)
		prev := uint64(0)
		for i := range ks {
			u, n := uvarint(p, pos)
			if n <= 0 {
				return fmt.Errorf("key %d: bad varint at byte %d", i, pos)
			}
			pos += n
			if i > 0 {
				if u == 0 {
					return fmt.Errorf("key %d repeats its predecessor", i)
				}
				if u += prev; u < prev {
					return fmt.Errorf("key %d overflows", i)
				}
			}
			ks[i], prev = u, u
		}
	} else {
		for i := range keys {
			k, n, err := c.KC.Read(p[pos:])
			if err != nil || n < 0 || n > len(p)-pos {
				return fmt.Errorf("key %d at byte %d: %v", i, pos, err)
			}
			pos += n
			if i > 0 && c.Less != nil && !c.Less(keys[i-1], k) {
				return fmt.Errorf("key %d out of order", i)
			}
			keys[i] = k
		}
	}
	var err error
	dst.KeyOff = dst.KeyOff[:k0+nKeys+1]
	if pos, err = readCounts(p, pos, dst.KeyOff[k0:], v0, nVals); err != nil {
		return fmt.Errorf("key offsets: %v", err)
	}

	for i := 0; i < nVals; i++ {
		v, n, err := c.VC.Read(p[pos:])
		if err != nil || n < 0 || n > len(p)-pos {
			return fmt.Errorf("value %d at byte %d: %v", i, pos, err)
		}
		pos += n
		dst.Vals.Append(v)
	}
	dst.ValOff = dst.ValOff[:v0+nVals+1]
	if pos, err = readCounts(p, pos, dst.ValOff[v0:], u0, nUpds); err != nil {
		return fmt.Errorf("value offsets: %v", err)
	}

	// Updates: each time is a depth byte, which must be depth, then that
	// many coordinates, read in place; a loop coordinate must fit its
	// depth's field.
	timeLen := 1 + 8*depth
	maxLoop := lattice.MaxLoopCoord(depth)
	var coords [lattice.MaxDepth]uint64
	min1 := uint64(math.MaxUint64) // depth 1 is totally ordered: one minimum
	for i := 0; i < nUpds; i++ {
		if len(p)-pos < timeLen {
			return fmt.Errorf("update %d time: truncated at byte %d", i, pos)
		}
		if int(p[pos]) != depth {
			return fmt.Errorf("update %d at depth %d, want %d", i, p[pos], depth)
		}
		for j := 0; j < depth; j++ {
			coords[j] = binary.LittleEndian.Uint64(p[pos+1+8*j:])
			if j > 0 && coords[j] > maxLoop {
				return fmt.Errorf("update %d time: coordinate %d = %d too wide for depth %d", i, j, coords[j], depth)
			}
		}
		pos += timeLen
		u, n := uvarint(p, pos)
		if n <= 0 {
			return fmt.Errorf("update %d diff: bad varint at byte %d", i, pos)
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
	if mins != nil && depth == 1 && nUpds > 0 {
		mins.Insert(lattice.Ts(min1))
	}
	if pos != len(p) {
		return fmt.Errorf("%d trailing bytes", len(p)-pos)
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

// Head precedes a batch's payload in a WAL batch record and opens a block
// file's index: the three framing frontiers, then the key, value and
// update totals as u32s.
type Head struct {
	Lower, Upper, Since       lattice.Frontier
	NumKeys, NumVals, NumUpds int
	Depth                     int // every framing time's, so every update's
}

// AppendHead encodes a head onto dst.
func AppendHead(dst []byte, lower, upper, since lattice.Frontier, nKeys, nVals, nUpds int) []byte {
	dst = AppendFrontier(dst, lower)
	dst = AppendFrontier(dst, upper)
	dst = AppendFrontier(dst, since)
	dst = AppendU32(dst, uint32(nKeys))
	dst = AppendU32(dst, uint32(nVals))
	return AppendU32(dst, uint32(nUpds))
}

// Head reads a head. Lower and since must be non-empty, every framing time
// must be at one depth (mixed depths panic on comparison), and every total
// at most MaxBatchElems.
func (d *Dec) Head() (Head, error) {
	var h Head
	var err error
	if h.Lower, err = d.Frontier(); err != nil {
		return h, err
	}
	if h.Upper, err = d.Frontier(); err != nil {
		return h, err
	}
	if h.Since, err = d.Frontier(); err != nil {
		return h, err
	}
	if h.Lower.Empty() || h.Since.Empty() {
		return h, d.fail("empty lower or since frontier")
	}
	h.Depth = h.Lower.Elements()[0].Depth()
	for _, f := range []lattice.Frontier{h.Lower, h.Upper, h.Since} {
		for _, t := range f.Elements() {
			if t.Depth() != h.Depth {
				return h, d.fail("mixed time depths %d and %d in framing", h.Depth, t.Depth())
			}
		}
	}
	for _, n := range []*int{&h.NumKeys, &h.NumVals, &h.NumUpds} {
		if *n, err = d.Elems(); err != nil {
			return h, err
		}
	}
	return h, nil
}

// Elems reads a u32 element count bounded by MaxBatchElems.
func (d *Dec) Elems() (int, error) {
	n, err := d.U32()
	if err != nil {
		return 0, err
	}
	if n > MaxBatchElems {
		return 0, d.fail("count %d exceeds limit %d", n, MaxBatchElems)
	}
	return int(n), nil
}

// encodeBatch encodes a batch record's body: b's head, then b as one
// payload.
func (c *BatchCodec[K, V]) encodeBatch(dst []byte, b *core.Batch[K, V]) []byte {
	dst = AppendHead(dst, b.Lower, b.Upper, b.Since, len(b.Keys), b.Vals.Len(), b.Len())
	return c.AppendPayload(dst, b, 0, len(b.Keys))
}

// readBatch decodes a batch record's body into exact-size columns: the
// kernel validates the payload and folds the batch's MinTimes as it goes.
func (c *BatchCodec[K, V]) readBatch(d *Dec) (*core.Batch[K, V], error) {
	h, err := d.Head()
	if err != nil {
		return nil, err
	}
	p := d.buf[d.off:]
	if err := CheckCounts(h.NumKeys, h.NumVals, h.NumUpds, int64(len(p))); err != nil {
		return nil, d.fail("%v", err)
	}
	b := SizedBatch[K, V](h.NumKeys, h.NumVals, h.NumUpds)
	var mins lattice.Frontier
	if err := c.DecodePayload(p, b, h.NumKeys, h.NumVals, h.NumUpds, h.Depth, &mins); err != nil {
		return nil, d.fail("payload %v", err)
	}
	d.off = len(d.buf)
	b.Lower, b.Upper, b.Since = h.Lower, h.Upper, h.Since
	b.SetMinTimes(mins.Elements())
	return b, nil
}
