package wal

import (
	"encoding/binary"
	"fmt"

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
	maxBatchElems    = 1 << 27
)

// cursor is a bounds-checked reader over one record payload.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) remaining() int { return len(c.buf) - c.off }

func (c *cursor) fail(format string, args ...any) error {
	return fmt.Errorf("at payload byte %d: %s", c.off, fmt.Sprintf(format, args...))
}

func (c *cursor) u8() (byte, error) {
	if c.remaining() < 1 {
		return 0, c.fail("truncated u8")
	}
	v := c.buf[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, c.fail("truncated u32")
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, c.fail("truncated u64")
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v, nil
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// appendTime encodes a Time as depth followed by its coordinates.
func appendTime(dst []byte, t lattice.Time) []byte {
	dst = append(dst, byte(t.Depth()))
	for i := 0; i < t.Depth(); i++ {
		dst = appendU64(dst, t.Coord(i))
	}
	return dst
}

// time decodes a Time into a fixed-size array: a slice made at the decoded
// depth would escape to the heap once per time read.
func (c *cursor) time() (lattice.Time, error) {
	d, err := c.u8()
	if err != nil {
		return lattice.Time{}, err
	}
	if d < 1 || int(d) > lattice.MaxDepth {
		return lattice.Time{}, c.fail("time depth %d out of range", d)
	}
	var coords [lattice.MaxDepth]uint64
	for i := 0; i < int(d); i++ {
		if coords[i], err = c.u64(); err != nil {
			return lattice.Time{}, err
		}
	}
	return lattice.FromCoords(int(d), coords), nil
}

// appendFrontier encodes an antichain in sorted order (deterministic bytes
// for identical frontiers, which replay idempotence relies on).
func appendFrontier(dst []byte, f lattice.Frontier) []byte {
	els := f.Sorted()
	dst = appendU32(dst, uint32(len(els)))
	for _, t := range els {
		dst = appendTime(dst, t)
	}
	return dst
}

func (c *cursor) frontier() (lattice.Frontier, error) {
	n, err := c.u32()
	if err != nil {
		return lattice.Frontier{}, err
	}
	if n > maxFrontierElems || int(n)*9 > c.remaining() {
		return lattice.Frontier{}, c.fail("frontier of %d elements exceeds record", n)
	}
	var f lattice.Frontier
	for i := 0; i < int(n); i++ {
		t, err := c.time()
		if err != nil {
			return lattice.Frontier{}, err
		}
		f.Insert(t)
	}
	return f, nil
}

// count reads an element count, bounding it against the global cap and the
// remaining record bytes. The byte bound holds for every legitimate column:
// even zero-width elements (UnitCodec values) are each anchored by at least
// one later offset or update entry of ≥ 4 bytes in the same record, so a
// count exceeding the remaining length is corruption — rejecting it here
// keeps a corrupt record from spinning the decode loop millions of times
// before the offset-table validation would catch it.
func (c *cursor) count(what string) (int, error) {
	n, err := c.u32()
	if err != nil {
		return 0, err
	}
	if n > maxBatchElems || int(n) > c.remaining() {
		return 0, c.fail("%s count %d exceeds record", what, n)
	}
	return int(n), nil
}

// appendBatch encodes a batch: the three framing frontiers followed by the
// five arrays core.Batch stores. The value section is one self-delimiting
// codec encoding per value, whatever the store's in-memory layout, so the
// bytes are deterministic.
func appendBatch[K, V any](dst []byte, kc Codec[K], vc Codec[V], b *core.Batch[K, V]) []byte {
	dst = appendFrontier(dst, b.Lower)
	dst = appendFrontier(dst, b.Upper)
	dst = appendFrontier(dst, b.Since)
	dst = appendU32(dst, uint32(len(b.Keys)))
	for _, k := range b.Keys {
		dst = kc.Append(dst, k)
	}
	dst = appendU32(dst, uint32(len(b.KeyOff)))
	for _, o := range b.KeyOff {
		dst = appendU32(dst, uint32(o))
	}
	dst = appendU32(dst, uint32(b.Vals.Len()))
	for i := 0; i < b.Vals.Len(); i++ {
		dst = vc.Append(dst, b.Vals.At(i))
	}
	dst = appendU32(dst, uint32(len(b.ValOff)))
	for _, o := range b.ValOff {
		dst = appendU32(dst, uint32(o))
	}
	dst = appendU32(dst, uint32(len(b.Upds)))
	for _, u := range b.Upds {
		dst = appendTime(dst, u.Time)
		dst = appendU64(dst, uint64(u.Diff))
	}
	return dst
}

func decodeBatch[K, V any](c *cursor, kc Codec[K], vc Codec[V]) (*core.Batch[K, V], error) {
	b := &core.Batch[K, V]{}
	var err error
	if b.Lower, err = c.frontier(); err != nil {
		return nil, err
	}
	if b.Upper, err = c.frontier(); err != nil {
		return nil, err
	}
	if b.Since, err = c.frontier(); err != nil {
		return nil, err
	}
	nKeys, err := c.count("key")
	if err != nil {
		return nil, err
	}
	b.Keys = make([]K, 0, min(nKeys, 4096))
	for i := 0; i < nKeys; i++ {
		k, n, kerr := kc.Read(c.buf[c.off:])
		if kerr != nil {
			return nil, c.fail("key %d: %v", i, kerr)
		}
		c.off += n
		b.Keys = append(b.Keys, k)
	}
	if b.KeyOff, err = c.offsets("keyoff"); err != nil {
		return nil, err
	}
	nVals, err := c.count("val")
	if err != nil {
		return nil, err
	}
	b.Vals.Grow(min(nVals, 4096))
	for i := 0; i < nVals; i++ {
		v, n, verr := vc.Read(c.buf[c.off:])
		if verr != nil {
			return nil, c.fail("val %d: %v", i, verr)
		}
		c.off += n
		b.Vals.Append(v)
	}
	if b.ValOff, err = c.offsets("valoff"); err != nil {
		return nil, err
	}
	nUpds, err := c.count("update")
	if err != nil {
		return nil, err
	}
	if nUpds*9 > c.remaining() {
		return nil, c.fail("update count %d exceeds record", nUpds)
	}
	b.Upds = make([]core.TimeDiff, 0, nUpds)
	for i := 0; i < nUpds; i++ {
		t, terr := c.time()
		if terr != nil {
			return nil, terr
		}
		d, derr := c.u64()
		if derr != nil {
			return nil, derr
		}
		b.Upds = append(b.Upds, core.TimeDiff{Time: t, Diff: core.Diff(d)})
	}
	if err := validateBatch(b); err != nil {
		return nil, err
	}
	b.CacheMinTimes()
	return b, nil
}

func (c *cursor) offsets(what string) ([]int32, error) {
	n, err := c.count(what)
	if err != nil {
		return nil, err
	}
	if n*4 > c.remaining() {
		return nil, c.fail("%s count %d exceeds record", what, n)
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.u32()
		if err != nil {
			return nil, err
		}
		out = append(out, int32(v))
	}
	return out, nil
}

// validateBatch checks the structural invariants of a decoded batch so a
// corrupt record can never smuggle wrong counts or a panic into the spine:
// offset arrays must be monotone and mutually consistent, and every time in
// the batch must share one depth (mixed depths panic on comparison).
func validateBatch[K, V any](b *core.Batch[K, V]) error {
	if b.Lower.Empty() {
		return fmt.Errorf("batch with empty lower frontier")
	}
	if b.Since.Empty() {
		return fmt.Errorf("batch with empty since frontier")
	}
	if len(b.KeyOff) != len(b.Keys)+1 {
		return fmt.Errorf("keyoff length %d for %d keys", len(b.KeyOff), len(b.Keys))
	}
	if len(b.ValOff) != b.Vals.Len()+1 {
		return fmt.Errorf("valoff length %d for %d vals", len(b.ValOff), b.Vals.Len())
	}
	if err := monotone(b.KeyOff, b.Vals.Len(), "keyoff"); err != nil {
		return err
	}
	if err := monotone(b.ValOff, len(b.Upds), "valoff"); err != nil {
		return err
	}
	depth := b.Lower.Elements()[0].Depth()
	for _, f := range []lattice.Frontier{b.Lower, b.Upper, b.Since} {
		for _, t := range f.Elements() {
			if t.Depth() != depth {
				return fmt.Errorf("mixed time depths %d and %d in batch framing", depth, t.Depth())
			}
		}
	}
	for _, u := range b.Upds {
		if u.Time.Depth() != depth {
			return fmt.Errorf("update at depth %d in depth-%d batch", u.Time.Depth(), depth)
		}
	}
	return nil
}

func monotone(off []int32, last int, what string) error {
	if off[0] != 0 {
		return fmt.Errorf("%s starts at %d", what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%s decreases at %d", what, i)
		}
	}
	if int(off[len(off)-1]) != last {
		return fmt.Errorf("%s ends at %d, want %d", what, off[len(off)-1], last)
	}
	return nil
}
