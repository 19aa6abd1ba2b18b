package wal

import (
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

// appendBatch encodes a batch: the three framing frontiers followed by the
// five arrays core.Batch stores. The value section is one self-delimiting
// codec encoding per value, whatever the store's in-memory layout, so the
// bytes are deterministic.
func appendBatch[K, V any](dst []byte, kc Codec[K], vc Codec[V], b *core.Batch[K, V]) []byte {
	dst = AppendFrontier(dst, b.Lower)
	dst = AppendFrontier(dst, b.Upper)
	dst = AppendFrontier(dst, b.Since)
	dst = AppendU32(dst, uint32(len(b.Keys)))
	for _, k := range b.Keys {
		dst = kc.Append(dst, k)
	}
	dst = AppendU32(dst, uint32(len(b.KeyOff)))
	for _, o := range b.KeyOff {
		dst = AppendU32(dst, uint32(o))
	}
	dst = AppendU32(dst, uint32(b.Vals.Len()))
	for i := 0; i < b.Vals.Len(); i++ {
		dst = vc.Append(dst, b.Vals.At(i))
	}
	dst = AppendU32(dst, uint32(len(b.ValOff)))
	for _, o := range b.ValOff {
		dst = AppendU32(dst, uint32(o))
	}
	dst = AppendU32(dst, uint32(len(b.Diffs)))
	for ui, d := range b.Diffs {
		dst = AppendTime(dst, b.UpdTime(ui))
		dst = AppendU64(dst, uint64(d))
	}
	return dst
}

func decodeBatch[K, V any](d *Dec, kc Codec[K], vc Codec[V]) (*core.Batch[K, V], error) {
	b := &core.Batch[K, V]{}
	var err error
	if b.Lower, err = d.Frontier(); err != nil {
		return nil, err
	}
	if b.Upper, err = d.Frontier(); err != nil {
		return nil, err
	}
	if b.Since, err = d.Frontier(); err != nil {
		return nil, err
	}
	nKeys, err := d.Count("key")
	if err != nil {
		return nil, err
	}
	b.Keys = make([]K, 0, min(nKeys, 4096))
	for i := 0; i < nKeys; i++ {
		k, n, kerr := kc.Read(d.buf[d.off:])
		if kerr != nil {
			return nil, d.fail("key %d: %v", i, kerr)
		}
		d.off += n
		b.Keys = append(b.Keys, k)
	}
	if b.KeyOff, err = d.offsets("keyoff"); err != nil {
		return nil, err
	}
	nVals, err := d.Count("val")
	if err != nil {
		return nil, err
	}
	b.Vals.Grow(min(nVals, 4096))
	for i := 0; i < nVals; i++ {
		v, n, verr := vc.Read(d.buf[d.off:])
		if verr != nil {
			return nil, d.fail("val %d: %v", i, verr)
		}
		d.off += n
		b.Vals.Append(v)
	}
	if b.ValOff, err = d.offsets("valoff"); err != nil {
		return nil, err
	}
	nUpds, err := d.Count("update")
	if err != nil {
		return nil, err
	}
	if nUpds*9 > d.Remaining() {
		return nil, d.fail("update count %d exceeds record", nUpds)
	}
	b.Diffs = make([]core.Diff, 0, nUpds)
	for i := 0; i < nUpds; i++ {
		t, terr := d.Time()
		if terr != nil {
			return nil, terr
		}
		diff, derr := d.U64()
		if derr != nil {
			return nil, derr
		}
		b.AppendUpd(t, core.Diff(diff))
	}
	if err := validateBatch(b); err != nil {
		return nil, err
	}
	b.CacheMinTimes()
	return b, nil
}

func (d *Dec) offsets(what string) ([]int32, error) {
	n, err := d.Count(what)
	if err != nil {
		return nil, err
	}
	if n*4 > d.Remaining() {
		return nil, d.fail("%s count %d exceeds record", what, n)
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		v, err := d.U32()
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
	if err := monotone(b.ValOff, len(b.Diffs), "valoff"); err != nil {
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
	for ui := range b.Diffs {
		if d := b.UpdTime(ui).Depth(); d != depth {
			return fmt.Errorf("update at depth %d in depth-%d batch", d, depth)
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
