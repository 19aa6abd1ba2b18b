package core

import (
	"unsafe"

	"repro/internal/lattice"
)

// BatchReader is one sealed run of a trace as the spine holds it: *Batch
// when resident, the cold tier's reader when spilled. It answers from
// resident metadata — frontiers, counts, minimal times — and visits its
// contents whole with ForEach. A cursor reads a run as key-aligned segments:
// a resident run is one segment, the batch itself; a cold run is a
// SegmentedRun, its blocks.
type BatchReader[K, V any] interface {
	// Bounds returns the batch framing frontiers (lower, upper, since).
	Bounds() (lower, upper, since lattice.Frontier)
	// Len returns the number of update triples.
	Len() int
	// NumKeys returns the number of distinct keys.
	NumKeys() int
	// MinTimes returns the antichain of minimal update times.
	MinTimes() []lattice.Time
	// ForEach visits every update triple in (key, val, time) order.
	ForEach(f func(k K, v V, t lattice.Time, d Diff))
}

// SegmentedRun is a cold run as a TraceCursor reads it: an ordered list of
// key-aligned segments, each key's values and updates inside one segment.
// Every segment's first and last key (its fences) are resident, so a seek
// finds its segment with one binary search over the last keys and no I/O;
// a segment's contents are decoded only when a probe needs them.
type SegmentedRun[K, V any] interface {
	// Segments returns the number of segments, each holding at least one key.
	Segments() int
	// Fence returns segment i's first and last key.
	Fence(i int) (first, last K)
	// LoadSegment returns segment i as a block-local batch (framing unset).
	// The batch is immutable and owns its memory.
	LoadSegment(i int) *Batch[K, V]
}

// Bounds returns the batch's framing frontiers (BatchReader).
func (b *Batch[K, V]) Bounds() (lower, upper, since lattice.Frontier) {
	return b.Lower, b.Upper, b.Since
}

// ApproxBytes estimates the resident footprint of the batch's columns: the
// quantity a spill budget meters. It is an estimate — slice headers, spare
// capacity and frontiers are ignored — but it is consistent across batches,
// which is all eviction ordering needs.
func (b *Batch[K, V]) ApproxBytes() int64 {
	var k K
	n := int64(len(b.Keys)) * int64(unsafe.Sizeof(k))
	n += int64(len(b.KeyOff)+len(b.ValOff)) * 4
	n += int64(len(b.Diffs))*int64(unsafe.Sizeof(Diff(0))) +
		int64(len(b.Times))*int64(unsafe.Sizeof(lattice.Time{}))
	if cols := b.Vals.Columns(); cols != nil {
		n += int64(len(cols)) * int64(b.Vals.Len()) * 8
	} else {
		var v V
		n += int64(b.Vals.Len()) * int64(unsafe.Sizeof(v))
	}
	return n
}

// approxBytes is ApproxBytes for any run: exact for a resident batch and,
// for a cold one, an upper bound from its resident counts (one value per
// update, one time per update), so a merge can tell whether its output fits
// the resident budget without reading a block.
func approxBytes[K, V any](r BatchReader[K, V]) int64 {
	if b, ok := r.(*Batch[K, V]); ok {
		return b.ApproxBytes()
	}
	var k K
	var v V
	keys, upds := int64(r.NumKeys()), int64(r.Len())
	return keys*int64(unsafe.Sizeof(k)) + (keys+upds+2)*4 +
		upds*int64(unsafe.Sizeof(TimeDiff{})+unsafe.Sizeof(v))
}
