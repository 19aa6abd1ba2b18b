package core

import (
	"unsafe"

	"repro/internal/lattice"
)

// BatchReader is the read-side interface of one sealed run of a trace: the
// surface TraceCursor (and snapshotting) navigates. *Batch is the resident
// implementation; a disk-tiered (spilled) run implements it with lazy block
// loads, so cursors serve point lookups against cold runs without the run
// being resident. Indices are batch-global: a reader presents one logical
// (keys, key offsets, values, value offsets, updates) columnar batch no
// matter how the storage is segmented underneath.
//
// ValView returns the value at index vi as a (store, local index) borrow —
// the same shape ForUpdatesOrderedView yields — so comparisons and
// materialization run against whatever resident segment holds the value.
// Views are immutable and stay valid as long as the reader does.
type BatchReader[K, V any] interface {
	// Bounds returns the batch framing frontiers (lower, upper, since).
	Bounds() (lower, upper, since lattice.Frontier)
	// Len returns the number of update triples.
	Len() int
	// NumKeys returns the number of distinct keys.
	NumKeys() int
	// Key returns key ki. Implementations keep run boundaries (each
	// segment's first and last key) resident, so probing a position a seek
	// legitimately lands on never forces a load just to discover a miss.
	Key(ki int) K
	// SeekKey returns the index of the first key ≥ k at or after from.
	SeekKey(fn Funcs[K, V], k K, from int) int
	// ValRange returns the value index range of key ki.
	ValRange(ki int) (int, int)
	// UpdRange returns the update index range of value vi.
	UpdRange(vi int) (int, int)
	// Upd returns update ui.
	Upd(ui int) TimeDiff
	// ValView returns value vi as a (store, index-within-store) borrow.
	ValView(vi int) (*ValStore[V], int)
	// MinTimes returns the antichain of minimal update times.
	MinTimes() []lattice.Time
	// ForEach visits every update triple in (key, val, time) order.
	ForEach(f func(k K, v V, t lattice.Time, d Diff))
}

// Bounds returns the batch's framing frontiers (BatchReader).
func (b *Batch[K, V]) Bounds() (lower, upper, since lattice.Frontier) {
	return b.Lower, b.Upper, b.Since
}

// Key returns key ki (BatchReader).
func (b *Batch[K, V]) Key(ki int) K { return b.Keys[ki] }

// Upd returns update ui (BatchReader).
func (b *Batch[K, V]) Upd(ui int) TimeDiff { return b.Upds[ui] }

// ValView returns value vi as a (store, index) borrow (BatchReader).
func (b *Batch[K, V]) ValView(vi int) (*ValStore[V], int) { return &b.Vals, vi }

// ApproxBytes estimates the resident footprint of the batch's columns: the
// quantity a spill budget meters. It is an estimate — slice headers, spare
// capacity and frontiers are ignored — but it is consistent across batches,
// which is all eviction ordering needs.
func (b *Batch[K, V]) ApproxBytes() int64 {
	var k K
	n := int64(len(b.Keys)) * int64(unsafe.Sizeof(k))
	n += int64(len(b.KeyOff)+len(b.ValOff)) * 4
	n += int64(len(b.Upds)) * int64(unsafe.Sizeof(TimeDiff{}))
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
// update), so a merge can tell whether its output fits the resident budget
// without reading a block.
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
