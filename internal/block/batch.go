package block

import (
	"repro/internal/core"
	"repro/internal/lattice"
)

// blockBatch is one spilled run read as its blocks (core.SegmentedRun): the
// resident index answers bounds, counts, MinTimes and every block's first
// and last key with zero I/O, and LoadSegment decodes a block through the
// store's clock cache only when a cursor needs its contents.
//
// The read surface has no error returns — the spine treats its runs as
// infallible storage — so an I/O or corruption fault during a lazy load is
// storage-fatal and panics, exactly as a torn WAL generation would. Like
// the spine it serves, a blockBatch is confined to its worker goroutine.
type blockBatch[K, V any] struct {
	st   *Store[K, V]
	name string // file name within the store directory
	src  source
	im   *image[K, V]

	// Authoritative framing. Normally the file's own frontiers, but a
	// manifest reference (wal.BlockRef) overrides them on recovery: a run
	// widened over an empty neighbour is rewritten only in the manifest,
	// never on disk.
	lower, upper, since lattice.Frontier
}

var _ core.SegmentedRun[uint64, uint64] = (*blockBatch[uint64, uint64])(nil)

func (b *blockBatch[K, V]) Bounds() (lower, upper, since lattice.Frontier) {
	return b.lower, b.upper, b.since
}

func (b *blockBatch[K, V]) Len() int                 { return b.im.NumUpds }
func (b *blockBatch[K, V]) NumKeys() int             { return b.im.NumKeys }
func (b *blockBatch[K, V]) MinTimes() []lattice.Time { return b.im.minTimes }
func (b *blockBatch[K, V]) Segments() int            { return len(b.im.blocks) }

// Fence returns block i's first and last key from the resident index.
func (b *blockBatch[K, V]) Fence(i int) (first, last K) {
	m := &b.im.blocks[i]
	return m.firstKey, m.lastKey
}

// LoadSegment returns block i decoded, through the store's cache.
func (b *blockBatch[K, V]) LoadSegment(i int) *core.Batch[K, V] {
	return b.st.loadCached(b, i)
}

// ForEach visits every update triple in (key, value, time) order, loading
// blocks sequentially.
func (b *blockBatch[K, V]) ForEach(f func(k K, v V, t lattice.Time, d core.Diff)) {
	for i := range b.im.blocks {
		b.LoadSegment(i).ForEach(f)
	}
}
