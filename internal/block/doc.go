// Package block is the cold tier of disk-spilled arrangements: a
// self-contained on-disk format for sealed batches, and a Store that the
// spine evicts its oldest geometric runs into (core.SpillStore) and reads
// them back from as their blocks (core.SegmentedRun), each decoded only
// when a reader needs it.
//
// # File layout
//
//	┌────────────────────────────────────────────────────────────┐
//	│ header (32 B): magic "KPGB" | version | flags              │
//	│                indexOff u64 | indexLen u64 | crc32c        │
//	├────────────────────────────────────────────────────────────┤
//	│ block 0   u32 len | u32 crc32c | payload   (wal framing)   │
//	│ block 1   ...                                              │
//	│   ⋮                                                        │
//	├────────────────────────────────────────────────────────────┤
//	│ index     u32 len | u32 crc32c | payload   (wal framing)   │
//	│   frontiers (lower/upper/since), totals, MinTimes,         │
//	│   per block: counts, offset/length, first & last key       │
//	└────────────────────────────────────────────────────────────┘
//
// Blocks are key-aligned slices of the batch's arrays: each key's values
// and update histories live entirely inside one block, so a point lookup
// touches exactly one block. The index keeps every block's first and last
// key resident — its fence pointers — which answers two questions with zero
// I/O: a seek finds its block with one binary search over the last keys,
// and a probe at or below the found block's first key resolves without
// loading anything. Within a block, uint64 keys are delta/varint encoded (other
// keys are key-codec bytes), each value is one encoding of the store's
// value codec whatever the arrangement's in-memory layout, and offset
// arrays store per-group counts as varints: the batch payload a WAL batch
// record holds too. The index keeps a column-width
// byte, which must be 0. Every frame is CRC32-C checked via the
// wal framing helpers, and every count is bounded and cross-checked against
// the index totals on decode, so arbitrary bytes yield either a valid batch
// or a typed *CorruptError — never a panic, never silently wrong counts.
//
// # Writing
//
// One encoder writes every file. It takes a run's keys in order, in as many
// batches as the caller likes, closes a block at the first key boundary at
// or past BlockUpdates update triples (DefaultBlockUpdates, 256: a point
// lookup decodes ≈ 5 KiB), and encodes each block's frame the moment it
// closes into one 64 KiB write buffer, so the file sees a write per 64 KiB,
// not one per block. It keeps only the index — totals, the MinTimes
// antichain folded block by block, per-block counts, locations and first
// and last keys — and at the end writes the index, flushes the buffer,
// writes the header at offset 0, then syncs, renames name.tmp into place
// and syncs the directory. Spill feeds it a whole batch; a streaming merge feeds it one
// block at a time through the core.RunWriter NewRun returns, so a merge
// bound for disk never holds its output whole. The file is created by the
// first block.
//
// # Decoding
//
// A block's payload is the batch payload of package wal, the one encoding
// of a sealed batch on disk: a WAL batch record holds a whole batch in it.
// One kernel, wal.BatchCodec.DecodePayload, decodes every block and every
// WAL batch record in a single pass, appending keys, offsets, values and
// updates straight into their destination columns: a fresh block-local
// core.Batch — the one block decode, which the read cache calls for
// cursors and Segment calls uncached for merges — or the whole run's
// columns, each block continuing the offsets of the one before, when
// Unspill materializes a run. The block reader adds what only a file
// knows: the order of codec-encoded keys (core.Funcs) and each block's
// first and last key against its index entry. Columns are allocated once
// at exact size from the index counts. That is safe because opening a
// file rejects any block claiming more updates than its frame length can
// hold at 10 bytes each (a depth byte, one coordinate, one diff varint;
// wal.CheckCounts, which bounds a WAL record's counts the same way), so no
// allocation exceeds a small multiple of the file. Times are read in place
// at the file's depth without allocating, and the same pass folds them
// into the run's minimal-time antichain, which must equal the index's
// stored MinTimes. Values decode row-major; a columnar arrangement merges
// them through ValStore.AppendRange's mixed-layout path. Decoding a run
// allocates a fixed number of objects whatever its length.
//
// The Store wires the format to the spine: Spill writes a batch as a block
// file, NewRun writes a merge's output, Segment feeds a merge one block of a
// cold input at a time, Unspill re-materializes a whole run (for imports,
// restore and probes; merges never call it), Retire releases a merged-away
// run — immediately, or onto a dead list until the next checkpoint stops
// referencing it (Manifest mode) — and OpenRef reopens a run named by a
// wal.BlockRef manifest record on recovery. A trace cursor reads a spilled
// run as its blocks: it keeps the block it is in, and a seek past it
// searches the remaining blocks' last keys. Blocks a cursor loads are shared
// through a small clock-style resident cache, which meters each block by
// core.Batch.ApproxBytes, as the spine's resident budget does. Like spines,
// a Store is worker-local: no locking.
package block
