// Package wal persists shared arrangements. Sealed batches are immutable and
// self-describing (lower/upper/since frontiers), which makes them the natural
// unit of an append-only log: the arrange operator appends each batch to a
// per-worker shard log as it enters the spine, compaction-frontier advances
// are logged alongside, and a restarted server rebuilds every trace directly
// from the logged batches — no source replay — resuming epoch advancement
// from the logged frontier.
//
// On-disk layout (one directory per arrangement, one subdirectory per worker
// shard):
//
//	<data-dir>/<arrangement>/shard-<worker>/gen-<n>.wal
//
// Each shard log is a sequence of generations. Appends extend the highest
// generation; a checkpoint writes generation n+1 — the trace's current run
// chain, as the spine's merges have left it — to a temp file, atomically
// renames it into place, and deletes generation n, so superseded runs are
// discarded exactly the way an LSM manifest drops merged-away sorted runs.
// Recovery replays only the highest complete generation (a crash
// mid-checkpoint leaves at worst a *.tmp file, which is ignored).
//
// Syncing: appends are single unbuffered writes, which survive process
// death; Options.Fsync extends durability to machine crashes. With
// Options.Commit set to a GroupCommitter, appends mark their log dirty and
// the shared committer syncs every dirty log once per interval — group
// commit — bounding data-at-risk to one interval while amortising the sync
// cost across epochs and shards.
//
// Record framing is length-prefixed and CRC-checksummed:
//
//	u32 payload length | u32 CRC32-C(payload) | payload
//	payload = u8 kind | body      (kind 1 = batch, kind 2 = since,
//	                               kind 3 = block reference)
//
// Kind 3 records let a generation name the runs of a disk-tiered trace: a
// spilled run's columns already live in a CRC-framed block file (see
// internal/block), so the checkpoint references it by name instead of
// rewriting it into the log.
//
// A torn tail — the expected artifact of a crash mid-append — fails the
// length or CRC check and is truncated away, recovering the longest valid
// prefix. CRC-valid records that fail semantic validation (unknown kind,
// undecodable body, a batch that breaks the lower/upper chain) are software
// corruption, not crash artifacts, and replay fails with a *CorruptError
// rather than guessing.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record kinds.
const (
	recBatch    byte = 1 // one sealed batch or resident run
	recSince    byte = 2 // a compaction-frontier advance
	recBlockRef byte = 3 // a spilled run, referenced by block-file name
)

// maxRecordLen bounds a single record's payload; longer length prefixes are
// treated as frame corruption.
const maxRecordLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a semantically invalid log record: the frame and
// checksum were intact, but the contents are not a valid log — a software or
// storage fault, distinguished from the silently truncated torn tail a crash
// legitimately leaves behind.
type CorruptError struct {
	Path   string // file path, when known
	Offset int64  // byte offset of the offending record
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// appendRecord frames payload onto dst: length, checksum, bytes.
func appendRecord(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scanRecords iterates the framed records of data, invoking f with each
// validated payload. It stops at the first frame that fails the length or
// CRC check — a torn tail after a crash is indistinguishable from trailing
// garbage, so everything from the first bad frame on is discarded — and
// returns the byte length of the valid prefix plus whether anything was
// discarded. An error from f aborts the scan and is returned as-is.
func scanRecords(data []byte, f func(off int64, payload []byte) error) (int, bool, error) {
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			return off, true, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordLen || n > len(data)-off-8 {
			return off, true, nil
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return off, true, nil
		}
		if err := f(int64(off), payload); err != nil {
			return off, true, err
		}
		off += 8 + n
	}
	return off, false, nil
}
