package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/lattice"
)

// Exported wire helpers. The shard-log record framing (u32 length, u32
// CRC32-C, payload) and the per-type payload encodings are exactly what a
// network transport needs: a result delta on the wire is the same artifact a
// sealed batch is on disk. internal/net reuses them through this surface
// instead of inventing a second framing.

// FrameError reports a damaged frame read from a stream: a length prefix
// beyond the negotiated maximum, or a payload failing its checksum. Unlike a
// torn log tail — which recovery silently truncates — a damaged network
// frame is connection-fatal: there is no later valid prefix to resume from.
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "wal: bad frame: " + e.Reason }

// AppendRecord frames payload onto dst exactly as the shard log does:
// length, CRC32-C checksum, bytes.
func AppendRecord(dst, payload []byte) []byte {
	return appendRecord(dst, payload)
}

// OpenRecord appends a zeroed frame header and the kind byte onto dst, for
// a payload encoded in place behind them; SealRecord then fills the header
// in — the length and checksum of frame[8:] — so a record is framed
// without copying its payload.
func OpenRecord(dst []byte, kind byte) []byte { return openRecord(dst, kind) }

// SealRecord fills in the header OpenRecord reserved at the front of frame.
func SealRecord(frame []byte) { sealRecord(frame) }

// ReadRecord reads one framed record from r, verifying length and checksum,
// and returns the payload. io.EOF at a frame boundary is returned as-is
// (clean end of stream); a short header or payload becomes
// io.ErrUnexpectedEOF; a length beyond maxLen or a checksum mismatch
// becomes a *FrameError. The returned slice is freshly allocated.
func ReadRecord(r io.Reader, maxLen uint32) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF at the boundary is the clean-close signal
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxLen {
		return nil, &FrameError{Reason: fmt.Sprintf("record length %d exceeds limit %d", n, maxLen)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, &FrameError{Reason: "payload checksum mismatch"}
	}
	return payload, nil
}

// SplitRecord parses one framed record from the front of data, verifying
// length and checksum, and returns the payload plus the remaining bytes.
// The payload aliases data (no copy). A short header/payload, an oversized
// length, or a checksum mismatch returns a *FrameError — unlike log replay,
// a caller of SplitRecord (e.g. the block-file decoder) reads an artifact
// that was written atomically, so damage anywhere is corruption, not a torn
// tail.
func SplitRecord(data []byte, maxLen uint32) (payload, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, &FrameError{Reason: fmt.Sprintf("short record header: %d bytes", len(data))}
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n > maxLen {
		return nil, nil, &FrameError{Reason: fmt.Sprintf("record length %d exceeds limit %d", n, maxLen)}
	}
	if uint64(n) > uint64(len(data)-8) {
		return nil, nil, &FrameError{Reason: fmt.Sprintf("record length %d exceeds remaining %d bytes", n, len(data)-8)}
	}
	payload = data[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, nil, &FrameError{Reason: "payload checksum mismatch"}
	}
	return payload, data[8+n:], nil
}

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendString appends a u32 length prefix followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendZigzag appends a signed varint, zigzag-mapped so that a small
// magnitude of either sign takes one byte.
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// AppendTime appends a logical time: its depth, then its coordinates.
func AppendTime(dst []byte, t lattice.Time) []byte {
	depth, c := t.Depth(), t.Coords()
	dst = append(dst, byte(depth))
	for _, x := range c[:depth] {
		dst = AppendU64(dst, x)
	}
	return dst
}

// AppendFrontier appends an antichain in sorted order (deterministic bytes
// for identical frontiers, which replay idempotence relies on).
func AppendFrontier(dst []byte, f lattice.Frontier) []byte {
	els := f.Sorted()
	dst = AppendU32(dst, uint32(len(els)))
	for _, t := range els {
		dst = AppendTime(dst, t)
	}
	return dst
}

// Dec is a bounds-checked reader over one record payload, the decode-side
// counterpart of the Append helpers: the shard log, block files and the wire
// decode through it. Every method returns an error instead of panicking on
// short or malformed input, so a decoder built on it is safe against
// adversarial bytes.
type Dec struct {
	buf []byte
	off int
}

// NewDec wraps a payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

func (d *Dec) fail(format string, args ...any) error {
	return fmt.Errorf("at payload byte %d: %s", d.off, fmt.Sprintf(format, args...))
}

// U8 reads one byte.
func (d *Dec) U8() (byte, error) {
	if d.Remaining() < 1 {
		return 0, d.fail("truncated u8")
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, d.fail("truncated u32")
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, d.fail("truncated u64")
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// String reads a u32-length-prefixed string, bounding the length against the
// remaining payload.
func (d *Dec) String() (string, error) {
	n, err := d.U32()
	if err != nil {
		return "", err
	}
	// Compare in uint64: on 32-bit platforms int(n) could wrap negative and
	// slip past the bound into a slice-bounds panic.
	if uint64(n) > uint64(d.Remaining()) {
		return "", d.fail("string of %d bytes exceeds record", n)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.off += n
	return v, nil
}

// Zigzag reads a signed varint written by AppendZigzag.
func (d *Dec) Zigzag() (int64, error) {
	u, err := d.Uvarint()
	return zag(u), err
}

// zag undoes AppendZigzag's mapping of a signed value onto a uvarint.
func zag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Time reads a logical time into a fixed-size array: a slice made at the
// decoded depth would escape to the heap once per time read. A loop
// coordinate too wide for its depth's field is a decode error.
func (d *Dec) Time() (lattice.Time, error) {
	depth, err := d.U8()
	if err != nil {
		return lattice.Time{}, err
	}
	if depth < 1 || int(depth) > lattice.MaxDepth {
		return lattice.Time{}, d.fail("time depth %d out of range", depth)
	}
	var coords [lattice.MaxDepth]uint64
	for i := 0; i < int(depth); i++ {
		if coords[i], err = d.U64(); err != nil {
			return lattice.Time{}, err
		}
		if i > 0 && coords[i] > lattice.MaxLoopCoord(int(depth)) {
			return lattice.Time{}, d.fail("time coordinate %d = %d too wide for depth %d", i, coords[i], depth)
		}
	}
	return lattice.FromCoords(int(depth), coords), nil
}

// Frontier reads an antichain.
func (d *Dec) Frontier() (lattice.Frontier, error) {
	n, err := d.U32()
	if err != nil {
		return lattice.Frontier{}, err
	}
	if n > maxFrontierElems || int(n)*9 > d.Remaining() {
		return lattice.Frontier{}, d.fail("frontier of %d elements exceeds record", n)
	}
	var f lattice.Frontier
	for i := 0; i < int(n); i++ {
		t, err := d.Time()
		if err != nil {
			return lattice.Frontier{}, err
		}
		f.Insert(t)
	}
	return f, nil
}

// Count reads an element count, bounding it against the global cap and the
// remaining payload, so a corrupt count cannot drive a huge allocation or a
// spinning decode loop. The byte bound holds for every list its callers
// read: each element, or a later entry anchoring it, takes at least a byte
// of the same payload, so a count exceeding the remaining length is
// corruption.
func (d *Dec) Count(what string) (int, error) {
	n, err := d.U32()
	if err != nil {
		return 0, err
	}
	if n > MaxBatchElems || int(n) > d.Remaining() {
		return 0, d.fail("%s count %d exceeds record", what, n)
	}
	return int(n), nil
}

// DecValue reads one codec-encoded value from the payload.
func DecValue[T any](d *Dec, c Codec[T]) (T, error) {
	v, n, err := c.Read(d.buf[d.off:])
	if err != nil {
		var zero T
		return zero, d.fail("value: %v", err)
	}
	d.off += n
	return v, nil
}
