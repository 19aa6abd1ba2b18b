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
func AppendU32(dst []byte, v uint32) []byte { return appendU32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return appendU64(dst, v) }

// AppendString appends a u32 length prefix followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendTime appends a logical time (depth, then coordinates).
func AppendTime(dst []byte, t lattice.Time) []byte { return appendTime(dst, t) }

// AppendFrontier appends an antichain in sorted order.
func AppendFrontier(dst []byte, f lattice.Frontier) []byte { return appendFrontier(dst, f) }

// Dec is a bounds-checked reader over one record payload, the decode-side
// counterpart of the Append helpers. Every method returns an error instead
// of panicking on short or malformed input, so a decoder built on it is safe
// against adversarial bytes.
type Dec struct {
	c cursor
}

// NewDec wraps a payload.
func NewDec(payload []byte) *Dec { return &Dec{c: cursor{buf: payload}} }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return d.c.remaining() }

// U8 reads one byte.
func (d *Dec) U8() (byte, error) { return d.c.u8() }

// U32 reads a little-endian uint32.
func (d *Dec) U32() (uint32, error) { return d.c.u32() }

// U64 reads a little-endian uint64.
func (d *Dec) U64() (uint64, error) { return d.c.u64() }

// String reads a u32-length-prefixed string, bounding the length against the
// remaining payload.
func (d *Dec) String() (string, error) {
	n, err := d.c.u32()
	if err != nil {
		return "", err
	}
	// Compare in uint64: on 32-bit platforms int(n) could wrap negative and
	// slip past the bound into a slice-bounds panic.
	if uint64(n) > uint64(d.c.remaining()) {
		return "", d.c.fail("string of %d bytes exceeds record", n)
	}
	s := string(d.c.buf[d.c.off : d.c.off+int(n)])
	d.c.off += int(n)
	return s, nil
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.c.buf[d.c.off:])
	if n <= 0 {
		return 0, d.c.fail("bad uvarint")
	}
	d.c.off += n
	return v, nil
}

// Time reads a logical time.
func (d *Dec) Time() (lattice.Time, error) { return d.c.time() }

// Frontier reads an antichain.
func (d *Dec) Frontier() (lattice.Frontier, error) { return d.c.frontier() }

// Count reads an element count, bounding it against the remaining payload so
// a corrupt count cannot drive a huge allocation or a spinning decode loop.
func (d *Dec) Count(what string) (int, error) { return d.c.count(what) }

// DecValue reads one codec-encoded value from the payload.
func DecValue[T any](d *Dec, c Codec[T]) (T, error) {
	v, n, err := c.Read(d.c.buf[d.c.off:])
	if err != nil {
		var zero T
		return zero, d.c.fail("value: %v", err)
	}
	d.c.off += n
	return v, nil
}
