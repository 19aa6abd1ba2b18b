package wal

import (
	"encoding/binary"
	"errors"

	"repro/internal/core"
)

// Codec serializes one key or value type. Go has no serialization trait, so
// — exactly as core.Funcs makes ordering and hashing explicit — a durable
// arrangement names its key and value codecs explicitly. Encodings must be
// self-delimiting (Read knows where the value ends).
type Codec[T any] interface {
	// Append encodes v onto dst and returns the extended slice.
	Append(dst []byte, v T) []byte
	// Read decodes one value from the front of src, returning the value and
	// the number of bytes consumed. It must never panic on short or
	// malformed input.
	Read(src []byte) (T, int, error)
}

// errShortValue reports a value encoding extending past the record.
var errShortValue = errors.New("value extends past record end")

type u64Codec struct{}

func (u64Codec) Append(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func (u64Codec) Read(src []byte) (uint64, int, error) {
	if len(src) < 8 {
		return 0, 0, errShortValue
	}
	return binary.LittleEndian.Uint64(src), 8, nil
}

// U64Codec returns the fixed-width little-endian codec for uint64.
func U64Codec() Codec[uint64] { return u64Codec{} }

type i64Codec struct{}

func (i64Codec) Append(dst []byte, v int64) []byte {
	return u64Codec{}.Append(dst, uint64(v))
}

func (i64Codec) Read(src []byte) (int64, int, error) {
	u, n, err := u64Codec{}.Read(src)
	return int64(u), n, err
}

// I64Codec returns the fixed-width little-endian codec for int64.
func I64Codec() Codec[int64] { return i64Codec{} }

type unitCodec struct{}

func (unitCodec) Append(dst []byte, _ core.Unit) []byte { return dst }

func (unitCodec) Read([]byte) (core.Unit, int, error) { return core.Unit{}, 0, nil }

// UnitCodec returns the zero-width codec for key-only collections.
func UnitCodec() Codec[core.Unit] { return unitCodec{} }
