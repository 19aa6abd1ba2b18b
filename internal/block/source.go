package block

import (
	"fmt"
	"os"
)

// source abstracts how a block file's bytes are reached: an mmap'd region,
// positional reads against an open file, or an in-memory image (fuzzing,
// tests). view returns n bytes at off; the slice may alias an underlying
// mapping and is only valid until close.
type source interface {
	view(off, n int64) ([]byte, error)
	close() error
}

// memSource serves a resident image. Tests' in-memory decodes and mmap both
// land here:
// an mmap'd file is just a memSource whose bytes the kernel pages in.
type memSource struct {
	data    []byte
	unmap   func() error
	srcName string
}

func (m memSource) view(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > int64(len(m.data)) || n > int64(len(m.data))-off {
		return nil, corrupt(off, "range [+%d) outside %d-byte image", n, len(m.data))
	}
	return m.data[off : off+n], nil
}

func (m memSource) close() error {
	if m.unmap != nil {
		return m.unmap()
	}
	return nil
}

// fileSource serves positional reads (pread) against an open file; each view
// allocates. The fallback when mmap is unavailable or disabled.
type fileSource struct {
	f    *os.File
	size int64
}

func (s *fileSource) view(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > s.size || n > s.size-off {
		return nil, corrupt(off, "range [+%d) outside %d-byte file", n, s.size)
	}
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("block: read %s at %d: %w", s.f.Name(), off, err)
	}
	return buf, nil
}

func (s *fileSource) close() error { return s.f.Close() }

// openSource opens path for reading, preferring mmap when asked for and
// available on this platform.
func openSource(path string, useMmap bool) (source, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	if useMmap && size > 0 {
		if data, unmap, err := mmapFile(f, size); err == nil {
			f.Close() // the mapping outlives the descriptor
			return memSource{data: data, unmap: unmap, srcName: path}, size, nil
		}
	}
	return &fileSource{f: f, size: size}, size, nil
}
