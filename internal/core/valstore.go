package core

import "slices"

// ValStore is the pluggable value-storage layer of a batch: one logical
// sequence of values in one of two physical layouts.
//
// The zero value is the row-major layout — a plain []V, the zero-cost default
// every existing call site keeps. Types that implement Columnar can instead
// be stored column-major as parallel []uint64 word columns (one per field),
// which batch merges bulk-copy column-by-column and comparisons read
// field-by-field with early exit, instead of memmoving a wide struct per
// touched value. Which layout a batch uses is decided by Funcs.NewStore at
// construction time; readers are layout-agnostic.
//
// Stores are single-goroutine, like the spines that own them: batches never
// cross worker boundaries.
type ValStore[V any] struct {
	rows []V
	col  *colLayout[V]
}

// Columnar opts a value type into column-major batch storage. Implementations
// are explicit per-field code — no reflection: the type says how many uint64
// word columns it occupies, how to scatter a value into them, how to gather
// one back, and how to order two stored values without materializing either.
//
// AppendWords and FromWords must round-trip exactly, and CmpCols must agree
// with the Funcs.LessV the type is arranged under (the columnar/slice oracle
// tests check both).
type Columnar[V any] interface {
	// ColWidth returns the fixed number of uint64 columns of the type.
	ColWidth() int
	// AppendWords appends this value's fields, one word per column in column
	// order, onto dst and returns the extended slice.
	AppendWords(dst []uint64) []uint64
	// FromWords materializes a value from one word per column.
	FromWords(words []uint64) V
	// CmpCols three-way compares value i of cols a against value j of cols b
	// (negative, zero, positive), reading only the columns it needs. A
	// three-way result matters: merges distinguish <, =, > per tuple pair,
	// and one column scan answering all three halves the compare work of a
	// less-based double probe.
	CmpCols(a [][]uint64, i int, b [][]uint64, j int) int
}

// colSpec is the per-type vtable a columnar layout dispatches through; one
// spec is built per NewColumnarStore call and shared by every store it makes.
type colSpec[V any] struct {
	width int
	push  func(v V, dst []uint64) []uint64
	read  func(words []uint64) V
	cmp   func(a [][]uint64, i int, b [][]uint64, j int) int
}

// colLayout is the column-major layout: width parallel word columns of equal
// length n, plus a scatter/gather scratch.
type colLayout[V any] struct {
	spec    *colSpec[V]
	cols    [][]uint64
	n       int
	scratch []uint64
}

// NewColumnarStore returns a store factory for a Columnar value type,
// suitable for Funcs.NewStore.
func NewColumnarStore[V Columnar[V]]() func(capHint int) ValStore[V] {
	var z V
	spec := &colSpec[V]{
		width: z.ColWidth(),
		push:  func(v V, dst []uint64) []uint64 { return v.AppendWords(dst) },
		read:  z.FromWords,
		cmp:   z.CmpCols,
	}
	return func(capHint int) ValStore[V] {
		c := &colLayout[V]{spec: spec, cols: make([][]uint64, spec.width)}
		if capHint > 0 {
			// Carve all columns from one arena: a single allocation, and a
			// hinted builder (merges size by their input) never reallocates.
			// A column that outgrows its carve falls out via ordinary append.
			arena := make([]uint64, spec.width*capHint)
			for f := range c.cols {
				c.cols[f] = arena[f*capHint : f*capHint : (f+1)*capHint]
			}
		}
		return ValStore[V]{col: c}
	}
}

// Len returns the number of stored values.
func (s *ValStore[V]) Len() int {
	if s.col != nil {
		return s.col.n
	}
	return len(s.rows)
}

// Columns exposes the word columns of a columnar store (nil for the row
// layout). Read-only: ApproxBytes meters them.
func (s *ValStore[V]) Columns() [][]uint64 {
	if s.col == nil {
		return nil
	}
	return s.col.cols
}

// Rows exposes the values of a row-layout store (nil for the columnar
// layout), for a codec that reads a fixed-width type in place. Read-only.
func (s *ValStore[V]) Rows() []V {
	if s.col != nil {
		return nil
	}
	return s.rows
}

// Extend appends n zero values to a row-layout store and returns them, for
// a decoder to fill in place. It panics on a columnar store.
func (s *ValStore[V]) Extend(n int) []V {
	if s.col != nil {
		panic("core: Extend on a columnar value store")
	}
	l := len(s.rows)
	s.rows = slices.Grow(s.rows, n)[:l+n]
	return s.rows[l:]
}

// At materializes value i. For the row layout this is a slice index; for the
// columnar layout it gathers one word per column — callers on hot paths
// should prefer Less/SeekGE (which never materialize) and hoist At to once
// per value group.
func (s *ValStore[V]) At(i int) V {
	if c := s.col; c != nil {
		c.scratch = c.scratch[:0]
		for f := 0; f < c.spec.width; f++ {
			c.scratch = append(c.scratch, c.cols[f][i])
		}
		return c.spec.read(c.scratch)
	}
	return s.rows[i]
}

// Append adds one value.
func (s *ValStore[V]) Append(v V) {
	if c := s.col; c != nil {
		c.scratch = c.spec.push(v, c.scratch[:0])
		for f, w := range c.scratch {
			c.cols[f] = append(c.cols[f], w)
		}
		c.n++
		return
	}
	s.rows = append(s.rows, v)
}

// AppendRange bulk-copies src[lo:hi) onto the store: a single memmove per
// column when both stores are columnar, a single slice append when both are
// rows, and a materializing fallback across mixed layouts.
func (s *ValStore[V]) AppendRange(src *ValStore[V], lo, hi int) {
	if hi <= lo {
		return
	}
	if c := s.col; c != nil && src.col != nil && src.col.spec.width == c.spec.width {
		if hi-lo == 1 {
			// Single-value fast path: a plain element append per column
			// (the slice-splat form costs a runtime memmove call per column).
			for f := range c.cols {
				c.cols[f] = append(c.cols[f], src.col.cols[f][lo])
			}
			c.n++
			return
		}
		for f := range c.cols {
			c.cols[f] = append(c.cols[f], src.col.cols[f][lo:hi]...)
		}
		c.n += hi - lo
		return
	}
	if s.col == nil && src.col == nil {
		if hi-lo == 1 {
			s.rows = append(s.rows, src.rows[lo]) // as above: no memmove call
			return
		}
		s.rows = append(s.rows, src.rows[lo:hi]...)
		return
	}
	for i := lo; i < hi; i++ {
		s.Append(src.At(i))
	}
}

// Reset empties the store and keeps its capacity: a streaming merge refills
// one block's columns over and over.
func (s *ValStore[V]) Reset() {
	if c := s.col; c != nil {
		for f := range c.cols {
			c.cols[f] = c.cols[f][:0]
		}
		c.n = 0
		return
	}
	s.rows = s.rows[:0]
}

// Grow reserves capacity for n further values.
func (s *ValStore[V]) Grow(n int) {
	if c := s.col; c != nil {
		for f := range c.cols {
			c.cols[f] = slices.Grow(c.cols[f], n)
		}
		return
	}
	s.rows = slices.Grow(s.rows, n)
}

// Less reports whether value i of s orders before value j of o under less.
// When both stores are columnar the comparison runs in place, reading only
// the columns needed to decide — no wide struct is materialized or copied.
func (s *ValStore[V]) Less(less func(a, b V) bool, i int, o *ValStore[V], j int) bool {
	if s.col != nil && o.col != nil {
		return s.col.spec.cmp(s.col.cols, i, o.col.cols, j) < 0
	}
	return less(s.At(i), o.At(j))
}

// Cmp three-way compares value i of s against value j of o (negative, zero,
// positive): one column scan for columnar stores where a less-based caller
// would probe twice — the merge inner loop's compare.
func (s *ValStore[V]) Cmp(less func(a, b V) bool, i int, o *ValStore[V], j int) int {
	if s.col != nil && o.col != nil {
		return s.col.spec.cmp(s.col.cols, i, o.col.cols, j)
	}
	x, y := s.At(i), o.At(j)
	if less(x, y) {
		return -1
	}
	if less(y, x) {
		return 1
	}
	return 0
}

// SeekGE returns the index of the first value ≥ v within [from, hi),
// galloping from `from` exactly like Batch.SeekKey: exponentially growing
// probes followed by a binary search of the final window, so forward-only
// cursors pay O(log distance) per seek. Columnar stores compare the probe's
// words in place instead of materializing candidates.
func (s *ValStore[V]) SeekGE(less func(a, b V) bool, v V, from, hi int) int {
	var lt func(i int) bool // store[i] < v
	if c := s.col; c != nil {
		words := c.spec.push(v, make([]uint64, 0, c.spec.width))
		probe := make([][]uint64, c.spec.width)
		for f := range probe {
			probe[f] = words[f : f+1]
		}
		lt = func(i int) bool { return c.spec.cmp(c.cols, i, probe, 0) < 0 }
	} else {
		lt = func(i int) bool { return less(s.rows[i], v) }
	}
	if from >= hi || !lt(from) {
		return from
	}
	// Invariant: store[from+bound/2] < v. Grow bound until the probe lands at
	// or beyond v (or past hi).
	bound := 1
	for from+bound < hi && lt(from+bound) {
		bound <<= 1
	}
	lo := from + bound/2 + 1
	h := from + bound + 1
	if h > hi {
		h = hi
	}
	for lo < h {
		mid := int(uint(lo+h) >> 1)
		if lt(mid) {
			lo = mid + 1
		} else {
			h = mid
		}
	}
	return lo
}
