// Package lattice provides the partially ordered logical timestamps used by
// the timely and differential dataflow layers, together with antichains
// ("frontiers") over them and the frontier-relative compaction function
// rep_F(t) described in Appendix A of the paper.
//
// A Time is a product-ordered vector of up to MaxDepth unsigned coordinates.
// Coordinate 0 is the input epoch; each nested iteration scope appends one
// loop counter. Times of different depth belong to different dataflow regions
// and are never compared; mixing them is a programming error and panics.
//
// Product order over totally ordered coordinates forms a lattice: Join is the
// coordinate-wise max (least upper bound) and Meet the coordinate-wise min
// (greatest lower bound).
package lattice

import (
	"fmt"
	"strings"
)

// MaxDepth is the maximum nesting depth of a Time: one epoch coordinate plus
// up to three nested loop counters. The paper's most deeply nested example
// (strongly connected components) needs an epoch plus two loop counters.
const MaxDepth = 4

// Time is a partially ordered logical timestamp. The zero value is the
// minimum time of the outermost (depth 1) region. Time is a comparable value
// type, usable directly as a map key.
type Time struct {
	depth uint8 // 0 means depth 1 (so the zero value is valid)
	c     [MaxDepth]uint64
}

// Ts constructs a Time from its coordinates. Ts() is the minimum depth-1 time.
func Ts(coords ...uint64) Time {
	if len(coords) == 0 {
		return Time{}
	}
	if len(coords) > MaxDepth {
		panic(fmt.Sprintf("lattice: depth %d exceeds MaxDepth %d", len(coords), MaxDepth))
	}
	var t Time
	t.depth = uint8(len(coords) - 1)
	copy(t.c[:], coords)
	return t
}

// FromCoords constructs the depth-coordinate Time whose coordinates are the
// first depth entries of c: Ts's non-variadic form for decoders that read
// coordinates into a fixed array, cheap enough to inline into a per-update
// loop.
func FromCoords(depth int, c [MaxDepth]uint64) Time {
	if depth < 1 || depth > MaxDepth {
		panic("lattice: FromCoords depth out of range")
	}
	for i := depth; i < MaxDepth; i++ {
		c[i] = 0 // equal Times compare equal coordinate for coordinate
	}
	return Time{depth: uint8(depth - 1), c: c}
}

// Depth reports the number of coordinates in t (at least 1).
func (t Time) Depth() int { return int(t.depth) + 1 }

// Coord returns coordinate i of t.
func (t Time) Coord(i int) uint64 {
	if i >= t.Depth() {
		panic(fmt.Sprintf("lattice: coord %d of depth-%d time", i, t.Depth()))
	}
	return t.c[i]
}

// Epoch returns coordinate 0, the input epoch.
func (t Time) Epoch() uint64 { return t.c[0] }

func (t Time) checkDepth(o Time) {
	if t.depth != o.depth {
		panic(fmt.Sprintf("lattice: comparing times of depth %d and %d", t.Depth(), o.Depth()))
	}
}

// LessEqual reports whether t ≤ o in the product partial order.
func (t Time) LessEqual(o Time) bool {
	t.checkDepth(o)
	for i := 0; i <= int(t.depth); i++ {
		if t.c[i] > o.c[i] {
			return false
		}
	}
	return true
}

// Less reports whether t ≤ o and t ≠ o.
func (t Time) Less(o Time) bool { return t != o && t.LessEqual(o) }

// Join returns the least upper bound (coordinate-wise max) of t and o.
func (t Time) Join(o Time) Time {
	t.checkDepth(o)
	r := t
	for i := 0; i <= int(t.depth); i++ {
		if o.c[i] > r.c[i] {
			r.c[i] = o.c[i]
		}
	}
	return r
}

// Meet returns the greatest lower bound (coordinate-wise min) of t and o.
func (t Time) Meet(o Time) Time {
	t.checkDepth(o)
	r := t
	for i := 0; i <= int(t.depth); i++ {
		if o.c[i] < r.c[i] {
			r.c[i] = o.c[i]
		}
	}
	return r
}

// TotalLess is a total order (lexicographic) that linearly extends the
// partial order; it is used to sort updates within batches.
func (t Time) TotalLess(o Time) bool {
	t.checkDepth(o)
	for i := 0; i <= int(t.depth); i++ {
		if t.c[i] != o.c[i] {
			return t.c[i] < o.c[i]
		}
	}
	return false
}

// Enter returns t extended with a new innermost loop coordinate of 0,
// entering an iteration scope.
func (t Time) Enter() Time {
	if t.Depth() >= MaxDepth {
		panic("lattice: Enter would exceed MaxDepth")
	}
	r := t
	r.depth++
	r.c[r.depth] = 0
	return r
}

// Leave returns t with its innermost loop coordinate removed, leaving an
// iteration scope.
func (t Time) Leave() Time {
	if t.depth == 0 {
		panic("lattice: Leave on depth-1 time")
	}
	r := t
	r.c[r.depth] = 0
	r.depth--
	return r
}

// Step returns t with its innermost coordinate incremented by one: the
// feedback summary of an iteration scope.
func (t Time) Step() Time {
	r := t
	r.c[r.depth]++
	return r
}

// String renders t as (c0, c1, ...).
func (t Time) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i <= int(t.depth); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t.c[i])
	}
	b.WriteByte(')')
	return b.String()
}
