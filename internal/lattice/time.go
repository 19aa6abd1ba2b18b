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
//
// # Representation
//
// A Time is two words, 16 bytes, because every stored, exchanged and decoded
// update carries one. The first word is the epoch, a full 64 bits. The
// second holds depth−1 in its top two bits and the loop counters below them,
// outermost first, each in a field of fixed width:
//
//	depth 1: no counter (the word is zero)
//	depth 2: one 62-bit counter
//	depth 3: two 31-bit counters
//	depth 4: three 20-bit counters
//
// Outermost-first packing makes the word pair, compared lexicographically,
// the lexicographic order of the coordinates, so TotalLess is two word
// compares; at depth 1 and 2 LessEqual, Join and Meet are word operations
// too. A loop counter that does not fit its depth's field panics, as depth
// past MaxDepth does: Ts or FromCoords given one, Enter when a counter is too
// wide for the narrower fields of the deeper scope, and Step past a field's
// maximum. Decoders check MaxLoopCoord first and report a typed error.
package lattice

import (
	"cmp"
	"fmt"
	"strings"
)

// MaxDepth is the maximum nesting depth of a Time: one epoch coordinate plus
// up to three nested loop counters. The paper's most deeply nested example
// (strongly connected components) needs an epoch plus two loop counters.
const MaxDepth = 4

// depthShift places depth−1 in the top two bits of Time.in.
const depthShift = 62

// fieldBits is the width of each loop-counter field, by counter count
// (depth−1): the 62 bits below the depth split evenly, rounded down.
var fieldBits = [MaxDepth]uint{0, 62, 31, 20}

// Time is a partially ordered logical timestamp. The zero value is the
// minimum time of the outermost (depth 1) region. Time is a comparable value
// type, usable directly as a map key.
type Time struct {
	e  uint64 // coordinate 0, the epoch
	in uint64 // depth−1 in the top two bits, then the loop counters, outermost first
}

// MaxLoopCoord returns the largest loop counter a time of the given depth
// holds (0 at depth 1, which has none).
func MaxLoopCoord(depth int) uint64 {
	if depth < 1 || depth > MaxDepth {
		panic("lattice: MaxLoopCoord depth out of range")
	}
	return 1<<fieldBits[depth-1] - 1
}

// Ts constructs a Time from its coordinates. Ts() is the minimum depth-1 time.
func Ts(coords ...uint64) Time {
	if len(coords) == 0 {
		return Time{}
	}
	if len(coords) > MaxDepth {
		panic(fmt.Sprintf("lattice: depth %d exceeds MaxDepth %d", len(coords), MaxDepth))
	}
	var c [MaxDepth]uint64
	copy(c[:], coords)
	return FromCoords(len(coords), c)
}

// FromCoords constructs the depth-coordinate Time whose coordinates are the
// first depth entries of c (the rest are ignored): Ts's non-variadic form for decoders that read
// coordinates into a fixed array, cheap enough to inline into a per-update
// loop. A loop coordinate above MaxLoopCoord(depth) panics.
func FromCoords(depth int, c [MaxDepth]uint64) Time {
	n := depth - 1
	if uint(n) >= MaxDepth {
		panic("lattice: FromCoords depth out of range")
	}
	w := fieldBits[n]
	in, wide := uint64(n)<<depthShift, uint64(0)
	for i := 1; i <= n; i++ {
		wide |= c[i] >> w
		in |= c[i] << (uint(n-i) * w)
	}
	if wide != 0 {
		panic(msgWide)
	}
	return Time{e: c[0], in: in}
}

const msgWide = "lattice: loop coordinate exceeds its depth's field (MaxLoopCoord)"

// loops returns t's loop-counter count (depth−1), their field width and the
// mask of one field.
func (t Time) loops() (n int, w uint, mask uint64) {
	n = int(t.in >> depthShift)
	w = fieldBits[n]
	return n, w, 1<<w - 1
}

// coords unpacks t into a fixed array, zero past its depth.
func (t Time) coords() [MaxDepth]uint64 {
	c := [MaxDepth]uint64{t.e}
	n, w, mask := t.loops()
	for i := 1; i <= n; i++ {
		c[i] = t.in >> (uint(n-i) * w) & mask
	}
	return c
}

// Depth reports the number of coordinates in t (at least 1).
func (t Time) Depth() int { return int(t.in>>depthShift) + 1 }

// Coord returns coordinate i of t.
func (t Time) Coord(i int) uint64 {
	if i < 0 || i >= t.Depth() {
		panic(fmt.Sprintf("lattice: coord %d of depth-%d time", i, t.Depth()))
	}
	return t.coords()[i]
}

// Epoch returns coordinate 0, the input epoch.
func (t Time) Epoch() uint64 { return t.e }

func (t Time) checkDepth(o Time) {
	if (t.in^o.in)>>depthShift != 0 {
		panic(fmt.Sprintf("lattice: comparing times of depth %d and %d", t.Depth(), o.Depth()))
	}
}

// wordOrdered reports whether t and o have one depth with at most one loop
// counter, so that the product order on them is the order of each word
// (depth 1 or 2). Other pairs take the field-wise path, which also panics on
// a depth mismatch.
func wordOrdered(t, o Time) bool {
	return t.in>>depthShift == o.in>>depthShift && t.in < 2<<depthShift
}

// LessEqual reports whether t ≤ o in the product partial order.
func (t Time) LessEqual(o Time) bool {
	if !wordOrdered(t, o) {
		return fieldsLessEqual(t, o)
	}
	return t.e <= o.e && t.in <= o.in
}

func fieldsLessEqual(t, o Time) bool {
	t.checkDepth(o)
	a, b := t.coords(), o.coords()
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Less reports whether t ≤ o and t ≠ o.
func (t Time) Less(o Time) bool { return t != o && t.LessEqual(o) }

// Join returns the least upper bound (coordinate-wise max) of t and o.
func (t Time) Join(o Time) Time {
	if !wordOrdered(t, o) {
		return fieldsJoin(t, o, true)
	}
	return Time{e: max(t.e, o.e), in: max(t.in, o.in)}
}

// Meet returns the greatest lower bound (coordinate-wise min) of t and o.
func (t Time) Meet(o Time) Time {
	if !wordOrdered(t, o) {
		return fieldsJoin(t, o, false)
	}
	return Time{e: min(t.e, o.e), in: min(t.in, o.in)}
}

// fieldsJoin is Join (join true) or Meet for times of any depth.
func fieldsJoin(t, o Time, join bool) Time {
	t.checkDepth(o)
	a, b := t.coords(), o.coords()
	for i := range a {
		if join {
			a[i] = max(a[i], b[i])
		} else {
			a[i] = min(a[i], b[i])
		}
	}
	return FromCoords(t.Depth(), a)
}

// TotalLess is a total order (lexicographic) that linearly extends the
// partial order; it is used to sort updates within batches.
func (t Time) TotalLess(o Time) bool {
	t.checkDepth(o)
	return t.e < o.e || t.e == o.e && t.in < o.in
}

// TotalCmp three-way compares t and o in TotalLess's order: negative when
// t orders first, zero when they are equal, positive otherwise.
func (t Time) TotalCmp(o Time) int {
	t.checkDepth(o)
	if c := cmp.Compare(t.e, o.e); c != 0 {
		return c
	}
	return cmp.Compare(t.in, o.in)
}

// Coords returns t's coordinates in a fixed array, zero past its depth:
// FromCoords' inverse, unpacking every loop counter in one pass.
func (t Time) Coords() [MaxDepth]uint64 { return t.coords() }

// Enter returns t extended with a new innermost loop coordinate of 0,
// entering an iteration scope. The deeper scope's fields are narrower, so a
// loop coordinate of t too wide for them panics.
func (t Time) Enter() Time {
	if t.Depth() >= MaxDepth {
		panic("lattice: Enter would exceed MaxDepth")
	}
	return FromCoords(t.Depth()+1, t.coords())
}

// Leave returns t with its innermost loop coordinate removed, leaving an
// iteration scope.
func (t Time) Leave() Time {
	if t.Depth() == 1 {
		panic("lattice: Leave on depth-1 time")
	}
	return FromCoords(t.Depth()-1, t.coords())
}

// Step returns t with its innermost coordinate incremented by one: the
// feedback summary of an iteration scope. Stepping a loop counter past
// MaxLoopCoord panics.
func (t Time) Step() Time {
	n, _, mask := t.loops()
	if n == 0 {
		t.e++
		return t
	}
	if t.in&mask == mask {
		panic(msgWide)
	}
	t.in++
	return t
}

// String renders t as (c0, c1, ...).
func (t Time) String() string {
	var b strings.Builder
	b.WriteByte('(')
	c := t.coords()
	for i := 0; i < t.Depth(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c[i])
	}
	b.WriteByte(')')
	return b.String()
}
