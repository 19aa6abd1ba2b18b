package lattice

import (
	"sort"
	"strings"
)

// Frontier is an antichain of Times: a set of mutually incomparable times.
// A time t is "in advance of" a frontier F when some element of F is ≤ t;
// such times may still appear in a stream governed by F. The empty frontier
// means no further times can appear (the stream is complete).
//
// Frontier values are treated as immutable once built; mutation methods
// return receivers for chaining but operate in place, so copy with Clone
// before sharing.
type Frontier struct {
	elems []Time
}

// NewFrontier builds a frontier from the antichain of minimal elements of ts.
func NewFrontier(ts ...Time) Frontier {
	var f Frontier
	for _, t := range ts {
		f.Insert(t)
	}
	return f
}

// MinFrontier returns the frontier holding the minimum time of the given depth.
func MinFrontier(depth int) Frontier {
	return Frontier{elems: []Time{{in: uint64(depth-1) << depthShift}}}
}

// Empty reports whether f contains no elements (no times can follow).
func (f Frontier) Empty() bool { return len(f.elems) == 0 }

// Elements returns the antichain elements. The caller must not modify them.
func (f Frontier) Elements() []Time { return f.elems }

// Len returns the number of antichain elements.
func (f Frontier) Len() int { return len(f.elems) }

// LessEqual reports whether some element of f is ≤ t, i.e. t is in advance
// of f and may still be observed.
func (f Frontier) LessEqual(t Time) bool {
	for _, e := range f.elems {
		if e.LessEqual(t) {
			return true
		}
	}
	return false
}

// Insert adds t to the antichain, discarding it if dominated and removing any
// existing elements it dominates. It reports whether the frontier changed.
func (f *Frontier) Insert(t Time) bool {
	for _, e := range f.elems {
		if e.LessEqual(t) {
			return false
		}
	}
	out := f.elems[:0]
	for _, e := range f.elems {
		if !t.LessEqual(e) {
			out = append(out, e)
		}
	}
	f.elems = append(out, t)
	return true
}

// Clear empties f in place, keeping its storage for the inserts that follow:
// scratch frontiers rebuilt on a hot path (an operator's justified times, the
// progress tracker's closure) are cleared and refilled instead of reallocated.
// Only for frontiers the caller owns outright.
func (f *Frontier) Clear() { f.elems = f.elems[:0] }

// Clone returns an independent copy of f.
func (f Frontier) Clone() Frontier {
	return Frontier{elems: append([]Time(nil), f.elems...)}
}

// Equal reports whether f and o contain the same antichain (order ignored).
func (f Frontier) Equal(o Frontier) bool {
	if len(f.elems) != len(o.elems) {
		return false
	}
	for _, e := range f.elems {
		found := false
		for _, e2 := range o.elems {
			if e == e2 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Dominates reports whether every time in advance of o is in advance of f,
// i.e. f ≤ o as frontiers (f is no later than o).
func (f Frontier) Dominates(o Frontier) bool {
	for _, e := range o.elems {
		if !f.LessEqual(e) {
			return false
		}
	}
	return true
}

// Extend inserts all elements of o into f and reports whether f changed.
func (f *Frontier) Extend(o Frontier) bool {
	changed := false
	for _, e := range o.elems {
		if f.Insert(e) {
			changed = true
		}
	}
	return changed
}

// MeetAll returns the frontier of minimal elements among all pairwise meets,
// i.e. the lower bound of the two frontiers: a time is in advance of the
// result iff ... it is a conservative lower bound used to combine reader
// frontiers for compaction. For frontiers F and G it is the antichain of
// { f ∧ g : f ∈ F, g ∈ G } ∪ F ∪ G minimal elements, which is ≤ both.
func MeetAll(fs ...Frontier) Frontier {
	var out Frontier
	for _, f := range fs {
		for _, e := range f.elems {
			out.Insert(e)
		}
	}
	return out
}

// JoinFrontiers returns the least frontier at or beyond both inputs: a time
// is in advance of the result iff it is in advance of f and of o. It is the
// antichain of minimal elements of the pairwise joins. An empty frontier
// (nothing can follow) absorbs: the result is empty if either input is.
func JoinFrontiers(f, o Frontier) Frontier {
	if f.Empty() || o.Empty() {
		return Frontier{}
	}
	var out Frontier
	for _, x := range f.elems {
		for _, y := range o.elems {
			out.Insert(x.Join(y))
		}
	}
	return out
}

// Sorted returns the elements in lexicographic order (for deterministic output).
func (f Frontier) Sorted() []Time {
	out := append([]Time(nil), f.elems...)
	sort.Slice(out, func(i, j int) bool { return out[i].TotalLess(out[j]) })
	return out
}

// String renders the frontier as {t1, t2, ...}.
func (f Frontier) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range f.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte('}')
	return b.String()
}
