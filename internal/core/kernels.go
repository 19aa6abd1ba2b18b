package core

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"
)

// Kernels: the loops that keep a u64 arrangement up to date — the seal's
// sort, and the spine merge's choice of the next tuple and its builder's
// test for a new key or value — compare once or more per update, and
// through Funcs each comparison is a LessK or LessV closure call (up to
// five per pair of updates). Go instantiates generic code per GC shape and
// calls function values indirectly, so no generic loop over Funcs ever
// compares inline, as the source system's monomorphised Rust does. Ordered
// and OrderedKey therefore attach, beside the closures every other
// consumer keeps using, a kernel set compiled for keys and values of a
// cmp.Ordered type under their natural order: the same loops, with each
// comparison a machine compare and one dynamic call per loop or per
// merged tuple instead of several per comparison.
//
// The sort of (key, value) updates is its own introsort rather than
// slices.SortFunc, which calls its comparison through a function value
// with both updates copied, at about twice the cost (BenchmarkSortUpdates).
// Key-only updates keep slices.SortFunc: introsort compares values with <,
// which Unit does not have.
//
// A kernel computes exactly what the closure path computes from the same
// order (TestOrderedKernelsMatchGeneric holds the two side by side), so it
// applies only while the Funcs still describes that order: LessK and LessV
// are the constructor's own closures.

// kernels are the natural-order loops of one key and value type.
type kernels[K, V any] interface {
	// sortUpdates is SortUpdates.
	sortUpdates(upds []Update[K, V]) []Update[K, V]
	// minCursor returns the index of the valid cursor whose current
	// (key, val, time) is least, the lowest index among equals, or -1
	// when every cursor is exhausted: the spine merge's step.
	minCursor(cs []tupleCursor[K, V]) int
	// opens is batchBuilder.opens: what a merged tuple opens in bl.
	opens(bl *batchBuilder[K, V], src *Batch[K, V], ki, vi int) int
}

// ordered is what Ordered and OrderedKey attach to a Funcs: the kernels and
// the LessK and LessV closures whose order they implement.
type ordered[K, V any] struct {
	lessK func(a, b K) bool
	lessV func(a, b V) bool
	k     kernels[K, V]
}

// Ordered returns Funcs for keys and values of ordered types under their
// natural order (<), hashing keys with hashK, with kernels attached.
func Ordered[K, V cmp.Ordered](hashK func(K) uint64) Funcs[K, V] {
	o := &ordered[K, V]{
		lessK: func(a, b K) bool { return a < b },
		lessV: func(a, b V) bool { return a < b },
		k:     natural[K, V]{},
	}
	return Funcs[K, V]{LessK: o.lessK, LessV: o.lessV, HashK: hashK, ord: o}
}

// OrderedKey returns Funcs for key-only collections of an ordered key type
// under its natural order, hashing keys with hashK, with kernels attached.
func OrderedKey[K cmp.Ordered](hashK func(K) uint64) Funcs[K, Unit] {
	o := &ordered[K, Unit]{
		lessK: func(a, b K) bool { return a < b },
		lessV: func(a, b Unit) bool { return false },
		k:     naturalKey[K]{},
	}
	return Funcs[K, Unit]{LessK: o.lessK, LessV: o.lessV, HashK: hashK, ord: o}
}

// kernels returns f's kernels, or nil when the closure path must run: f
// was not built by Ordered or OrderedKey, or its LessK or LessV has since
// been replaced (a counting closure in a test, say).
func (f Funcs[K, V]) kernels() kernels[K, V] {
	if o := f.ord; o != nil && sameFunc(f.LessK, o.lessK) && sameFunc(f.LessV, o.lessV) {
		return o.k
	}
	return nil
}

// sameFunc reports whether a and b are one func value, copied. Func values
// are not comparable in Go, but each is a pointer to its closure, so
// comparing those pointers asks exactly that.
func sameFunc[T any](a, b func(x, y T) bool) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// natural is the kernel set of ordered keys and values.
type natural[K, V cmp.Ordered] struct{}

func (natural[K, V]) sortUpdates(upds []Update[K, V]) []Update[K, V] {
	introsort(upds, 2*bits.Len(uint(len(upds))))
	return coalesce(upds)
}

// coalesce is coalesceSorted with the equality inline: it merges equal
// (key, val, time) runs of sorted updates, dropping zeros, in place.
func coalesce[K, V comparable](upds []Update[K, V]) []Update[K, V] {
	out := 0
	for i := 0; i < len(upds); {
		u := upds[i]
		j := i + 1
		for ; j < len(upds) && upds[j].Key == u.Key && upds[j].Val == u.Val && upds[j].Time == u.Time; j++ {
			u.Diff += upds[j].Diff
		}
		if u.Diff != 0 {
			upds[out] = u
			out++
		}
		i = j
	}
	return upds[:out]
}

// natLess orders two updates by (key, value, time), comparing inline.
func natLess[K, V cmp.Ordered](a, b *Update[K, V]) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	return a.Time.TotalLess(b.Time)
}

// introsort sorts upds by natLess: quicksort around a median-of-three
// pivot, insertion sort below 12 updates, and heapsort once depth levels
// of partitioning are used up, which bounds the worst case at n log n.
func introsort[K, V cmp.Ordered](upds []Update[K, V], depth int) {
	for len(upds) > 12 {
		if depth == 0 {
			heapsort(upds)
			return
		}
		depth--
		// Order the first, middle and last updates, and pivot on the median.
		m, l := len(upds)/2, len(upds)-1
		if natLess(&upds[m], &upds[0]) {
			upds[m], upds[0] = upds[0], upds[m]
		}
		if natLess(&upds[l], &upds[m]) {
			upds[l], upds[m] = upds[m], upds[l]
			if natLess(&upds[m], &upds[0]) {
				upds[m], upds[0] = upds[0], upds[m]
			}
		}
		upds[0], upds[m] = upds[m], upds[0]
		p := upds[0]
		i, j := 1, l
		for {
			for i <= j && natLess(&upds[i], &p) {
				i++
			}
			for i <= j && natLess(&p, &upds[j]) {
				j--
			}
			if i >= j {
				break
			}
			upds[i], upds[j] = upds[j], upds[i]
			i++
			j--
		}
		upds[0], upds[j] = upds[j], upds[0]
		// Recurse into the smaller side and loop on the larger.
		if j < len(upds)-j {
			introsort(upds[:j], depth)
			upds = upds[j+1:]
		} else {
			introsort(upds[j+1:], depth)
			upds = upds[:j]
		}
	}
	for i := 1; i < len(upds); i++ {
		for j := i; j > 0 && natLess(&upds[j], &upds[j-1]); j-- {
			upds[j], upds[j-1] = upds[j-1], upds[j]
		}
	}
}

// heapsort is introsort's fallback.
func heapsort[K, V cmp.Ordered](upds []Update[K, V]) {
	sift := func(root, end int) {
		for {
			c := 2*root + 1
			if c >= end {
				return
			}
			if c+1 < end && natLess(&upds[c], &upds[c+1]) {
				c++
			}
			if !natLess(&upds[root], &upds[c]) {
				return
			}
			upds[root], upds[c] = upds[c], upds[root]
			root = c
		}
	}
	for i := len(upds)/2 - 1; i >= 0; i-- {
		sift(i, len(upds))
	}
	for end := len(upds) - 1; end > 0; end-- {
		upds[0], upds[end] = upds[end], upds[0]
		sift(0, end)
	}
}

func (natural[K, V]) minCursor(cs []tupleCursor[K, V]) int {
	min := -1
	var mc *tupleCursor[K, V]
	for i := range cs {
		c := &cs[i]
		if !c.valid() {
			continue
		}
		if mc != nil {
			k, mk := c.b.Keys[c.ki], mc.b.Keys[mc.ki]
			if k != mk {
				if k > mk {
					continue
				}
			} else if v, mv := c.b.Vals[c.vi], mc.b.Vals[mc.vi]; v != mv {
				if v > mv {
					continue
				}
			} else if !c.b.UpdTime(c.ui).TotalLess(mc.b.UpdTime(mc.ui)) {
				continue
			}
		}
		min, mc = i, c
	}
	return min
}

func (natural[K, V]) opens(bl *batchBuilder[K, V], src *Batch[K, V], ki, vi int) int {
	switch {
	case !bl.openKey || bl.b.Keys[len(bl.b.Keys)-1] != src.Keys[ki]:
		return 2
	case bl.openVal && bl.srcVals[bl.srcVi] != src.Vals[vi]:
		return 1
	}
	return 0
}

// naturalKey is the kernel set of key-only collections of an ordered key:
// every value is the one Unit, so updates order by key and then time.
type naturalKey[K cmp.Ordered] struct{}

func (naturalKey[K]) sortUpdates(upds []Update[K, Unit]) []Update[K, Unit] {
	slices.SortFunc(upds, func(a, b Update[K, Unit]) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return a.Time.TotalCmp(b.Time)
	})
	return coalesce(upds)
}

func (naturalKey[K]) minCursor(cs []tupleCursor[K, Unit]) int {
	min := -1
	var mc *tupleCursor[K, Unit]
	for i := range cs {
		c := &cs[i]
		if !c.valid() {
			continue
		}
		if mc != nil {
			if k, mk := c.b.Keys[c.ki], mc.b.Keys[mc.ki]; k != mk {
				if k > mk {
					continue
				}
			} else if !c.b.UpdTime(c.ui).TotalLess(mc.b.UpdTime(mc.ui)) {
				continue
			}
		}
		min, mc = i, c
	}
	return min
}

func (naturalKey[K]) opens(bl *batchBuilder[K, Unit], src *Batch[K, Unit], ki, _ int) int {
	if !bl.openKey || bl.b.Keys[len(bl.b.Keys)-1] != src.Keys[ki] {
		return 2
	}
	return 0
}
