// Package core implements shared arrangements, the paper's primary
// contribution: the arrange operator, immutable indexed batches of update
// triples, LSM-style multiversioned traces with amortized (fueled) merging
// and frontier-relative consolidation, read handles with logical and
// physical compaction frontiers, and cross-dataflow import of traces within
// a worker.
package core

import "repro/internal/lattice"

// Diff is the commutative group of update multiplicities ("often the
// integers", per the paper).
type Diff = int64

// TimeDiff is one (time, diff) entry in a value's history.
type TimeDiff struct {
	Time lattice.Time
	Diff Diff
}

// Update is one differential update triple, with the data split into its
// (key, value) structure as required by data-parallel operators.
type Update[K, V any] struct {
	Key  K
	Val  V
	Time lattice.Time
	Diff Diff
}

// Unit is the value type of key-only collections (the paper's second,
// simplified batch variant for data that is just keys).
type Unit = struct{}

// StampAt returns a copy of upds with every time set to t. Senders hand
// slices to the runtime and must not retain or mutate them afterwards;
// stamping into a copy keeps the caller's slice untouched.
func StampAt[K, V any](upds []Update[K, V], t lattice.Time) []Update[K, V] {
	stamped := make([]Update[K, V], len(upds))
	for i, u := range upds {
		u.Time = t
		stamped[i] = u
	}
	return stamped
}

// Funcs bundles the ordering and hashing capabilities a key/value pair needs
// to be arranged: Go has no Ord/Hash traits, so these are explicit. LessK
// and LessV must be strict weak orders; HashK drives worker routing and must
// distribute well.
//
// Funcs built by Ordered or OrderedKey also carry kernels: the per-tuple
// loops of sealing and merging, compiled for the concrete key and value
// types so that they compare inline instead of calling LessK and LessV per
// comparison (see kernels.go). Any other Funcs, or one whose LessK or LessV
// has been replaced, runs the same loops through the closures.
type Funcs[K, V any] struct {
	LessK func(a, b K) bool
	LessV func(a, b V) bool
	HashK func(K) uint64

	ord *ordered[K, V] // set by Ordered and OrderedKey
}

// EqK reports key equality, derived from the strict order.
func (f Funcs[K, V]) EqK(a, b K) bool { return !f.LessK(a, b) && !f.LessK(b, a) }

// EqV reports value equality, derived from the strict order.
func (f Funcs[K, V]) EqV(a, b V) bool { return !f.LessV(a, b) && !f.LessV(b, a) }

// Mix64 is a 64-bit finalizer (splitmix64) used to turn integer keys into
// well-distributed hashes.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u64Funcs and u64KeyFuncs are made once: every U64 and U64Key shares
// their kernels.
var (
	u64Funcs    = Ordered[uint64, uint64](Mix64)
	u64KeyFuncs = OrderedKey[uint64](Mix64)
)

// U64 returns Funcs for collections keyed and valued by uint64.
func U64() Funcs[uint64, uint64] { return u64Funcs }

// U64Key returns Funcs for key-only collections of uint64.
func U64Key() Funcs[uint64, Unit] { return u64KeyFuncs }
