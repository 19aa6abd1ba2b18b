package core

import "repro/internal/lattice"

// SpillStore is the cold tier of a spine: storage for sealed runs evicted
// from memory. Implemented by block.Store; core stays free of any storage
// dependency, exactly as BatchSink keeps it free of the WAL. Methods run on
// the owning worker's goroutine. A spill error is a storage failure and is
// fatal (the spine panics): continuing would silently violate the resident
// budget or lose a run.
type SpillStore[K, V any] interface {
	// Spill writes the batch to the cold tier and returns a reader serving
	// the same contents through lazy block loads.
	Spill(b *Batch[K, V]) (BatchReader[K, V], error)
	// NewRun starts a run written to the cold tier block by block: a
	// merge's output, handed over as it is produced.
	NewRun() RunWriter[K, V]
	// Segment decodes the i-th key-aligned segment (block) of the spilled
	// run r into a fresh block-local batch, bypassing any read cache: a
	// merge reads each segment once, in order. It returns nil past the last
	// segment.
	Segment(r BatchReader[K, V], i int) (*Batch[K, V], error)
	// Unspill materializes a previously spilled run back into a resident
	// batch. Merges never call it; it serves imports (and, through the
	// store's own API, restore and probes).
	Unspill(r BatchReader[K, V]) (*Batch[K, V], error)
	// Retire marks the run's on-disk artifact superseded (its contents have
	// merged into a newer run). The store decides when the file actually
	// goes away: immediately, or deferred until no checkpoint manifest
	// references it.
	Retire(r BatchReader[K, V])
}

// RunWriter writes one run into the cold tier block by block, so a merge
// whose output is bound for disk never holds that output whole.
type RunWriter[K, V any] interface {
	// BlockUpdates is the block split target: a block closes at the first
	// key boundary at or past this many updates.
	BlockUpdates() int
	// Append writes b's keys, which follow every key appended before, as
	// blocks under the split rule. The writer keeps nothing of b: its
	// columns may be reused once Append returns.
	Append(b *Batch[K, V]) error
	// Finish frames the run with its frontiers, makes it durable and
	// visible, and returns a reader over it.
	Finish(lower, upper, since lattice.Frontier) (BatchReader[K, V], error)
}

// SetSpill attaches a cold tier to the spine: maintenance evicts the oldest
// completed runs to store whenever resident bytes exceed maxResidentBytes.
// Must be set before the spine is read concurrently (worker-local, like all
// spine mutation).
func (s *Spine[K, V]) SetSpill(store SpillStore[K, V], maxResidentBytes int64) {
	s.spill = store
	s.maxResident = maxResidentBytes
}

// widenedReader wraps a cold run whose bounds were widened by absorbing an
// empty neighbour batch: the contents are untouched (and stay on disk), only
// the framing frontiers change.
type widenedReader[K, V any] struct {
	BatchReader[K, V]
	lower, upper lattice.Frontier
}

func (w *widenedReader[K, V]) Bounds() (lattice.Frontier, lattice.Frontier, lattice.Frontier) {
	_, _, since := w.BatchReader.Bounds()
	return w.lower, w.upper, since
}

// Unwrap returns the wrapped reader.
func (w *widenedReader[K, V]) Unwrap() BatchReader[K, V] { return w.BatchReader }

// UnwrapReader peels bound-widening wrappers off a cold reader, returning
// the reader the spill store originally produced (spill stores and manifest
// writers identify runs by it).
func UnwrapReader[K, V any](r BatchReader[K, V]) BatchReader[K, V] {
	for {
		w, ok := r.(interface{ Unwrap() BatchReader[K, V] })
		if !ok {
			return r
		}
		r = w.Unwrap()
	}
}

// Runs exposes the trace's runs in chain order (worker-local use only): a
// resident run is a *Batch, a spilled one the store's reader. Checkpoints
// walk them so cold runs are referenced by name in the manifest instead of
// being re-read and rewritten into the WAL.
func (a *TraceAgent[K, V]) Runs() []BatchReader[K, V] { return a.spine.Runs() }

// maybeSpill evicts the oldest completed resident runs to the cold tier
// while the spine's approximate resident bytes — completed resident runs and
// resident merge inputs; a cold merge input is read a block at a time and
// holds no run in memory — exceed the budget. Runs being merged are skipped
// (their sources are consumed imminently); empty batches are skipped
// (nothing to store). Readers holding cursors over an evicted batch are
// unaffected: batches are immutable, eviction only changes what future
// cursors navigate.
func (s *Spine[K, V]) maybeSpill() {
	if s.spill == nil {
		return
	}
	resident := int64(0)
	for i := range s.entries {
		if b := s.entries[i].batch; b != nil {
			resident += b.ApproxBytes()
		}
		if m := s.entries[i].merge; m != nil {
			for _, r := range m.runs {
				if b, ok := r.(*Batch[K, V]); ok {
					resident += b.ApproxBytes()
				}
			}
		}
	}
	for i := 0; i < len(s.entries) && resident > s.maxResident; i++ {
		b := s.entries[i].batch
		if b == nil || b.Len() == 0 {
			continue
		}
		r, err := s.spill.Spill(b)
		if err != nil {
			panic("core: spill store write: " + err.Error())
		}
		s.entries[i] = spineEntry[K, V]{cold: r}
		resident -= b.ApproxBytes()
		s.RunsSpilled++
	}
}

// visibleBatches returns the visible runs as resident batches: resident runs
// are the spine's own batches, by reference; cold runs are loaded as copies
// stamped with the reader's (possibly widened) bounds (the spine's own
// tiering is unchanged). Used by imports, which emit the history on a batch
// stream.
func (s *Spine[K, V]) visibleBatches() []*Batch[K, V] {
	readers := s.Runs()
	out := make([]*Batch[K, V], 0, len(readers))
	for _, r := range readers {
		b, ok := r.(*Batch[K, V])
		if !ok {
			var err error
			if b, err = s.spill.Unspill(r); err != nil {
				panic("core: spill store load: " + err.Error())
			}
			b.Lower, b.Upper, b.Since = r.Bounds()
		}
		out = append(out, b)
	}
	return out
}

// Residency reports what the spine holds in memory, in ApproxBytes: bytes
// sums completed resident runs, resident merge inputs, the blocks merges
// hold decoded from cold inputs and the output blocks streaming merges are
// filling; inputs counts the merge inputs in flight; block is the largest
// block a merge has decoded, written or is filling. Maintenance keeps bytes
// within the spill budget plus (inputs + 1) × block.
func (s *Spine[K, V]) Residency() (bytes int64, inputs int, block int64) {
	block = s.maxBlock
	for i := range s.entries {
		e := &s.entries[i]
		if e.batch != nil {
			bytes += e.batch.ApproxBytes()
		}
		m := e.merge
		if m == nil {
			continue
		}
		inputs += len(m.runs)
		for k, r := range m.runs {
			if b, ok := r.(*Batch[K, V]); ok {
				bytes += b.ApproxBytes()
			} else {
				bytes += m.cs[k].b.ApproxBytes()
			}
		}
		if m.bld.out != nil {
			open := m.bld.b.ApproxBytes()
			bytes += open
			block = max(block, open, m.bld.maxBlock)
		}
	}
	return bytes, inputs, block
}

// appendCold appends a restored spilled run to the spine without loading it
// (the restore path's counterpart of Append for cold runs).
func (s *Spine[K, V]) appendCold(r BatchReader[K, V]) {
	lower, upper, _ := r.Bounds()
	if !lower.Equal(s.upper) {
		panic("core: restored cold run breaks the batch chain")
	}
	s.upper = upper.Clone()
	s.entries = append(s.entries, spineEntry[K, V]{cold: r})
}
