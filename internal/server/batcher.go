package server

import (
	"errors"
	"sync"

	"repro/internal/core"
)

// ErrBatcherClosed reports an operation against a closed Batcher.
var ErrBatcherClosed = errors.New("server: batcher closed")

// BatcherOptions tunes adaptive epoch batching.
type BatcherOptions struct {
	// MaxLag bounds the sealed-but-incomplete epochs the batcher keeps in
	// flight. While the pipeline is at the bound, logical seals defer —
	// coalescing into one coarser physical epoch that seals when the lag
	// drops — and when the pipeline is drained every seal goes through
	// immediately (per-update epochs). Zero means the default of 4.
	MaxLag uint64
}

// BatcherStats is a snapshot of a batcher's control-loop behavior.
type BatcherStats struct {
	LogicalSeals  uint64 // Seal calls
	PhysicalSeals uint64 // epoch jumps actually issued to the source
	MaxCoalesced  uint64 // most logical epochs folded into one physical seal
}

// Batcher adaptively batches a source's epochs: callers Offer updates and
// Seal logical epochs at whatever rate load arrives, and the batcher decides
// when to physically seal, steering on the source's probe lag. An idle
// pipeline seals every logical epoch as its own physical epoch (minimum
// latency); a backed-up pipeline coalesces pending logical epochs into one
// coarser seal (maximum throughput) — the paper's Fig 4b epoch-size
// tradeoff, chosen at runtime instead of fixed per run.
//
// Logical epochs within one coalesced group collapse onto the group's
// physical epoch: their updates complete (and reach subscribers and the WAL)
// together at the group boundary, and the cumulative collection at every
// physical seal matches what unbatched sealing would have produced there.
//
// A background drainer (parked against the cluster, not polling) issues the
// deferred seal as soon as the lag drops below the bound, so coalesced
// epochs never wait on the next caller. Batcher methods are safe for
// concurrent use. Create the batcher after Restore on a recovering server.
type Batcher[K, V any] struct {
	src    *Source[K, V]
	maxLag uint64

	mu      sync.Mutex
	logical uint64 // next logical epoch (>= the source's physical epoch)
	closed  bool
	stats   BatcherStats

	done chan struct{}
}

// NewBatcher wraps a source in an adaptive batcher. The caller must stop
// driving the source's Advance/AdvanceTo directly (Update and Sync remain
// fine) and must Close the batcher before the server.
//
// A Batcher is for a single-process server. Over a multi-process fabric
// each rank would coalesce on its own lag: rank A can stamp round 7 at
// physical epoch 5 while rank B seals 5, 6 and 7 separately, so the
// arrangement can log a batch [5,7) that already holds A's round 7.
// Restoring to the minimum cut 7 and re-driving from round 7 would then
// apply that round twice. Multi-process drivers seal every round with
// Advance instead.
func NewBatcher[K, V any](src *Source[K, V], opt BatcherOptions) *Batcher[K, V] {
	if opt.MaxLag == 0 {
		opt.MaxLag = 4
	}
	b := &Batcher[K, V]{
		src:     src,
		maxLag:  opt.MaxLag,
		logical: src.Epoch(),
		done:    make(chan struct{}),
	}
	go b.drain()
	return b
}

// Source returns the wrapped source.
func (b *Batcher[K, V]) Source() *Source[K, V] { return b.src }

// Epoch returns the next logical epoch (the one Offer feeds and Seal will
// seal). It leads the source's physical epoch by the deferred seals.
func (b *Batcher[K, V]) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.logical
}

// Stats snapshots the control loop's counters.
func (b *Batcher[K, V]) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Offer introduces updates at the current logical epoch. They are stamped at
// the source's open physical epoch: if earlier logical seals are deferred,
// the group completes together at the coalesced boundary.
func (b *Batcher[K, V]) Offer(upds []core.Update[K, V]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBatcherClosed
	}
	return b.src.Update(upds)
}

// Seal closes the current logical epoch and returns it. The physical seal
// happens now if the pipeline has room (probe lag below the bound) and is
// otherwise deferred to the drainer, coalescing with whatever arrives in the
// meantime.
func (b *Batcher[K, V]) Seal() (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrBatcherClosed
	}
	b.syncLocked()
	e := b.logical
	b.logical++
	b.stats.LogicalSeals++
	if b.src.Lag() < b.maxLag {
		if err := b.advanceLocked(); err != nil {
			return e, err
		}
	}
	return e, nil
}

// Flush physically seals every pending logical epoch regardless of lag.
// Callers that need completion (not just sealing) follow with Source.Sync.
func (b *Batcher[K, V]) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBatcherClosed
	}
	b.syncLocked()
	return b.advanceLocked()
}

// Close stops the drainer. Pending logical seals are not flushed; call
// Flush first if they matter. Idempotent.
func (b *Batcher[K, V]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.src.s.Wake() // unpark the drainer so it observes closed
	<-b.done
}

// syncLocked re-anchors the logical clock if someone moved the source's
// physical epoch underneath us (Restore, or a driver mixing in direct
// Advance calls).
func (b *Batcher[K, V]) syncLocked() {
	if e := b.src.Epoch(); e > b.logical {
		b.logical = e
	}
}

// advanceLocked issues the physical seal for every pending logical epoch.
func (b *Batcher[K, V]) advanceLocked() error {
	cur := b.src.Epoch()
	if b.logical <= cur {
		return nil
	}
	n := b.logical - cur
	if err := b.src.AdvanceTo(b.logical); err != nil {
		return err
	}
	b.stats.PhysicalSeals++
	if n > b.stats.MaxCoalesced {
		b.stats.MaxCoalesced = n
	}
	return nil
}

// drain parks against the cluster until a deferred seal becomes admissible
// (lag back below the bound), then issues it. WaitFor re-evaluates on worker
// progress, so the deferred epoch seals as soon as the pipeline drains — not
// when the next request happens to arrive.
func (b *Batcher[K, V]) drain() {
	defer close(b.done)
	for {
		ok := b.src.s.WaitFor(func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.closed || (b.logical > b.src.Epoch() && b.src.Lag() < b.maxLag)
		})
		if !ok {
			return // server closed
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		err := b.advanceLocked()
		b.mu.Unlock()
		if err != nil {
			return // source refused (closed or out of service): stop steering
		}
	}
}
