package net

import (
	"sort"
	"sync"
)

// hub collects one installed query's result deltas and fans them out to
// subscribers, decoupling the epoch cycle from connection speed:
//
//   - Worker-side sinks call add, which appends to an in-memory per-epoch
//     bucket under a briefly-held mutex — it never blocks on a subscriber.
//   - The query's pump calls complete as the probe passes each epoch; only
//     then do the epoch's deltas become visible to subscribers (results for
//     an epoch are published atomically, never partially).
//   - Each subscriber drains completed epochs at the pace of its own
//     connection writes. A slow subscriber lags and pins only the buckets
//     it has not yet read; everyone else streams on.
//
// Buckets behind every subscriber's cursor are folded into a consolidated
// base (zero-diff records vanish), so hub memory is proportional to the live
// result set plus the slowest subscriber's backlog — the same shape as the
// trace compaction the arrangements themselves perform. A subscriber that
// arrives late receives that base as a snapshot, then the live epochs: the
// network analogue of the shared-arrangement import.
//
// The backlog itself is bounded by maxLag: completion's enforcement sweep
// resets any subscriber pinning more than that many completed deltas,
// releasing its buckets to fold. A reset subscriber's
// next read is a resync — the consolidated collection again, replacing
// whatever state it had accumulated — so even a subscriber that never drains
// cannot grow hub memory past the bound.
type hub struct {
	mu   sync.Mutex
	cond *sync.Cond
	// maxLag bounds the completed-but-undelivered deltas one subscriber may
	// pin (buckets behind its cursor cannot fold). Zero or negative means
	// unbounded.
	maxLag int

	base       map[[2]uint64]int64 // net collection of epochs < baseEpoch
	baseEpoch  uint64
	buckets    map[uint64][]Delta // per-epoch deltas, epochs >= baseEpoch
	completeTo uint64             // epochs < completeTo are complete
	subs       map[*subscriber]struct{}
	closed     bool
}

// subscriber is one attachment to a hub. cursor is the next epoch it has not
// yet received; it only ever advances to completed epochs. resync is set by
// the enforcement sweep when the subscriber's pinned backlog breaches the
// hub's bound, and observed at its next read.
type subscriber struct {
	h      *hub
	cursor uint64
	resync bool
}

func newHub(maxLag int) *hub {
	h := &hub{
		maxLag:  maxLag,
		base:    make(map[[2]uint64]int64),
		buckets: make(map[uint64][]Delta),
		subs:    make(map[*subscriber]struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// add records one result delta (worker-side sink; must never block).
func (h *hub) add(epoch, key, val uint64, diff int64) {
	h.mu.Lock()
	h.buckets[epoch] = append(h.buckets[epoch], Delta{Key: key, Val: val, Diff: diff})
	h.mu.Unlock()
}

// complete publishes every epoch below the given frontier (exclusive),
// enforces the per-subscriber lag bound, and folds buckets no subscriber
// still needs into the base.
func (h *hub) complete(to uint64) {
	h.mu.Lock()
	if to > h.completeTo {
		h.completeTo = to
	}
	h.enforceLocked()
	h.trimLocked()
	h.mu.Unlock()
	h.cond.Broadcast()
}

// enforceLocked sweeps subscribers against the lag bound: any subscriber
// pinning more than maxLag completed deltas has its cursor jumped to the
// frontier (releasing its buckets to fold) and is marked for resync. Counting
// stops at the bound, so the sweep costs O(bound) per laggard, not
// O(backlog).
func (h *hub) enforceLocked() {
	if h.maxLag <= 0 {
		return
	}
	for s := range h.subs {
		backlog := 0
		for e := s.cursor; e < h.completeTo && backlog <= h.maxLag; e++ {
			backlog += len(h.buckets[e])
		}
		if backlog > h.maxLag {
			s.resync = true
			s.cursor = h.completeTo
		}
	}
}

// trimLocked folds buckets behind every subscriber's cursor (all completed
// buckets when no one is subscribed) into the consolidated base.
func (h *hub) trimLocked() {
	limit := h.completeTo
	for s := range h.subs {
		if s.cursor < limit {
			limit = s.cursor
		}
	}
	for h.baseEpoch < limit {
		for _, d := range h.buckets[h.baseEpoch] {
			k := [2]uint64{d.Key, d.Val}
			h.base[k] += d.Diff
			if h.base[k] == 0 {
				delete(h.base, k)
			}
		}
		delete(h.buckets, h.baseEpoch)
		h.baseEpoch++
	}
}

// close wakes every subscriber and the pump; late calls are no-ops. The
// caller must also wake the cluster (server.Wake) so a pump parked in
// WaitFor re-evaluates.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

func (h *hub) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// pinned reports the deltas held in per-epoch buckets — the memory the hub
// retains beyond the folded base (test hook for the lag bound).
func (h *hub) pinned() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, b := range h.buckets {
		n += len(b)
	}
	return n
}

// subscribe attaches a new subscriber, returning it plus the consolidated
// snapshot it starts from: the net collection of every epoch below start.
// The subscriber's first live events begin at epoch start.
func (h *hub) subscribe() (s *subscriber, snapshot []Delta, start uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s = &subscriber{h: h, cursor: h.baseEpoch}
	h.subs[s] = struct{}{}
	return s, sortedDeltas(h.base), h.baseEpoch
}

// unsubscribe detaches a subscriber (its pinned buckets become foldable).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.trimLocked()
	h.mu.Unlock()
}

// consolidatedLocked accumulates the base plus every completed bucket: the
// net collection of all epochs below completeTo (what a resync re-feeds).
func (h *hub) consolidatedLocked() []Delta {
	acc := make(map[[2]uint64]int64, len(h.base))
	for k, d := range h.base {
		acc[k] = d
	}
	for e := h.baseEpoch; e < h.completeTo; e++ {
		for _, d := range h.buckets[e] {
			k := [2]uint64{d.Key, d.Val}
			acc[k] += d.Diff
			if acc[k] == 0 {
				delete(acc, k)
			}
		}
	}
	return sortedDeltas(acc)
}

// sortedDeltas flattens a consolidated collection deterministically.
func sortedDeltas(m map[[2]uint64]int64) []Delta {
	out := make([]Delta, 0, len(m))
	for k, d := range m {
		out = append(out, Delta{Key: k[0], Val: k[1], Diff: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// epochDeltas is one completed epoch's published deltas.
type epochDeltas struct {
	epoch uint64
	upds  []Delta
}

// subEvent is what a subscriber delivers next: either per-epoch deltas, or —
// after a lag reset — a resync snapshot replacing all accumulated state.
type subEvent struct {
	resync   bool
	snapshot []Delta // resync: net collection of epochs < start
	start    uint64  // resync: first epoch not folded into the snapshot
	ds       []epochDeltas
	frontier uint64 // inclusive: every epoch <= frontier is delivered
}

// next blocks until the subscriber has something to deliver (a completed
// epoch past its cursor, a pending resync, or its end), then returns it. ok
// is false when the stream is over: the hub closed with nothing new.
func (s *subscriber) next() (ev subEvent, ok bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for !s.resync && h.completeTo <= s.cursor && !h.closed {
		h.cond.Wait()
	}
	if s.resync {
		s.resync = false
		s.cursor = h.completeTo
		ev = subEvent{resync: true, snapshot: h.consolidatedLocked(), start: h.completeTo}
		ev.frontier = h.completeTo - 1 // a breach implies completeTo > 0
		h.trimLocked()
		return ev, true
	}
	if h.completeTo <= s.cursor { // closed with nothing new
		return subEvent{}, false
	}
	for e := s.cursor; e < h.completeTo; e++ {
		if b := h.buckets[e]; len(b) > 0 {
			ev.ds = append(ev.ds, epochDeltas{epoch: e, upds: append([]Delta(nil), b...)})
		}
	}
	s.cursor = h.completeTo
	ev.frontier = h.completeTo - 1
	h.trimLocked()
	return ev, true
}
