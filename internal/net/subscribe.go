package net

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/server"
	"repro/internal/timely"
)

// A subscription is an import of its query's result arrangement: a small
// dataflow of its own imports the root by snapshot, and a sink appends what
// each worker's import emits to the subscriber's feed. The subscriber's
// goroutine waits on that dataflow's probe and writes at its own
// connection's pace, so no worker ever waits on a connection.
//
// The snapshot starts at the greatest trace upper the workers' imports cut
// their history at: it is that history plus every live update below start,
// written with Epoch = start once start epochs are complete. A dropped feed
// is replaced the same way, from a fresh import, and written as a resync.

// feed is one import's queue of what its sink appended and the subscriber
// has not yet taken: the replayed history (the as-of views the import emits
// first, the only batches with an AsOf) and live deltas by epoch. A feed
// holding more than maxLag live deltas (if positive) is dropped — emptied
// and closed to appends — by the worker that tipped it.
type feed struct {
	maxLag int

	mu      sync.Mutex
	history []Delta
	live    map[uint64][]Delta
	pinned  int // live deltas held
	dropped bool
}

func newFeed(maxLag int) *feed {
	return &feed{maxLag: maxLag, live: make(map[uint64][]Delta)}
}

// add appends one message's batches: one lock per message.
func (f *feed) add(bs []*core.Batch[uint64, uint64]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range bs {
		if f.dropped {
			return
		}
		if !b.AsOf.Empty() {
			b.ForEach(func(k, v uint64, _ lattice.Time, d core.Diff) {
				f.history = append(f.history, Delta{Key: k, Val: v, Diff: int64(d)})
			})
			continue
		}
		b.ForEach(func(k, v uint64, t lattice.Time, d core.Diff) {
			f.live[t.Epoch()] = append(f.live[t.Epoch()], Delta{Key: k, Val: v, Diff: int64(d)})
		})
		if f.pinned += b.Len(); f.maxLag > 0 && f.pinned > f.maxLag {
			f.dropped, f.history, f.live, f.pinned = true, nil, nil, 0
		}
	}
}

// epochDeltas is one completed epoch's deltas.
type epochDeltas struct {
	epoch uint64
	upds  []Delta
}

// take removes the history and the live deltas of every epoch below end,
// the latter in epoch order; ok is false for a dropped feed.
func (f *feed) take(end uint64) (history []Delta, eds []epochDeltas, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for e, ds := range f.live {
		if e < end {
			eds = append(eds, epochDeltas{epoch: e, upds: ds})
			f.pinned -= len(ds)
			delete(f.live, e)
		}
	}
	slices.SortFunc(eds, func(a, b epochDeltas) int { return cmp.Compare(a.epoch, b.epoch) })
	history, f.history = f.history, nil
	return history, eds, !f.dropped
}

// held reports the live deltas the feed holds and whether it was dropped.
func (f *feed) held() (pinned int, dropped bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pinned, f.dropped
}

// consolidate sorts deltas by record, sums each record's diffs and drops
// the records whose diffs cancel.
func consolidate(ds []Delta) []Delta {
	slices.SortFunc(ds, func(a, b Delta) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
	})
	out := ds[:0]
	for _, d := range ds {
		if n := len(out); n > 0 && out[n-1].Key == d.Key && out[n-1].Val == d.Val {
			out[n-1].Diff += d.Diff
		} else {
			out = append(out, d)
		}
	}
	return slices.DeleteFunc(out, func(d Delta) bool { return d.Diff == 0 })
}

// subscription is one (connection, query) stream. Its query's mu guards q
// and the query's subs, mu guards ended and endAt, and only the stream's
// goroutine sets probe, fd and start.
type subscription struct {
	fe     *Frontend
	nq     *netQuery
	maxLag int

	q     *server.Query // the import dataflow; nil when detached
	probe *timely.Probe
	fd    *feed
	start uint64

	mu    sync.Mutex
	ended bool
	endAt uint64 // epochs below it were complete when the stream ended
}

// attach installs a fresh import of the query's root and registers the
// subscription with its query; false once the query is gone.
func (s *subscription) attach() bool {
	nq := s.nq
	nq.mu.Lock()
	defer nq.mu.Unlock()
	if nq.closed {
		return false
	}
	fd := newFeed(s.maxLag)
	uppers := make([]uint64, s.fe.srv.Workers())
	q, err := s.fe.srv.Install(fmt.Sprintf("%s/sub-%d", nq.name, s.fe.imports.Add(1)),
		func(w *timely.Worker, g *timely.Graph) server.Built {
			a := nq.root.ImportInto(g)
			// No schedule runs between the import's cut and this read.
			if up := a.Agent.Upper(); !up.Empty() {
				uppers[w.Index()] = up.Elements()[0].Epoch()
			}
			return server.Built{Probe: timely.NewProbe(sink(a, fd)), Teardown: a.Cancel}
		})
	if err != nil {
		return false
	}
	s.q, s.probe, s.fd, s.start = q, q.Probe(), fd, slices.Max(uppers)
	nq.subs[s] = struct{}{}
	return true
}

// sink appends every batch a's import emits to fd. It has an output, so a
// probe behind it passes an epoch only once every worker's sink consumed
// it, and it holds epoch 0 until its worker's history is in (the import
// sends it in its first schedule, after which its input frontier leaves 0):
// history compacted to the trace upper sits at start, where the probe does
// not wait for it.
func sink(a *core.Arranged[uint64, uint64], fd *feed) *timely.Stream[struct{}] {
	held := true
	return timely.Unary[*core.Batch[uint64, uint64], struct{}](a.Stream, "subscribe", nil,
		timely.SumID, []lattice.Time{lattice.Ts(0)},
		func(_ *timely.Ctx, in *timely.In[*core.Batch[uint64, uint64]], out *timely.Out[struct{}]) {
			imported := held && !in.Frontier().LessEqual(lattice.Ts(0))
			in.ForEach(func(_ []lattice.Time, bs []*core.Batch[uint64, uint64]) { fd.add(bs) })
			if imported {
				out.Caps().Downgrade(lattice.Frontier{})
				held = false
			}
		})
}

// uninstallLocked tears the import down. Caller holds the query's mu.
func (s *subscription) uninstallLocked() {
	if s.q != nil {
		s.q.Uninstall()
		s.q = nil
	}
}

// detach uninstalls the import; with leave, the subscription also leaves
// its query for good.
func (s *subscription) detach(leave bool) {
	s.nq.mu.Lock()
	defer s.nq.mu.Unlock()
	s.uninstallLocked()
	if leave {
		delete(s.nq.subs, s)
	}
}

// stop ends the stream at the epochs complete now, which it still writes.
// Call it before the import is torn down: that empties the probe's frontier.
func (s *subscription) stop() {
	c, _ := s.complete()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.ended, s.endAt = true, c
	}
}

// complete returns how many epochs are complete on every worker and whether
// the stream is over. An empty probe frontier (a closed trace) vouches for
// nothing.
func (s *subscription) complete() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.endAt, true
	}
	f := s.probe.Frontier()
	if f.Empty() {
		return 0, true
	}
	return f.Elements()[0].Epoch(), false
}

// wait parks until n epochs are complete, the feed is dropped or the stream
// is over. A server that closes ends the stream.
func (s *subscription) wait(n uint64) {
	if !s.fe.srv.WaitFor(func() bool {
		c, over := s.complete()
		_, dropped := s.fd.held()
		return over || c >= n || dropped
	}) {
		s.stop()
	}
}

// streamTo runs one subscription: the snapshot, then completed epochs as the
// probe passes them. A dropped feed restarts it from a fresh import, written
// as a resync; a write error (slow reader torn down, client killed) ends
// it, and nothing upstream notices.
func streamTo(s *subscription, write func([]byte) error, streams *sync.WaitGroup) {
	defer streams.Done()
	defer s.detach(true)
	send := func(ev Event) bool {
		ev.Query = s.nq.name
		return write(encodeEvent(ev)) == nil
	}
	for kind := streamSnapshot; s.attach(); s.detach(false) {
		s.wait(s.start)
		c, over := s.complete()
		snap, eds, ok := s.fd.take(s.start)
		if over && (!ok || c < s.start) {
			break
		}
		if !ok {
			continue // dropped before its snapshot was out
		}
		for _, d := range eds {
			snap = append(snap, d.upds...)
		}
		if !send(Event{Kind: kind, Epoch: s.start, Upds: consolidate(snap)}) ||
			s.start > 0 && !send(Event{Kind: streamFrontier, Epoch: s.start - 1}) ||
			!s.follow(send) {
			break
		}
		kind = streamResync
	}
	send(Event{Kind: streamEnd, Reason: EndReasonClosed})
}

// follow writes completed epochs until the feed is dropped (true: import
// afresh) or the stream is over or broken (false).
func (s *subscription) follow(send func(Event) bool) bool {
	for cursor := s.start; ; {
		s.wait(cursor + 1)
		c, over := s.complete()
		_, eds, ok := s.fd.take(c)
		if !ok {
			return !over
		}
		for _, d := range eds {
			if !send(Event{Kind: streamDelta, Epoch: d.epoch, Upds: d.upds}) {
				return false
			}
		}
		if c > cursor {
			if !send(Event{Kind: streamFrontier, Epoch: c - 1}) {
				return false
			}
			cursor = c
		}
		if over {
			return false
		}
	}
}
