package wal

import (
	"errors"
	"os"
	"sync"
	"time"
)

// ErrCommitterClosed reports an operation against a closed GroupCommitter.
var ErrCommitterClosed = errors.New("wal: group committer closed")

// GroupCommitter batches fsyncs across shard logs. Appenders on logs opened
// with Options.Commit mark their file dirty instead of syncing inline, and a
// single background goroutine syncs every dirty file once per commit
// interval — so Fsync: true costs one sync per group of appends (across all
// epochs and all shards sharing the committer) rather than one per record.
//
// The durability contract weakens accordingly: an append is guaranteed on
// disk only after the next group commit, so a machine crash can lose up to
// one interval of sealed records. Process death (SIGKILL) loses nothing
// either way — the records sit in OS buffers, which is the crash model the
// server's recovery path is built around.
//
// A failed group sync is sticky: the first error is retained and surfaced to
// every subsequent mark (and therefore to the next append on any
// participating log), because the records it covered are of unknown
// durability and silently continuing would hide that.
type GroupCommitter struct {
	interval time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	dirty  map[*os.File]struct{}
	passes int   // commit passes currently syncing outside the lock
	err    error // first sync failure; sticky
	closed bool

	stop chan struct{}
	done chan struct{}
}

// NewGroupCommitter starts a committer syncing dirty files every interval.
func NewGroupCommitter(interval time.Duration) *GroupCommitter {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	g := &GroupCommitter{
		interval: interval,
		dirty:    make(map[*os.File]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	return g
}

func (g *GroupCommitter) run() {
	defer close(g.done)
	tick := time.NewTicker(g.interval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.commitPass()
		}
	}
}

// mark registers f as needing sync at the next group commit. It returns the
// sticky error, if any, so an appender learns that earlier records in its
// group are of unknown durability.
func (g *GroupCommitter) mark(f *os.File) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if g.closed {
		return ErrCommitterClosed
	}
	g.dirty[f] = struct{}{}
	return nil
}

// drop removes f from the committer, waiting out any in-flight commit pass so
// the caller may close f immediately afterwards (a pass never syncs a closed
// descriptor).
func (g *GroupCommitter) drop(f *os.File) {
	g.mu.Lock()
	delete(g.dirty, f)
	for g.passes > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// commitPass syncs every currently dirty file. Concurrent passes act on
// disjoint snapshots of the dirty set.
func (g *GroupCommitter) commitPass() error {
	g.mu.Lock()
	if len(g.dirty) == 0 {
		err := g.err
		g.mu.Unlock()
		return err
	}
	files := make([]*os.File, 0, len(g.dirty))
	for f := range g.dirty {
		files = append(files, f)
	}
	g.dirty = make(map[*os.File]struct{})
	g.passes++
	g.mu.Unlock()

	var first error
	for _, f := range files {
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
	}

	g.mu.Lock()
	if first != nil && g.err == nil {
		g.err = first
	}
	err := g.err
	g.passes--
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// Commit forces a group commit now (checkpoint and shutdown paths call it
// rather than waiting out the ticker) and reports the sticky error state.
func (g *GroupCommitter) Commit() error { return g.commitPass() }

// Err reports the sticky error, if any, without committing.
func (g *GroupCommitter) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Close runs a final commit, stops the background goroutine, and returns the
// sticky error state. Idempotent.
func (g *GroupCommitter) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return g.Err()
	}
	g.closed = true
	g.mu.Unlock()
	err := g.commitPass()
	close(g.stop)
	<-g.done
	return err
}
