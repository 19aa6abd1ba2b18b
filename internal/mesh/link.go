package mesh

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/timely"
	"repro/internal/wal"
)

// A link is one peer relationship: a dial-side connection this node writes
// frames to, an accept-side connection it reads the peer's frames from, an
// outbox with a bounded replay buffer, and the per-peer recovery state —
// pinned incarnation, receive sequence maps, barrier generation, grace timer.
// Connections come and go (redial with capped backoff); the link persists for
// the node's lifetime.
type link struct {
	n    *Node
	peer int
	ob   *outbox

	mu         sync.Mutex
	inc        uint64 // highest incarnation seen from this peer; lower hellos refused
	out, in    net.Conn
	outUp      bool
	inUp       bool
	everUp     bool // link reached fully-up at least once (bring-up complete)
	graceTimer *time.Timer

	// Receive state for frames FROM the peer. It survives reconnects within
	// an incarnation (that is what makes replay exact) and resets when a
	// higher incarnation is pinned or the peer's resync barrier arrives.
	barrierGen uint64 // generation of the last barrier processed from the peer
	recvCount  uint64 // countable frames delivered this generation
	unacked    int    // countables since the last ack we sent
	rDataSeq   map[[3]int]uint64
	rProgSeq   map[int]uint64
}

func newLink(n *Node, peer int) *link {
	l := &link{
		n:        n,
		peer:     peer,
		rDataSeq: make(map[[3]int]uint64),
		rProgSeq: make(map[int]uint64),
	}
	l.ob = newOutbox(n.opt.ReplayBudget, &n.st)
	return l
}

func (l *link) fullyUp() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.outUp && l.inUp
}

func (l *link) barrier() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.barrierGen
}

func (l *link) setWriteDeadline(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out != nil {
		l.out.SetWriteDeadline(t)
	}
}

func (l *link) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out != nil {
		l.out.Close()
	}
	if l.in != nil {
		l.in.Close()
	}
}

func (l *link) stopTimers() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.graceTimer != nil {
		l.graceTimer.Stop()
		l.graceTimer = nil
	}
}

// bumpIncLocked pins a higher incarnation: the peer restarted, so its memory
// of this link is gone. Receive state resets (the new process's frames start
// a fresh sequence space) — the barrier generation does not: cluster
// generations are monotonic across incarnations, and the rejoiner's first
// barrier will exceed any it inherited. Caller holds l.mu and must call
// ob.clearAndGate after releasing it: everything queued or unacked was
// addressed to a dead process, and nothing more may be sent until the local
// resync enqueues the new generation's barrier.
func (l *link) bumpIncLocked(inc uint64) {
	l.inc = inc
	l.rDataSeq = make(map[[3]int]uint64)
	l.rProgSeq = make(map[int]uint64)
	l.recvCount = 0
	l.unacked = 0
}

// acceptIn installs an inbound connection after hello validation, pinning the
// peer's incarnation. It returns the receive count and barrier generation for
// the hello response, or ok=false if the hello is stale (a predecessor
// incarnation still dialing).
func (l *link) acceptIn(conn net.Conn, inc uint64) (count, gen uint64, ok bool) {
	l.mu.Lock()
	if inc < l.inc {
		l.mu.Unlock()
		return 0, 0, false
	}
	bump := inc > l.inc
	var staleOut net.Conn
	if bump {
		l.bumpIncLocked(inc)
		// The outbound conn (if any) reaches the dead predecessor — or a
		// half-open socket it left behind. Retire it and kick the writer so
		// the redial re-handshakes with the successor incarnation.
		staleOut = l.out
	}
	if l.in != nil {
		l.in.Close() // a reconnect replaces the previous inbound conn
	}
	l.in = conn
	l.inUp = true
	count, gen = l.recvCount, l.barrierGen
	l.mu.Unlock()
	if bump {
		l.ob.clearAndGate()
		if staleOut != nil {
			staleOut.Close()
		}
		l.ob.kick()
	}
	l.maybeUp()
	return count, gen, true
}

// inDown records the loss of the inbound connection, if conn is still the
// current one (a replaced conn's reader exits silently). Losing the inbound
// side takes the outbound side down with it: the peer is gone or restarting
// either way, and on an idle link the writer — parked in pop with nothing to
// send — would otherwise never notice and never redial. Closing the out conn
// fails any in-flight write; the kick unparks an idle writer.
func (l *link) inDown(conn net.Conn, err error) {
	l.mu.Lock()
	if l.in != conn {
		l.mu.Unlock()
		return
	}
	wasFull := l.outUp && l.inUp
	l.in = nil
	l.inUp = false
	out := l.out
	l.mu.Unlock()
	if out != nil {
		out.Close()
	}
	l.ob.kick()
	l.wentDown(wasFull, err)
}

func (l *link) outDown(conn net.Conn, err error) {
	l.mu.Lock()
	if l.out != conn {
		l.mu.Unlock()
		return
	}
	wasFull := l.outUp && l.inUp
	l.out = nil
	l.outUp = false
	l.mu.Unlock()
	l.wentDown(wasFull, err)
}

// wentDown handles a fully-up → down transition: fail-stop without grace,
// quiesce-and-time with it.
func (l *link) wentDown(wasFull bool, err error) {
	l.mu.Lock()
	ever := l.everUp
	arm := ever && l.n.grace && l.graceTimer == nil
	if arm {
		peer, grace := l.peer, l.n.opt.PeerGrace
		l.graceTimer = time.AfterFunc(grace, func() {
			l.n.fail(&PeerError{Peer: peer, Err: fmt.Errorf("down for %v (peer grace exceeded)", grace)})
		})
	}
	l.mu.Unlock()
	if wasFull && err != nil {
		l.n.callback(func() {
			if l.n.opt.OnPeerDown != nil {
				l.n.opt.OnPeerDown(l.peer, err)
			}
		})
	}
	if ever && !l.n.grace {
		l.n.fail(&PeerError{Peer: l.peer, Err: err})
	}
}

// maybeUp fires the up-transition work when both directions are connected:
// clears the grace timer, notes a completed redial, and re-evaluates the
// node-level resync trigger.
func (l *link) maybeUp() {
	l.mu.Lock()
	full := l.outUp && l.inUp
	if !full {
		l.mu.Unlock()
		return
	}
	rejoined := l.everUp
	l.everUp = true
	if l.graceTimer != nil {
		l.graceTimer.Stop()
		l.graceTimer = nil
	}
	l.mu.Unlock()
	if rejoined {
		l.n.st.mu.Lock()
		l.n.st.redials++
		l.n.st.mu.Unlock()
	}
	l.n.callback(func() {
		if l.n.opt.OnPeerUp != nil {
			l.n.opt.OnPeerUp(l.peer)
		}
	})
	l.n.linkStateChanged(l.peer)
}

// startRedial launches the link's dialer/writer goroutine. It runs for the
// node's lifetime: initial bring-up, steady-state writing, and every redial
// after a drop, with capped exponential backoff + jitter between attempts.
func (l *link) startRedial(initial bool) {
	_ = initial
	l.n.writerWG.Add(1)
	go l.runDialer()
}

func (l *link) runDialer() {
	defer l.n.writerWG.Done()
	attempts := 0
	for {
		select {
		case <-l.n.stop:
			return
		default:
		}
		l.mu.Lock()
		ever := l.everUp
		l.mu.Unlock()
		if ever {
			l.n.st.mu.Lock()
			l.n.st.redialAttempts++
			l.n.st.mu.Unlock()
		}
		conn, err := l.dialAndHandshake()
		if err != nil {
			if !l.sleepBackoff(&attempts) {
				return
			}
			continue
		}
		attempts = 0
		werr := l.writeLoop(conn)
		l.outDown(conn, werr)
		// Close unconditionally: outDown only forgets the conn, and a socket
		// left open after a clean drain would keep looking healthy to the
		// peer's reader — an in-process peer would never see the link drop.
		conn.Close()
		if werr == nil {
			// Clean drain: the outbox closed under us (node shutdown).
			return
		}
		if !l.sleepBackoff(&attempts) {
			return
		}
	}
}

// sleepBackoff waits min(RedialMin·2^attempts, RedialMax) plus up to 25%
// jitter, abandoning the wait on node stop.
func (l *link) sleepBackoff(attempts *int) bool {
	min, max := l.n.opt.RedialMin, l.n.opt.RedialMax
	d := min
	for i := 0; i < *attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/4 + 1))
	*attempts++
	select {
	case <-l.n.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// dialAndHandshake dials the peer, exchanges hello/helloResp, pins the
// peer's incarnation, splices the replay buffer to the peer's delivered
// count, and installs the connection as the link's outbound side.
func (l *link) dialAndHandshake() (net.Conn, error) {
	n := l.n
	dialTO := n.opt.DialTimeout
	if dialTO > time.Second {
		dialTO = time.Second
	}
	conn, err := net.DialTimeout("tcp", n.opt.Addrs[l.peer], dialTO)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(n.opt.DialTimeout))
	hello := wal.AppendRecord(nil, AppendHello(nil, Hello{
		Version:     Version,
		ClusterKey:  n.opt.ClusterKey,
		Src:         n.opt.Process,
		Processes:   len(n.opt.Addrs),
		Workers:     n.opt.Workers,
		Incarnation: n.opt.Incarnation,
	}))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := wal.ReadRecord(conn, MaxFrame)
	if err != nil {
		conn.Close()
		return nil, err
	}
	f, err := DecodeFrame(payload)
	if err != nil || f.Kind != KindHelloResp {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("mesh: expected hello response, got frame kind %q", f.Kind)
		}
		return nil, err
	}

	l.mu.Lock()
	switch {
	case f.Inc < l.inc:
		// A predecessor incarnation still answering its old port; its
		// successor will take the address over shortly.
		l.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("mesh: peer %d answered with stale incarnation %d (pinned %d)", l.peer, f.Inc, l.inc)
	case f.Inc > l.inc:
		l.bumpIncLocked(f.Inc)
		l.mu.Unlock()
		l.ob.clearAndGate()
		n.noteIncarnation(l.peer, f.Inc)
	default:
		l.mu.Unlock()
	}

	if err := l.ob.splice(f.Count, f.Gen, n.flushedA.Load()); err != nil {
		conn.Close()
		n.fail(&PeerError{Peer: l.peer, Err: err})
		return nil, err
	}

	conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l.mu.Lock()
	if l.out != nil {
		l.out.Close()
	}
	l.out = conn
	l.outUp = true
	l.mu.Unlock()
	l.maybeUp()
	return conn, nil
}

// writeLoop drains the outbox onto conn, flushing when the queue runs dry.
// Returns nil on a clean close (outbox drained and closed), the write error
// otherwise. Entries move to the replay buffer at pop time, so a torn write
// costs nothing: the next handshake's delivered count replays exactly the
// frames the peer missed.
func (l *link) writeLoop(conn net.Conn) error {
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		recs, ok := l.ob.pop()
		if !ok {
			w.Flush()
			return nil
		}
		if recs == nil {
			// Kicked: the link's inbound side died while this writer was
			// parked idle. Surface it as a connection error so the dialer
			// re-handshakes; the replay buffer makes the retransmit exact.
			w.Flush()
			return errWriterKicked
		}
		for _, rec := range recs {
			if _, err := w.Write(rec); err != nil {
				return err
			}
		}
		if l.ob.empty() {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}

// readLoop decodes frames from one accepted connection and applies them to
// the peer's link: sequence validation, generation filtering, ack emission,
// and delivery to the fabric host.
func (n *Node) readLoop(peer int, conn net.Conn) {
	defer n.readerWG.Done()
	l := n.links[peer]
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		payload, err := wal.ReadRecord(br, MaxFrame)
		if err != nil {
			l.inDown(conn, err)
			return
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			n.fail(&PeerError{Peer: peer, Err: err})
			return
		}
		switch f.Kind {
		case KindAck:
			if f.Gen == n.flushedA.Load() {
				l.ob.ackTo(f.Count)
			}
		case KindBarrier:
			if !l.applyBarrier(f.Gen) {
				return
			}
		case KindData, KindProgress, KindUser:
			if err := l.applyCountable(peer, &f); err != nil {
				n.fail(&PeerError{Peer: peer, Err: err})
				return
			}
		default:
			n.fail(&PeerError{Peer: peer, Err: fmt.Errorf("mesh: unexpected frame kind %q mid-stream", f.Kind)})
			return
		}
	}
}

// applyBarrier processes a resync barrier from the peer: it parks until this
// node's own generation has caught up (the local application must tear down
// and Resync before any new-generation frame may be interpreted), then resets
// the link's receive state. The barrier itself is countable frame 1 of the
// new generation. Returns false if the node stopped while parked.
func (l *link) applyBarrier(gen uint64) bool {
	n := l.n
	l.mu.Lock()
	if gen <= l.barrierGen {
		l.mu.Unlock()
		return true // duplicate (replayed barrier already processed)
	}
	l.mu.Unlock()

	n.mu.Lock()
	for gen > n.flushedGen {
		select {
		case <-n.stop:
			n.mu.Unlock()
			return false
		default:
		}
		n.cond.Wait()
	}
	n.mu.Unlock()

	l.mu.Lock()
	l.rDataSeq = make(map[[3]int]uint64)
	l.rProgSeq = make(map[int]uint64)
	l.recvCount = 1
	l.unacked = 0
	l.barrierGen = gen
	l.mu.Unlock()
	// Ack the barrier immediately so the peer prunes its replay buffer into
	// the new generation without waiting for AckEvery.
	l.ob.enqueueRec(wal.AppendRecord(nil, AppendAck(nil, gen, 1)), false)
	n.cond.Broadcast()
	return true
}

// applyCountable validates a data/progress/user frame's sequence, counts it,
// emits a cumulative ack on cadence, and delivers it unless it belongs to a
// generation this node has already flushed (stale frames from a peer that
// has not yet processed our barrier are counted but dropped).
func (l *link) applyCountable(peer int, f *Frame) error {
	n := l.n
	l.mu.Lock()
	switch f.Kind {
	case KindData:
		key := [3]int{f.DF, f.Ch, f.Worker}
		if want := l.rDataSeq[key]; f.Seq != want {
			l.mu.Unlock()
			return fmt.Errorf("mesh: data frame df=%d ch=%d worker=%d seq %d, want %d", f.DF, f.Ch, f.Worker, f.Seq, want)
		}
		l.rDataSeq[key]++
	case KindProgress:
		if want := l.rProgSeq[f.DF]; f.Seq != want {
			l.mu.Unlock()
			return fmt.Errorf("mesh: progress frame df=%d seq %d, want %d", f.DF, f.Seq, want)
		}
		l.rProgSeq[f.DF]++
	}
	l.recvCount++
	l.unacked++
	var ack []byte
	if l.unacked >= n.opt.AckEvery {
		l.unacked = 0
		ack = wal.AppendRecord(nil, AppendAck(nil, l.barrierGen, l.recvCount))
	}
	stale := l.barrierGen < n.flushedA.Load()
	l.mu.Unlock()
	if ack != nil {
		l.ob.enqueueRec(ack, false)
	}
	if stale {
		return nil
	}
	return n.deliver(peer, f)
}

// --- outbox ---

// obEntry is one queued frame, or one pending progress batch still open for
// coalescing. prog non-nil marks a progress entry: deltas accumulate per
// dataflow until the entry is popped, at which point each dataflow's batch is
// encoded as one frame with the link's next progress sequence number. Merging
// is adjacency-only — a data or user frame enqueued behind a progress entry
// closes it — so a progress increment can never migrate past a later data
// frame and arrive after the message it counts.
type obEntry struct {
	rec       []byte
	countable bool
	prog      map[int][]timely.ProgressDelta
	progDFs   []int // dataflow encode order (insertion order)
	bytes     int
}

// outbox is a link's bounded outbound queue plus the replay buffer that makes
// reconnects exact: countable frames move to sent at pop time and are pruned
// by the peer's cumulative acks; a reconnect splices the unacked tail back
// onto the queue from the peer's delivered count. queuedBytes+sentBytes is
// capped by the replay budget — at the cap the quiesce promise is broken
// honestly with a fatal error rather than buffering without bound.
type outbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	st   *statCounters

	queue       []*obEntry
	queuedBytes int64
	sent        [][]byte // countable frames written, unacked, oldest first
	sentBytes   int64
	sentSeq     uint64 // countables ever moved to sent this generation
	ackedSeq    uint64 // cumulative ack horizon
	progSeq     map[int]uint64

	budget  int64
	gated   bool // peer incarnation bumped; hold all output until local resync
	kicked  bool // inbound conn died; unpark the writer to force a re-handshake
	closing bool // drain then stop
	dead    bool // drop everything, wake everyone
}

// errWriterKicked is the synthetic connection error a kicked writer returns:
// the inbound side observed the peer go away while the outbound side was idle.
var errWriterKicked = errors.New("mesh: peer connection lost (inbound side closed)")

func newOutbox(budget int64, st *statCounters) *outbox {
	ob := &outbox{st: st, budget: budget, progSeq: make(map[int]uint64)}
	ob.cond = sync.NewCond(&ob.mu)
	return ob
}

// enqueueRec queues one pre-encoded frame. Returns false if the replay
// budget is exhausted (the caller fails the node).
func (ob *outbox) enqueueRec(rec []byte, countable bool) bool {
	ob.mu.Lock()
	if ob.dead || ob.closing {
		ob.mu.Unlock()
		return true
	}
	ob.queue = append(ob.queue, &obEntry{rec: rec, countable: countable, bytes: len(rec)})
	ob.queuedBytes += int64(len(rec))
	over := ob.queuedBytes+ob.sentBytes > ob.budget
	ob.mu.Unlock()
	ob.cond.Signal()
	return !over
}

// enqueueProgress queues one pointstamp-delta batch, coalescing it into the
// queue's tail entry if that entry is still an open progress batch. The
// deltas are copied (the caller reuses its slice); concatenation preserves
// offer order, so increments stay ahead of the decrements they justify.
func (ob *outbox) enqueueProgress(df int, deltas []timely.ProgressDelta) bool {
	ob.mu.Lock()
	if ob.dead || ob.closing {
		ob.mu.Unlock()
		return true
	}
	add := 16 + 24*len(deltas)
	if n := len(ob.queue); n > 0 && ob.queue[n-1].prog != nil {
		e := ob.queue[n-1]
		if _, seen := e.prog[df]; !seen {
			e.progDFs = append(e.progDFs, df)
		}
		e.prog[df] = append(e.prog[df], deltas...)
		e.bytes += add
	} else {
		e := &obEntry{prog: map[int][]timely.ProgressDelta{df: append([]timely.ProgressDelta(nil), deltas...)}, progDFs: []int{df}, bytes: add}
		ob.queue = append(ob.queue, e)
	}
	ob.queuedBytes += int64(add)
	over := ob.queuedBytes+ob.sentBytes > ob.budget
	ob.mu.Unlock()
	ob.cond.Signal()
	return !over
}

// pop blocks for the next entry and returns its encoded frames, moving
// countables into the replay buffer. Progress entries are sequenced and
// encoded here, under the same lock that a generation reset takes, so a
// reset can never interleave with sequence assignment. Returns ok=false when
// the outbox is dead or has drained after closing.
func (ob *outbox) pop() ([][]byte, bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for {
		if ob.dead {
			return nil, false
		}
		if ob.kicked {
			ob.kicked = false
			return nil, true
		}
		if len(ob.queue) > 0 && !ob.gated {
			e := ob.queue[0]
			ob.queue[0] = nil
			ob.queue = ob.queue[1:]
			ob.queuedBytes -= int64(e.bytes)
			var recs [][]byte
			if e.prog != nil {
				for _, df := range e.progDFs {
					seq := ob.progSeq[df]
					ob.progSeq[df] = seq + 1
					rec := wal.AppendRecord(nil, AppendProgress(nil, df, seq, e.prog[df]))
					recs = append(recs, rec)
					ob.sent = append(ob.sent, rec)
					ob.sentSeq++
					ob.sentBytes += int64(len(rec))
				}
				if ob.st != nil {
					ob.st.mu.Lock()
					ob.st.progressFrames += uint64(len(recs))
					ob.st.mu.Unlock()
				}
			} else {
				recs = [][]byte{e.rec}
				if e.countable {
					ob.sent = append(ob.sent, e.rec)
					ob.sentSeq++
					ob.sentBytes += int64(len(e.rec))
				}
			}
			return recs, true
		}
		if ob.closing && len(ob.queue) == 0 {
			return nil, false
		}
		ob.cond.Wait()
	}
}

func (ob *outbox) empty() bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	return len(ob.queue) == 0
}

// ackTo prunes the replay buffer through the peer's cumulative delivered
// count. Counts outside the sent window are stale (pre-resync acks already
// filtered by generation) and ignored.
func (ob *outbox) ackTo(count uint64) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if count <= ob.ackedSeq || count > ob.sentSeq {
		return
	}
	drop := count - ob.ackedSeq
	for i := uint64(0); i < drop && len(ob.sent) > 0; i++ {
		ob.sentBytes -= int64(len(ob.sent[0]))
		ob.sent[0] = nil
		ob.sent = ob.sent[1:]
	}
	ob.ackedSeq = count
}

// splice resumes the sequence space after a reconnect within an incarnation.
// peerGen is the generation of the last barrier the peer processed from us
// and count its delivered-frame total. When the generations agree, the peer
// has count frames and we replay sent[count-ackedSeq:]; when the peer is
// behind our generation it has by construction processed none of this
// generation's frames (the barrier is the generation's first countable), so
// the whole sent buffer replays and count is meaningless old-generation
// numbering. Any other relationship is a protocol violation.
func (ob *outbox) splice(count, peerGen, localGen uint64) error {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.kicked = false // the re-handshake this kick forced has happened
	if peerGen < localGen {
		if ob.ackedSeq != 0 {
			return fmt.Errorf("mesh: peer at generation %d acked %d frames of generation %d", peerGen, ob.ackedSeq, localGen)
		}
		ob.requeueSentLocked(len(ob.sent))
		ob.sentSeq = 0
		return nil
	}
	if count < ob.ackedSeq || count > ob.sentSeq {
		return fmt.Errorf("mesh: peer delivered count %d outside replay window [%d,%d]", count, ob.ackedSeq, ob.sentSeq)
	}
	drop := int(count - ob.ackedSeq)
	for i := 0; i < drop; i++ {
		ob.sentBytes -= int64(len(ob.sent[0]))
		ob.sent[0] = nil
		ob.sent = ob.sent[1:]
	}
	ob.requeueSentLocked(len(ob.sent))
	ob.sentSeq = count
	ob.ackedSeq = count
	return nil
}

// requeueSentLocked moves the first k replay-buffer frames back to the front
// of the queue for rewriting; they re-enter sent as the writer re-pops them.
func (ob *outbox) requeueSentLocked(k int) {
	if k == 0 {
		return
	}
	entries := make([]*obEntry, 0, k+len(ob.queue))
	for _, rec := range ob.sent[:k] {
		entries = append(entries, &obEntry{rec: rec, countable: true, bytes: len(rec)})
		ob.sentBytes -= int64(len(rec))
		ob.queuedBytes += int64(len(rec))
	}
	ob.queue = append(entries, ob.queue...)
	ob.sent = nil
	ob.cond.Broadcast()
}

// reset flushes the outbox for a new generation: everything queued or held
// for replay belonged to the world being torn down. Clears the incarnation
// gate; the caller enqueues the new generation's barrier immediately after.
func (ob *outbox) reset() {
	ob.mu.Lock()
	ob.queue = nil
	ob.queuedBytes = 0
	ob.sent = nil
	ob.sentBytes = 0
	ob.sentSeq = 0
	ob.ackedSeq = 0
	ob.progSeq = make(map[int]uint64)
	ob.gated = false
	ob.mu.Unlock()
	ob.cond.Broadcast()
}

// clearAndGate discards everything addressed to a dead incarnation and holds
// all further output until the local resync resets the outbox: frames sent
// between learning of a restart and resyncing would corrupt the rejoiner's
// fresh sequence space.
func (ob *outbox) clearAndGate() {
	ob.mu.Lock()
	ob.queue = nil
	ob.queuedBytes = 0
	ob.sent = nil
	ob.sentBytes = 0
	ob.sentSeq = 0
	ob.ackedSeq = 0
	ob.progSeq = make(map[int]uint64)
	ob.gated = true
	ob.mu.Unlock()
	ob.cond.Broadcast()
}

// beginClose starts a drain: the writer flushes what is queued, then stops.
// A gated outbox discards its junk instead of draining it.
func (ob *outbox) beginClose() {
	ob.mu.Lock()
	ob.closing = true
	if ob.gated {
		ob.queue = nil
		ob.queuedBytes = 0
	}
	ob.mu.Unlock()
	ob.cond.Broadcast()
}

// kill drops everything and wakes all waiters (failure teardown).
func (ob *outbox) kill() {
	ob.mu.Lock()
	ob.dead = true
	ob.queue = nil
	ob.queuedBytes = 0
	ob.sent = nil
	ob.sentBytes = 0
	ob.mu.Unlock()
	ob.cond.Broadcast()
}

// kick unparks an idle writer so it can notice its connection died. The flag
// is cleared by the next pop (or by the handshake's splice, if the redial
// already replaced the connection by then).
func (ob *outbox) kick() {
	ob.mu.Lock()
	ob.kicked = true
	ob.mu.Unlock()
	ob.cond.Broadcast()
}
