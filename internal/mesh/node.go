package mesh

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// PeerError reports a failed peer connection: a dropped or reset link, a
// frame that failed its checksum, a protocol violation (out-of-sequence
// delivery, stale incarnation), or a peer that stayed down past the grace
// deadline. With PeerGrace zero, peer loss is cluster-fatal — the progress
// protocol cannot advance without every peer's deltas — and a PeerError
// reaches the node's OnFailure hook exactly once. With a positive grace the
// node first quiesces and redials; the PeerError fires only when the peer
// stays down past the deadline or a protocol invariant breaks.
type PeerError struct {
	Peer int // remote process rank, -1 if unknown (handshake not completed)
	Err  error
}

func (e *PeerError) Error() string {
	if e.Peer < 0 {
		return fmt.Sprintf("mesh: peer connection: %v", e.Err)
	}
	return fmt.Sprintf("mesh: peer %d: %v", e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Options configures a mesh node.
type Options struct {
	// Addrs lists every process's listen address, indexed by rank. All
	// processes must pass the same list in the same order.
	Addrs []string
	// Process is this node's rank in Addrs.
	Process int
	// Workers is the GLOBAL worker count; it must divide evenly across
	// processes. Workers/len(Addrs) workers run here.
	Workers int
	// ClusterKey guards against mismatched workload configurations: peers
	// whose keys differ refuse the handshake. Hash the scenario parameters
	// into it.
	ClusterKey uint64
	// DialTimeout bounds how long Connect waits for peers to come up
	// (default 15s).
	DialTimeout time.Duration
	// Incarnation counts this process's restarts at this rank. Peers pin the
	// highest incarnation they have seen per rank and refuse lower ones as
	// stale; a higher one announces a restart and raises the cluster
	// generation (the sum of all incarnations). Durable drivers persist it
	// next to their WAL; zero is a fresh start.
	Incarnation uint64
	// PeerGrace selects the failure mode. Zero (the default) is fail-stop:
	// any peer loss after Connect surfaces immediately as a *PeerError.
	// Positive, the node quiesces instead: outboxes buffer (bounded by
	// ReplayBudget), the survivor redials with capped exponential backoff,
	// and the PeerError fires only if the link is still down PeerGrace after
	// it first dropped.
	PeerGrace time.Duration
	// RedialMin and RedialMax bound the redial backoff (defaults 50ms, 2s).
	RedialMin time.Duration
	RedialMax time.Duration
	// ReplayBudget bounds, per link, the bytes held for a down or slow peer:
	// queued frames plus written-but-unacked frames kept for replay. At the
	// budget the quiesce promise is broken honestly — the link fails with a
	// *PeerError rather than buffering unboundedly. Default 64 MiB.
	ReplayBudget int64
	// AckEvery is the cumulative-ack cadence in countable frames (default
	// 128): receivers ack so senders can prune their replay buffers.
	AckEvery int
	// OnFailure, if set, is called (once, from a node-tracked goroutine that
	// Close joins) when a peer connection fails past recovery. It must not
	// call Close synchronously — tear down from another goroutine or exit.
	OnFailure func(error)
	// OnUser, if set, receives user-frame payloads (result gathering,
	// recovery cut exchange). The payload is owned by the callee.
	OnUser func(src int, payload []byte)
	// OnResync, if set, is called (on a tracked goroutine) when the cluster
	// generation rises above the value it had when Connect returned and every
	// link is up again: a restarted peer has rejoined and the application
	// must tear down its dataflow world, call Resync, and rebuild. Fires once
	// per generation.
	OnResync func(gen uint64)
	// OnPeerDown and OnPeerUp, if set, observe link state transitions
	// (logging, metrics). Called on tracked goroutines.
	OnPeerDown func(peer int, err error)
	OnPeerUp   func(peer int)
}

// Node is a process's endpoint in the worker mesh: it implements
// timely.Fabric over one TCP connection per ordered peer pair, with
// per-link crash recovery (incarnations, redial, replay, generation
// barriers). See doc.go for the protocol.
type Node struct {
	opt   Options
	wpp   int  // workers per process
	grace bool // PeerGrace > 0: quiesce-and-redial instead of fail-stop

	listener net.Listener

	// mu guards generation state, the host gate, and the pre-Start stash.
	// cond broadcasts on any change (reader parking, WaitResynced). Lock
	// ordering: never acquire mu while holding a link or outbox mutex.
	mu         sync.Mutex
	cond       *sync.Cond
	host       timely.FabricHost
	hostGen    uint64 // generation the host was attached for
	stash      []stashed
	stashBytes int64
	incs       []uint64 // highest incarnation seen per rank (own slot = own)
	connected  bool     // Connect completed; OnResync may fire
	firedGen   uint64   // last generation OnResync fired for
	flushedGen uint64   // generation our outboxes and send seqs are clean for
	resyncFrom time.Time

	// flushedA mirrors flushedGen for lock-free reads on the per-frame
	// receive path (stale-generation filtering, ack validation).
	flushedA atomic.Uint64

	links []*link // by rank; nil at own rank

	sendMu  sync.Mutex
	dataSeq map[[3]int]uint64 // (df, ch, worker) -> next seq, reset per generation

	failMu   sync.Mutex
	failed   bool
	failErr  error
	closed   bool
	stop     chan struct{} // closed on Close/fail: stops accept, redial, grace timers
	stopOnce sync.Once

	acceptWG sync.WaitGroup
	writerWG sync.WaitGroup
	readerWG sync.WaitGroup
	cbWG     sync.WaitGroup // OnFailure/OnResync/OnPeerDown/OnPeerUp goroutines

	st statCounters
}

// stashed is one data/progress frame received before the current
// generation's host attached (Start not yet called).
type stashed struct {
	prog    bool
	df, ch  int
	worker  int
	stamp   []lattice.Time
	payload []byte
	deltas  []timely.ProgressDelta
}

// Stats is a snapshot of the node's informational counters; nothing in the
// node reads them back. Tests pin the redial and resync counts
// (TestLinkDropSeqContinuity, TestPeerRejoinResync).
type Stats struct {
	RedialAttempts  uint64 // dial attempts made after a link dropped
	Redials         uint64 // successful re-handshakes (link restored)
	Resyncs         uint64 // generation resyncs completed (WaitResynced)
	LastResyncNs    int64  // wall time of the last Resync..WaitResynced span
	ProgressBatches uint64 // pointstamp batches offered by the tracker
	ProgressFrames  uint64 // progress frames actually sent (all links)
}

type statCounters struct {
	mu              sync.Mutex
	redialAttempts  uint64
	redials         uint64
	resyncs         uint64
	lastResyncNs    int64
	progressBatches uint64
	progressFrames  uint64
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.st.mu.Lock()
	defer n.st.mu.Unlock()
	return Stats{
		RedialAttempts:  n.st.redialAttempts,
		Redials:         n.st.redials,
		Resyncs:         n.st.resyncs,
		LastResyncNs:    n.st.lastResyncNs,
		ProgressBatches: n.st.progressBatches,
		ProgressFrames:  n.st.progressFrames,
	}
}

// Listen validates the options, binds this rank's listen address, and
// returns a node ready for Connect. The address may use port 0; Addr reports
// the bound address (single-machine tests), but then peers must be told the
// real port out of band, so fixed ports are the norm.
func Listen(opt Options) (*Node, error) {
	p := len(opt.Addrs)
	if p < 2 {
		return nil, fmt.Errorf("mesh: need at least 2 peer addresses, got %d", p)
	}
	if opt.Process < 0 || opt.Process >= p {
		return nil, fmt.Errorf("mesh: process rank %d out of range [0,%d)", opt.Process, p)
	}
	if opt.Workers <= 0 || opt.Workers%p != 0 {
		return nil, fmt.Errorf("mesh: %d workers do not divide evenly across %d processes", opt.Workers, p)
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 15 * time.Second
	}
	if opt.RedialMin <= 0 {
		opt.RedialMin = 50 * time.Millisecond
	}
	if opt.RedialMax <= 0 {
		opt.RedialMax = 2 * time.Second
	}
	if opt.ReplayBudget <= 0 {
		opt.ReplayBudget = 64 << 20
	}
	if opt.AckEvery <= 0 {
		opt.AckEvery = 128
	}
	ln, err := net.Listen("tcp", opt.Addrs[opt.Process])
	if err != nil {
		return nil, fmt.Errorf("mesh: listen %s: %w", opt.Addrs[opt.Process], err)
	}
	n := &Node{
		opt:      opt,
		wpp:      opt.Workers / p,
		grace:    opt.PeerGrace > 0,
		listener: ln,
		incs:     make([]uint64, p),
		links:    make([]*link, p),
		dataSeq:  make(map[[3]int]uint64),
		stop:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	n.incs[opt.Process] = opt.Incarnation
	for r := range n.links {
		if r != opt.Process {
			n.links[r] = newLink(n, r)
		}
	}
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() net.Addr { return n.listener.Addr() }

// SetAddrs replaces the peer address list between Listen and Connect — the
// escape hatch for dynamically bound ports: every process listens on ":0",
// learns its real address from Addr, distributes it out of band, and installs
// the agreed list here before dialing. Must not be called after Connect.
func (n *Node) SetAddrs(addrs []string) error {
	if len(addrs) != len(n.opt.Addrs) {
		return fmt.Errorf("mesh: %d addresses for %d processes", len(addrs), len(n.opt.Addrs))
	}
	n.opt.Addrs = append([]string(nil), addrs...)
	return nil
}

// Connect brings every link up: it starts the persistent accept loop (which
// also serves later re-handshakes from restarted peers), dials every peer,
// and returns once the mesh is fully connected — an implicit barrier: after
// Connect, every process has reached Connect. On a rejoin (Incarnation > 0,
// or peers restarted while this node was connecting) the links come up
// pinned to the exchanged incarnations and Generation reflects the sum.
func (n *Node) Connect() error {
	n.acceptWG.Add(1)
	go n.acceptLoop()
	for _, l := range n.links {
		if l != nil {
			l.startRedial()
		}
	}
	deadline := time.Now().Add(n.opt.DialTimeout)
	for {
		if err := n.Err(); err != nil {
			return err
		}
		lagging := -1
		for r, l := range n.links {
			if l != nil && !l.fullyUp() {
				lagging = r
				break
			}
		}
		if lagging < 0 {
			break
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("mesh: dial peer %d (%s): timed out after %v",
				lagging, n.opt.Addrs[lagging], n.opt.DialTimeout)
			n.fail(&PeerError{Peer: lagging, Err: err})
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.mu.Lock()
	n.connected = true
	n.firedGen = n.generationLocked()
	n.mu.Unlock()
	return nil
}

// acceptLoop accepts inbound connections for the node's whole lifetime: the
// initial mesh bring-up and every later re-handshake from a redialing or
// restarted peer.
func (n *Node) acceptLoop() {
	defer n.acceptWG.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			// The listener itself failing outside teardown is unrecoverable:
			// restarted peers could never rejoin through it.
			n.fail(&PeerError{Peer: -1, Err: fmt.Errorf("mesh: accept: %w", err)})
			return
		}
		n.acceptWG.Add(1)
		go func() {
			defer n.acceptWG.Done()
			n.handleInbound(conn)
		}()
	}
}

// handleInbound validates one inbound hello, pins the peer's incarnation,
// answers with this node's incarnation and the link's delivered-frame count
// (the replay resume point), and installs the connection as the link's
// inbound side.
func (n *Node) handleInbound(conn net.Conn) {
	p := len(n.opt.Addrs)
	conn.SetReadDeadline(time.Now().Add(n.opt.DialTimeout))
	// Read the hello from the raw conn: ReadRecord uses io.ReadFull and
	// never over-reads, so no frame bytes are lost to a throwaway buffered
	// reader before readLoop attaches its own.
	payload, err := wal.ReadRecord(conn, MaxFrame)
	if err != nil {
		conn.Close()
		return // a stray dialer or a dead peer's half-open socket; not fatal
	}
	f, err := DecodeFrame(payload)
	if err != nil || f.Kind != KindHello {
		conn.Close()
		return
	}
	h := f.Hello
	switch {
	case h.Version != Version:
		err = fmt.Errorf("version %d (want %d)", h.Version, Version)
	case h.ClusterKey != n.opt.ClusterKey:
		err = fmt.Errorf("cluster key %016x (want %016x)", h.ClusterKey, n.opt.ClusterKey)
	case h.Processes != p || h.Workers != n.opt.Workers:
		err = fmt.Errorf("cluster shape %d×%d (want %d×%d)", h.Processes, h.Workers, p, n.opt.Workers)
	case h.Src < 0 || h.Src >= p || h.Src == n.opt.Process:
		err = fmt.Errorf("peer rank %d out of range", h.Src)
	}
	if err != nil {
		conn.Close()
		n.fail(&PeerError{Peer: -1, Err: fmt.Errorf("mesh: inbound handshake: %w", err)})
		return
	}
	l := n.links[h.Src]
	recvCount, barrierGen, ok := l.acceptIn(conn, h.Incarnation)
	if !ok {
		conn.Close() // stale incarnation (or a duplicate raced a newer conn)
		return
	}
	resp := wal.AppendRecord(nil, AppendHelloResp(nil, n.opt.Incarnation, recvCount, barrierGen))
	if _, err := conn.Write(resp); err != nil {
		conn.Close()
		l.inDown(conn, fmt.Errorf("hello response: %w", err))
		return
	}
	conn.SetReadDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	n.readerWG.Add(1)
	go n.readLoop(h.Src, conn)
	n.noteIncarnation(h.Src, h.Incarnation)
	n.linkStateChanged(h.Src)
}

// --- timely.Fabric ---

// Workers returns the global worker count.
func (n *Node) Workers() int { return n.opt.Workers }

// FirstLocal returns the global index of this process's first worker.
func (n *Node) FirstLocal() int { return n.opt.Process * n.wpp }

// LocalWorkers returns the per-process worker count.
func (n *Node) LocalWorkers() int { return n.wpp }

// Start attaches the delivery target for the current generation and replays
// any frames stashed while no host was attached. Called once per generation:
// at initial bring-up and again after each Resync, when the application has
// rebuilt its runtime.
func (n *Node) Start(h timely.FabricHost) {
	n.mu.Lock()
	n.host = h
	n.hostGen = n.flushedGen
	stash := n.stash
	n.stash, n.stashBytes = nil, 0
	// Deliver the stash while holding mu: readers that race us park on cond
	// rather than delivering ahead of stashed frames from their own link.
	for _, s := range stash {
		if s.prog {
			h.DeliverProgress(s.df, s.deltas)
		} else if err := h.DeliverData(s.df, s.ch, s.worker, s.stamp, s.payload); err != nil {
			n.mu.Unlock()
			n.Fail(err)
			return
		}
	}
	n.mu.Unlock()
	n.cond.Broadcast()
}

// SendData ships one exchanged data partition to the process owning the
// destination worker, stamped with the next per-(df, ch, worker) sequence
// number. Per-channel FIFO to each destination follows from the single
// per-peer ordered connection (plus replay across reconnects).
func (n *Node) SendData(df, ch, worker int, stamp []lattice.Time, payload []byte) {
	dst := worker / n.wpp
	n.sendMu.Lock()
	key := [3]int{df, ch, worker}
	seq := n.dataSeq[key]
	n.dataSeq[key] = seq + 1
	rec := wal.AppendRecord(nil, AppendData(nil, df, ch, worker, seq, stamp, payload))
	// Enqueue under sendMu: queue order must match sequence order, and a
	// concurrent sender to the same destination could otherwise interleave.
	ok := n.links[dst].ob.enqueueRec(rec, true)
	n.sendMu.Unlock()
	if !ok {
		n.budgetFail(dst)
	}
}

// budgetFail reports a replay-budget overflow: the peer has been down or
// slow past what bounded quiescence can absorb.
func (n *Node) budgetFail(peer int) {
	n.fail(&PeerError{Peer: peer, Err: fmt.Errorf("replay budget %d bytes exhausted while peer unreachable", n.opt.ReplayBudget)})
}

// BroadcastProgress offers one pointstamp-delta batch to every peer. Batches
// coalesce: if the tail of a link's outbox is still an unflushed progress
// entry (no data or user frame has been enqueued behind it), the new batch
// appends to it and the two ship as one frame — under churn or a down link,
// many applied batches collapse into few frames. Adjacency is the safety
// line: a batch never migrates across a later data frame, so the sender's
// increment still reaches a receiver no later than the message it counts,
// and concatenation in offer order keeps increments ahead of the decrements
// they justify. Non-blocking: the caller holds the progress tracker's mutex.
func (n *Node) BroadcastProgress(df int, deltas []timely.ProgressDelta) {
	n.sendMu.Lock()
	over := -1
	for r, l := range n.links {
		if l != nil && !l.ob.enqueueProgress(df, deltas) {
			over = r
		}
	}
	n.sendMu.Unlock()
	n.st.mu.Lock()
	n.st.progressBatches++
	n.st.mu.Unlock()
	if over >= 0 {
		n.budgetFail(over)
	}
}

// SendUser ships an opaque payload to one peer, for coordination outside the
// dataflow (result gathering, recovery cut exchange). Delivery is ordered
// with respect to data and progress frames on the same link.
func (n *Node) SendUser(dst int, payload []byte) {
	rec := wal.AppendRecord(nil, AppendUser(nil, payload))
	if !n.links[dst].ob.enqueueRec(rec, true) {
		n.budgetFail(dst)
	}
}

// Fail reports an error from the host (e.g. an undecodable stashed frame)
// into the node's failure path.
func (n *Node) Fail(err error) { n.fail(&PeerError{Peer: -1, Err: err}) }

// --- generation resync ---

// Generation returns the cluster generation: the sum of the highest
// incarnation seen for every rank. All nodes converge on it without
// coordination, and it rises exactly when some peer restarts.
func (n *Node) Generation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.generationLocked()
}

func (n *Node) generationLocked() uint64 {
	var g uint64
	for _, inc := range n.incs {
		g += inc
	}
	return g
}

// Resync flushes the node to the given generation after the application has
// torn down its dataflow world: the old host is detached, outboxes and send
// sequences are cleared, and a barrier frame is enqueued to every peer. The
// receive side of each link discards frames until the peer's own barrier for
// this generation arrives. Call with the value Generation returned; follow
// with WaitResynced, then rebuild the runtime and call Start again.
func (n *Node) Resync(gen uint64) {
	n.mu.Lock()
	if gen <= n.flushedGen {
		n.mu.Unlock()
		return
	}
	n.flushedGen = gen
	n.flushedA.Store(gen)
	n.host = nil
	n.hostGen = 0
	n.stash, n.stashBytes = nil, 0
	n.resyncFrom = time.Now()
	n.mu.Unlock()
	n.sendMu.Lock()
	n.dataSeq = make(map[[3]int]uint64)
	barrier := wal.AppendRecord(nil, AppendBarrier(nil, gen))
	for _, l := range n.links {
		if l != nil {
			l.ob.reset()
			l.ob.enqueueRec(barrier, true)
		}
	}
	n.sendMu.Unlock()
	n.cond.Broadcast()
}

// WaitResynced blocks until every link is up and has received its peer's
// barrier for the given generation, or the timeout elapses, or the node
// fails. Returning nil means the whole cluster has flushed generation gen:
// every peer's stale frames are discarded and fresh sequence spaces are in
// effect on every link.
func (n *Node) WaitResynced(gen uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := n.Err(); err != nil {
			return err
		}
		n.failMu.Lock()
		closed := n.closed
		n.failMu.Unlock()
		if closed {
			return fmt.Errorf("mesh: node closed during resync")
		}
		ready := true
		for _, l := range n.links {
			if l == nil {
				continue
			}
			if !l.fullyUp() || l.barrier() < gen {
				ready = false
				break
			}
		}
		if ready {
			n.mu.Lock()
			elapsed := time.Since(n.resyncFrom)
			n.mu.Unlock()
			n.st.mu.Lock()
			n.st.resyncs++
			n.st.lastResyncNs = elapsed.Nanoseconds()
			n.st.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mesh: resync to generation %d timed out after %v", gen, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// noteIncarnation records a (possibly new) incarnation for a rank and, if
// the generation rose past the last fired one while all links are up, fires
// OnResync on a tracked goroutine.
func (n *Node) noteIncarnation(peer int, inc uint64) {
	n.mu.Lock()
	if inc > n.incs[peer] {
		n.incs[peer] = inc
	}
	n.mu.Unlock()
	n.cond.Broadcast()
}

// linkStateChanged re-evaluates the OnResync trigger after a link came up or
// an incarnation advanced.
func (n *Node) linkStateChanged(peer int) {
	for _, l := range n.links {
		if l != nil && !l.fullyUp() {
			return
		}
	}
	n.mu.Lock()
	gen := n.generationLocked()
	fire := n.connected && n.opt.OnResync != nil && gen > n.firedGen
	if fire {
		n.firedGen = gen
	}
	n.mu.Unlock()
	n.cond.Broadcast()
	if fire {
		n.cbWG.Add(1)
		go func() {
			defer n.cbWG.Done()
			n.opt.OnResync(gen)
		}()
	}
	_ = peer
}

// callback runs a notification hook on a tracked goroutine.
func (n *Node) callback(f func()) {
	if f == nil {
		return
	}
	n.cbWG.Add(1)
	go func() {
		defer n.cbWG.Done()
		f()
	}()
}

// --- lifecycle ---

// Close shuts the mesh down deterministically: outboxes drain (bounded by a
// write deadline), then connections close, readers exit without invoking
// OnFailure, and all tracked callback goroutines are joined. Safe to call
// more than once. Must not be called from inside an Options callback.
func (n *Node) Close() error {
	n.failMu.Lock()
	if n.closed {
		n.failMu.Unlock()
		return nil
	}
	n.closed = true
	n.failMu.Unlock()
	n.stopOnce.Do(func() { close(n.stop) })

	// Bound the drain: a stuck peer must not wedge shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for _, l := range n.links {
		if l == nil {
			continue
		}
		l.setWriteDeadline(deadline)
		l.ob.beginClose()
	}
	n.writerWG.Wait()
	for _, l := range n.links {
		if l != nil {
			l.ob.kill()
			l.stopTimers()
		}
	}
	n.closeConns()
	n.cond.Broadcast()
	n.readerWG.Wait()
	n.acceptWG.Wait()
	n.cbWG.Wait()
	return nil
}

// Err returns the failure that tore the node down, if any.
func (n *Node) Err() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

// fail records the first failure, invokes OnFailure on a tracked goroutine,
// and tears the node down. After Close it is a no-op: teardown-induced read
// errors are not failures.
func (n *Node) fail(err error) {
	n.failMu.Lock()
	if n.closed || n.failed {
		n.failMu.Unlock()
		return
	}
	n.failed = true
	n.failErr = err
	n.failMu.Unlock()
	n.stopOnce.Do(func() { close(n.stop) })

	for _, l := range n.links {
		if l != nil {
			l.ob.kill()
			l.stopTimers()
		}
	}
	n.closeConns()
	n.cond.Broadcast()
	if n.opt.OnFailure != nil {
		n.cbWG.Add(1)
		go func() {
			defer n.cbWG.Done()
			n.opt.OnFailure(err)
		}()
	}
}

func (n *Node) closeConns() {
	n.listener.Close()
	for _, l := range n.links {
		if l != nil {
			l.closeConns()
		}
	}
}

// deliver hands one decoded countable frame to the current generation's
// host, stashing data/progress frames that arrive before Start. Returns
// false only on a delivery error (undecodable payload).
func (n *Node) deliver(peer int, f *Frame) error {
	switch f.Kind {
	case KindUser:
		if n.opt.OnUser != nil {
			// The frame payload aliases the record buffer; copy before
			// handing ownership out.
			cp := make([]byte, len(f.Payload))
			copy(cp, f.Payload)
			n.opt.OnUser(peer, cp)
		}
		return nil
	case KindData:
		n.mu.Lock()
		if n.host == nil || n.hostGen != n.flushedGen {
			n.stash = append(n.stash, stashed{
				df: f.DF, ch: f.Ch, worker: f.Worker, stamp: f.Stamp, payload: f.Payload,
			})
			n.stashBytes += int64(len(f.Payload))
			over := n.stashBytes > n.opt.ReplayBudget
			n.mu.Unlock()
			if over {
				return fmt.Errorf("mesh: %d bytes stashed before Start; host never attached?", n.stashBytes)
			}
			return nil
		}
		h := n.host
		n.mu.Unlock()
		return h.DeliverData(f.DF, f.Ch, f.Worker, f.Stamp, f.Payload)
	case KindProgress:
		n.mu.Lock()
		if n.host == nil || n.hostGen != n.flushedGen {
			n.stash = append(n.stash, stashed{prog: true, df: f.DF, deltas: f.Deltas})
			n.mu.Unlock()
			return nil
		}
		h := n.host
		n.mu.Unlock()
		h.DeliverProgress(f.DF, f.Deltas)
		return nil
	}
	return fmt.Errorf("mesh: undeliverable frame kind %q", f.Kind)
}
