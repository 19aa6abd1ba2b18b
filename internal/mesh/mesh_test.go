package mesh

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// startPair builds a fully connected two-process mesh over loopback with the
// given global worker count. Ports are chosen by the kernel: both nodes bind
// :0 first, then learn each other's real address before dialing.
func startPair(t *testing.T, workers int, onFail [2]func(error)) [2]*Node {
	t.Helper()
	var nodes [2]*Node
	for p := 0; p < 2; p++ {
		n, err := Listen(Options{
			Addrs:       []string{"127.0.0.1:0", "127.0.0.1:0"},
			Process:     p,
			Workers:     workers,
			ClusterKey:  0xfeedface,
			DialTimeout: 10 * time.Second,
			OnFailure:   onFail[p],
		})
		if err != nil {
			t.Fatalf("listen %d: %v", p, err)
		}
		nodes[p] = n
	}
	real := []string{nodes[0].Addr().String(), nodes[1].Addr().String()}
	for _, n := range nodes {
		if err := n.SetAddrs(real); err != nil {
			t.Fatalf("set addrs: %v", err)
		}
	}

	var wg sync.WaitGroup
	errs := [2]error{}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = nodes[p].Connect()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("connect %d: %v", p, err)
		}
	}
	return nodes
}

// TestMeshTCMatchesSingleProcess runs transitive closure over a two-process
// loopback mesh (exchanged arrangements, distributed progress protocol) and
// checks the union of both processes' outputs against the single-process
// oracle.
func TestMeshTCMatchesSingleProcess(t *testing.T) {
	edges := graphs.Random(30, 60, 7)
	want := datalog.TCOracle(edges)

	nodes := startPair(t, 4, [2]func(error){
		func(err error) { t.Log("node0 failure:", err) },
		func(err error) { t.Log("node1 failure:", err) },
	})
	var caps [2]dd.Captured[uint64, uint64]
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			timely.ExecuteFabric(nodes[p], func(w *timely.Worker) {
				var in *dd.InputCollection[uint64, uint64]
				w.Dataflow(func(g *timely.Graph) {
					ein, ec := dd.NewInput[uint64, uint64](g)
					in = ein
					dd.Capture(datalog.TC(ec), &caps[p])
				})
				if w.Index() == 0 {
					graphs.EdgesInput(in, edges)
				}
				in.Close()
				w.Drain()
			})
		}(p)
	}
	wg.Wait()
	for _, n := range nodes {
		n.Close()
	}

	got := map[[2]uint64]bool{}
	for p := 0; p < 2; p++ {
		for kv, d := range caps[p].At(lattice.Ts(0)) {
			if d != 1 {
				t.Fatalf("process %d: non-unit multiplicity %d for %v", p, d, kv)
			}
			pair := [2]uint64{kv[0].(uint64), kv[1].(uint64)}
			if got[pair] {
				t.Fatalf("pair %v produced by both processes (partitioning broken)", pair)
			}
			got[pair] = true
		}
	}
	for pr := range want {
		if !got[pr] {
			t.Fatalf("missing %v (got %d, want %d)", pr, len(got), len(want))
		}
	}
	for pr := range got {
		if !want[pr] {
			t.Fatalf("spurious %v", pr)
		}
	}
}

// stubHost discards deliveries; peer-loss tests only exercise the failure
// path.
type stubHost struct{}

func (stubHost) DeliverData(df, ch, worker int, stamp []lattice.Time, payload []byte) error {
	return nil
}
func (stubHost) DeliverProgress(df int, deltas []timely.ProgressDelta) {}

// TestPeerLossReportsTypedError kills one side of a connected mesh and
// expects the survivor to report a *PeerError through OnFailure within a
// bounded time.
func TestPeerLossReportsTypedError(t *testing.T) {
	failed := make(chan error, 1)
	nodes := startPair(t, 2, [2]func(error){0: func(err error) { failed <- err }})
	nodes[0].Start(stubHost{})
	nodes[1].Start(stubHost{})

	// Simulate a process kill: tear peer 1's sockets down without the drain
	// protocol.
	nodes[1].closeConns()

	select {
	case err := <-failed:
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("survivor error %v is not a *PeerError", err)
		}
		if pe.Peer != 1 {
			t.Fatalf("peer rank %d, want 1", pe.Peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor did not report peer loss")
	}
	nodes[0].Close()
}

// TestUserFrames checks ordered opaque payload delivery (the result-gather
// path).
func TestUserFrames(t *testing.T) {
	got := make(chan string, 2)
	var nodes [2]*Node
	recv := func(src int, payload []byte) { got <- string(payload) }
	for p := 0; p < 2; p++ {
		n, err := Listen(Options{
			Addrs:      []string{"127.0.0.1:0", "127.0.0.1:0"},
			Process:    p,
			Workers:    2,
			ClusterKey: 1,
			OnUser:     recv,
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		nodes[p] = n
	}
	real := []string{nodes[0].Addr().String(), nodes[1].Addr().String()}
	for _, n := range nodes {
		if err := n.SetAddrs(real); err != nil {
			t.Fatalf("set addrs: %v", err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) { defer wg.Done(); nodes[p].Connect() }(p)
	}
	wg.Wait()
	nodes[0].Start(stubHost{})
	nodes[1].Start(stubHost{})

	nodes[1].SendUser(0, []byte("first"))
	nodes[1].SendUser(0, []byte("second"))
	for _, want := range []string{"first", "second"} {
		select {
		case s := <-got:
			if s != want {
				t.Fatalf("user frame %q, want %q", s, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("user frame %q never arrived", want)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestFrameRoundTrip pushes each frame kind through encode/decode.
func TestFrameRoundTrip(t *testing.T) {
	h := Hello{Version: Version, ClusterKey: 42, Src: 1, Processes: 2, Workers: 8}
	f, err := DecodeFrame(AppendHello(nil, h))
	if err != nil || f.Kind != KindHello || f.Hello != h {
		t.Fatalf("hello round trip: %+v, %v", f, err)
	}

	stamp := []lattice.Time{lattice.Ts(3), lattice.Ts(1, 2)}
	payload := []byte{9, 8, 7}
	f, err = DecodeFrame(AppendData(nil, 2, 5, 3, 77, stamp, payload))
	if err != nil || f.Kind != KindData || f.DF != 2 || f.Ch != 5 || f.Worker != 3 || f.Seq != 77 {
		t.Fatalf("data round trip: %+v, %v", f, err)
	}
	if len(f.Stamp) != 2 || f.Stamp[0] != lattice.Ts(3) || f.Stamp[1] != lattice.Ts(1, 2) {
		t.Fatalf("data stamp round trip: %v", f.Stamp)
	}
	if string(f.Payload) != string(payload) {
		t.Fatalf("data payload round trip: %v", f.Payload)
	}

	deltas := []timely.ProgressDelta{
		{Op: 1, Port: 0, Out: false, Time: lattice.Ts(4), Diff: 3},
		{Op: 2, Port: 1, Out: true, Time: lattice.Ts(0, 9), Diff: -5},
	}
	f, err = DecodeFrame(AppendProgress(nil, 6, 11, deltas))
	if err != nil || f.Kind != KindProgress || f.DF != 6 || f.Seq != 11 || len(f.Deltas) != 2 {
		t.Fatalf("progress round trip: %+v, %v", f, err)
	}
	for i, d := range deltas {
		g := f.Deltas[i]
		if g.Op != d.Op || g.Port != d.Port || g.Out != d.Out || g.Time != d.Time || g.Diff != d.Diff {
			t.Fatalf("progress delta %d: %+v, want %+v", i, g, d)
		}
	}

	f, err = DecodeFrame(AppendUser(nil, []byte("hi")))
	if err != nil || f.Kind != KindUser || string(f.Payload) != "hi" {
		t.Fatalf("user round trip: %+v, %v", f, err)
	}

	h2 := Hello{Version: Version, ClusterKey: 7, Src: 0, Processes: 2, Workers: 4, Incarnation: 3}
	f, err = DecodeFrame(AppendHello(nil, h2))
	if err != nil || f.Kind != KindHello || f.Hello != h2 {
		t.Fatalf("hello incarnation round trip: %+v, %v", f, err)
	}

	f, err = DecodeFrame(AppendHelloResp(nil, 5, 1234, 2))
	if err != nil || f.Kind != KindHelloResp || f.Inc != 5 || f.Count != 1234 || f.Gen != 2 {
		t.Fatalf("hello response round trip: %+v, %v", f, err)
	}

	f, err = DecodeFrame(AppendAck(nil, 3, 999))
	if err != nil || f.Kind != KindAck || f.Gen != 3 || f.Count != 999 {
		t.Fatalf("ack round trip: %+v, %v", f, err)
	}

	f, err = DecodeFrame(AppendBarrier(nil, 7))
	if err != nil || f.Kind != KindBarrier || f.Gen != 7 {
		t.Fatalf("barrier round trip: %+v, %v", f, err)
	}
}

// collectHost records delivered data payloads and progress batches.
type collectHost struct {
	mu       sync.Mutex
	payloads [][]byte
	deltas   []timely.ProgressDelta
	batches  int
}

func (h *collectHost) DeliverData(df, ch, worker int, stamp []lattice.Time, payload []byte) error {
	h.mu.Lock()
	h.payloads = append(h.payloads, append([]byte(nil), payload...))
	h.mu.Unlock()
	return nil
}

func (h *collectHost) DeliverProgress(df int, deltas []timely.ProgressDelta) {
	h.mu.Lock()
	h.deltas = append(h.deltas, deltas...)
	h.batches++
	h.mu.Unlock()
}

func (h *collectHost) dataCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.payloads)
}

// startGracePair is startPair with a redial-friendly configuration: peer loss
// quiesces instead of failing, with tight backoff bounds for test speed.
func startGracePair(t *testing.T, workers int, grace time.Duration, onFail [2]func(error)) [2]*Node {
	t.Helper()
	var nodes [2]*Node
	for p := 0; p < 2; p++ {
		n, err := Listen(Options{
			Addrs:       []string{"127.0.0.1:0", "127.0.0.1:0"},
			Process:     p,
			Workers:     workers,
			ClusterKey:  0xfeedfacf,
			DialTimeout: 10 * time.Second,
			PeerGrace:   grace,
			RedialMin:   5 * time.Millisecond,
			RedialMax:   50 * time.Millisecond,
			OnFailure:   onFail[p],
		})
		if err != nil {
			t.Fatalf("listen %d: %v", p, err)
		}
		nodes[p] = n
	}
	real := []string{nodes[0].Addr().String(), nodes[1].Addr().String()}
	for _, n := range nodes {
		if err := n.SetAddrs(real); err != nil {
			t.Fatalf("set addrs: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := [2]error{}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = nodes[p].Connect()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("connect %d: %v", p, err)
		}
	}
	return nodes
}

// TestLinkDropSeqContinuity drops the loopback link mid-stream (twice) and
// checks that the capped-backoff redial restores it within the grace window
// and that per-channel sequence numbering survives the reconnects: every data
// frame arrives exactly once, in send order, with no duplicates from the
// replay buffer and no gaps from the torn writes.
func TestLinkDropSeqContinuity(t *testing.T) {
	failed := make(chan error, 2)
	onFail := func(err error) { failed <- err }
	nodes := startGracePair(t, 2, 30*time.Second, [2]func(error){onFail, onFail})
	host := &collectHost{}
	nodes[0].Start(stubHost{})
	nodes[1].Start(host)

	const total = 600
	start := time.Now()
	for i := 0; i < total; i++ {
		payload := []byte{byte(i), byte(i >> 8), byte(i >> 16), 0}
		nodes[0].SendData(0, 0, 1, nil, payload)
		if i == total/3 || i == 2*total/3 {
			// Sever both directions without any drain protocol — a network
			// blip, not a restart: incarnations stay put, state survives.
			nodes[0].links[1].closeConns()
			time.Sleep(10 * time.Millisecond)
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for host.dataCount() < total {
		select {
		case err := <-failed:
			t.Fatalf("node failed during redial: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames after redials", host.dataCount(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	host.mu.Lock()
	defer host.mu.Unlock()
	if len(host.payloads) != total {
		t.Fatalf("delivered %d frames, want exactly %d (duplicates replayed?)", len(host.payloads), total)
	}
	for i, p := range host.payloads {
		got := int(p[0]) | int(p[1])<<8 | int(p[2])<<16
		if got != i {
			t.Fatalf("frame %d carries payload %d: reordered or duplicated across reconnect", i, got)
		}
	}
	st := nodes[0].Stats()
	if st.Redials < 1 {
		t.Fatalf("stats report %d redials after two forced drops", st.Redials)
	}
	if st.RedialAttempts < st.Redials {
		t.Fatalf("attempts %d < completed redials %d", st.RedialAttempts, st.Redials)
	}
	// Capped backoff: with RedialMin 5ms and RedialMax 50ms, two recoveries
	// fit comfortably inside a couple of seconds; anything slower means the
	// backoff grew past its cap (or the writer never noticed the drop).
	if elapsed > 10*time.Second {
		t.Fatalf("recovery took %v with a 50ms backoff cap", elapsed)
	}
	nodes[0].Close()
	nodes[1].Close()
}

// TestProgressCoalescing offers an outbox whose writer has not yet come for
// it a burst of pointstamp batches, and checks that adjacent batches coalesce
// into far fewer wire frames while the delta stream is preserved exactly, in
// order.
func TestProgressCoalescing(t *testing.T) {
	st := &statCounters{}
	ob := newOutbox(1<<30, st)
	const batches = 200
	for i := 0; i < batches; i++ {
		if !ob.enqueueProgress(0, []timely.ProgressDelta{
			{Op: 1, Port: 0, Time: lattice.Ts(uint64(i)), Diff: 1},
			{Op: 1, Port: 0, Time: lattice.Ts(uint64(i)), Diff: -1},
		}) {
			t.Fatalf("batch %d exceeded the replay budget", i)
		}
	}
	ob.beginClose()

	var deltas []timely.ProgressDelta
	for {
		recs, ok := ob.pop()
		if !ok {
			break
		}
		for _, rec := range recs {
			payload, rest, err := wal.SplitRecord(rec, MaxFrame)
			if err != nil || len(rest) != 0 {
				t.Fatalf("popped record does not frame one payload: %v (%d bytes left)", err, len(rest))
			}
			f, err := DecodeFrame(payload)
			if err != nil || f.Kind != KindProgress {
				t.Fatalf("popped frame %q: %v", f.Kind, err)
			}
			deltas = append(deltas, f.Deltas...)
		}
	}

	if len(deltas) != 2*batches {
		t.Fatalf("popped %d deltas, want %d", len(deltas), 2*batches)
	}
	for i := 0; i < batches; i++ {
		plus, minus := deltas[2*i], deltas[2*i+1]
		if plus.Time != lattice.Ts(uint64(i)) || plus.Diff != 1 || minus.Diff != -1 {
			t.Fatalf("delta pair %d out of order: %+v / %+v", i, plus, minus)
		}
	}
	if st.progressFrames >= batches {
		t.Fatalf("%d frames for %d batches: coalescing had no effect", st.progressFrames, batches)
	}
	t.Logf("%d batches coalesced into %d frames", batches, st.progressFrames)
}

// TestPeerRejoinResync is the full crash-recovery cycle at the mesh layer:
// node 1 dies, a successor with the next incarnation takes over its address,
// both sides resync to generation 1, and post-resync traffic flows with fresh
// sequence numbering.
func TestPeerRejoinResync(t *testing.T) {
	resynced := make(chan uint64, 1)
	failed := make(chan error, 2)
	mk := func(p int, inc uint64, addrs []string) *Node {
		opt := Options{
			Addrs:       addrs,
			Process:     p,
			Workers:     2,
			ClusterKey:  0xabcde,
			Incarnation: inc,
			PeerGrace:   time.Minute,
			RedialMin:   5 * time.Millisecond,
			RedialMax:   50 * time.Millisecond,
			OnFailure:   func(err error) { failed <- err },
		}
		if p == 0 {
			opt.OnResync = func(gen uint64) { resynced <- gen }
		}
		n, err := Listen(opt)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return n
	}
	n0 := mk(0, 0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	n1 := mk(1, 0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	real := []string{n0.Addr().String(), n1.Addr().String()}
	var wg sync.WaitGroup
	for _, n := range []*Node{n0, n1} {
		if err := n.SetAddrs(real); err != nil {
			t.Fatalf("set addrs: %v", err)
		}
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := n.Connect(); err != nil {
				t.Errorf("connect: %v", err)
			}
		}(n)
	}
	wg.Wait()
	host0 := &collectHost{}
	n0.Start(host0)
	n1.Start(stubHost{})
	n0.SendData(0, 0, 1, nil, []byte("old generation"))

	n1.Close()
	n1b := mk(1, 1, real)
	if err := n1b.Connect(); err != nil {
		t.Fatalf("successor connect: %v", err)
	}
	if gen := n1b.Generation(); gen != 1 {
		t.Fatalf("successor generation %d, want 1", gen)
	}
	n1b.Resync(1)
	go func() {
		select {
		case g := <-resynced:
			n0.Resync(g)
			if err := n0.WaitResynced(g, 10*time.Second); err != nil {
				t.Errorf("survivor resync: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("survivor never observed the resync")
		}
	}()
	if err := n1b.WaitResynced(1, 10*time.Second); err != nil {
		t.Fatalf("successor resync: %v", err)
	}

	// New generation, fresh numbering: data flows successor -> survivor.
	host1b := &collectHost{}
	n1b.Start(host1b)
	n0.Start(host0)
	n0.SendData(0, 0, 1, nil, []byte("new generation"))
	n1b.SendData(0, 0, 0, nil, []byte("from successor"))
	deadline := time.Now().Add(10 * time.Second)
	for host1b.dataCount() < 1 || host0.dataCount() < 1 {
		select {
		case err := <-failed:
			t.Fatalf("node failed after resync: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-resync traffic stalled (survivor got %d, successor got %d)",
				host0.dataCount(), host1b.dataCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	host0.mu.Lock()
	if got := string(host0.payloads[len(host0.payloads)-1]); got != "from successor" {
		t.Fatalf("survivor delivered %q across the resync", got)
	}
	host0.mu.Unlock()
	if st := n0.Stats(); st.Resyncs != 1 || st.LastResyncNs <= 0 || st.Redials < 1 {
		t.Fatalf("survivor stats %+v after one resync, want one resync and at least one redial", st)
	}
	n0.Close()
	n1b.Close()
}
