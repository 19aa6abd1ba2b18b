package main

import (
	"errors"
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/graphs"
	"repro/internal/harness"
	"repro/internal/interactive"
	"repro/internal/lattice"
	knet "repro/internal/net"
	"repro/internal/server"
	"repro/internal/timely"
	"repro/internal/wal"
)

var (
	serveNodes   = flag.Uint64("nodes", 20000, "serve: graph node count")
	serveEdges   = flag.Uint64("edges", 64000, "serve: initial edge count")
	serveChurn   = flag.Int("churn", 4000, "serve: edge updates per round")
	serveRounds  = flag.Int("rounds", 25, "serve: churn rounds between installs")
	serveDataDir = flag.String("data-dir", "", "serve: durable WAL directory (enables the durable serve path)")
	serveRecover = flag.Bool("recover", false, "serve: restore arrangements from the -data-dir logs before streaming")
	serveCkpt    = flag.Int("checkpoint-every", 10, "serve: checkpoint interval on the durable path — epochs for the scenario driver, seconds under -listen (0 disables)")
	serveListen  = flag.String("listen", "", "serve: address to serve the wire protocol on (e.g. 127.0.0.1:7071); clients drive sources and queries remotely")
	serveFsync   = flag.Bool("fsync", false, "serve: fsync WAL appends on the durable path (requires -data-dir)")
	serveGroupMs = flag.Int("group-commit-ms", 0, "serve: group-commit interval in milliseconds for WAL fsyncs — one fsync per dirty log per interval instead of per append (requires -fsync; 0 syncs every append)")
	serveCkptB   = flag.Int64("checkpoint-bytes", 0, "serve: additionally checkpoint whenever the batch log exceeds this many bytes (requires -data-dir; 0 disables)")
	serveMaxLag  = flag.Uint64("max-lag", 0, "serve: adaptive batching bound — pending epochs coalesce into one physical seal while completion lags this many seals behind (0 = default)")
	serveSubLag  = flag.Int("sub-lag", 0, "serve: pinned-delta backlog bound per subscriber before snapshot-reset (requires -listen; 0 = default, negative = unbounded)")
	serveSpillB  = flag.Int64("spill-bytes", 0, "serve: per-worker resident budget for the edges arrangement — older runs spill to block files under the shard directory when resident bytes exceed this (requires -data-dir; 0 disables)")
)

// validateServeFlags rejects flag combinations up front, before any server
// state (or on-disk log) is touched, instead of silently accepting them:
//
//   - -recover without -data-dir would run the in-memory demo and ignore the
//     logs the operator asked to recover;
//   - a negative -checkpoint-every would silently disable checkpointing;
//   - durability knobs (-fsync, -group-commit-ms, -checkpoint-bytes) without
//     the layer they tune would be silently inert;
//   - the subscriber-lag bound only means anything when remote subscribers
//     exist;
//   - -listen hands the epoch cycle to remote clients, so combining it with
//     the built-in churn scenario's flags is contradictory.
func validateServeFlags() error {
	if err := validatePeerFlags(); err != nil {
		return err
	}
	if *serveRecover && *serveDataDir == "" {
		return errors.New("-recover requires -data-dir (there is no log to recover without one)")
	}
	if *serveCkpt < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d); use 0 to disable", *serveCkpt)
	}
	if *serveFsync && *serveDataDir == "" {
		return errors.New("-fsync requires -data-dir (there is no log to sync without one)")
	}
	if *serveGroupMs < 0 {
		return fmt.Errorf("-group-commit-ms must be >= 0 (got %d)", *serveGroupMs)
	}
	if *serveGroupMs > 0 && !*serveFsync {
		return errors.New("-group-commit-ms batches fsyncs and requires -fsync")
	}
	if *serveCkptB < 0 {
		return fmt.Errorf("-checkpoint-bytes must be >= 0 (got %d); use 0 to disable", *serveCkptB)
	}
	if *serveCkptB > 0 && *serveDataDir == "" {
		return errors.New("-checkpoint-bytes requires -data-dir (there is no log to bound without one)")
	}
	if *serveSpillB < 0 {
		return fmt.Errorf("-spill-bytes must be >= 0 (got %d); use 0 to disable", *serveSpillB)
	}
	if *serveSpillB > 0 && *serveDataDir == "" {
		return errors.New("-spill-bytes requires -data-dir (block files need a manifest to own their lifecycle)")
	}
	if *serveListen == "" && flagWasSet("sub-lag") {
		return errors.New("-sub-lag bounds remote subscribers and requires -listen")
	}
	if *serveListen != "" {
		var scenario []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "edges", "churn", "rounds":
				scenario = append(scenario, "-"+f.Name)
			}
		})
		if len(scenario) > 0 {
			return fmt.Errorf("-listen serves remote clients; the scenario flags %v drive the built-in churn demo and are incompatible", scenario)
		}
	}
	return nil
}

// serve demonstrates live query installation (§6.2, Fig 5): it starts a
// server hosting a continuously churned edges arrangement, then installs
// each interactive query class against it — first attached to the shared
// arrangement via a compacted snapshot import, then rebuilding a private
// arrangement by replaying the raw edge-update log (what a system without
// shared arrangements pays) — and reports the install-to-first-complete-
// result latency of both configurations.
func serve() {
	if err := validateServeFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if *servePeersList != "" {
		servePeers()
		return
	}
	if *serveListen != "" {
		serveNet()
		return
	}
	if *serveDataDir != "" {
		serveDurable()
		return
	}
	w := clampWorkers(4)
	live, err := interactive.StartLive(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	defer live.Close()

	fmt.Printf("serving on %d workers: loading %d nodes / %d edges\n", w, *serveNodes, *serveEdges)
	liveEdges := graphs.Random(*serveNodes, *serveEdges, 5)
	var history []core.Update[uint64, uint64] // the full edge-update log
	initial := make([]core.Update[uint64, uint64], len(liveEdges))
	for i, e := range liveEdges {
		initial[i] = core.Update[uint64, uint64]{Key: e.Src, Val: e.Dst, Diff: 1}
	}
	history = append(history, initial...)
	start := time.Now()
	live.UpdateEdges(initial)
	live.Advance()
	live.Sync()
	fmt.Printf("arrangement ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	churn := func() {
		for round := 0; round < *serveRounds; round++ {
			upds := make([]core.Update[uint64, uint64], 0, *serveChurn)
			for i := 0; i < *serveChurn/2; i++ {
				src := uint64((round*7919 + i*104729) % int(*serveNodes))
				dst := uint64((round*31 + i*13) % int(*serveNodes))
				upds = append(upds, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: 1})
				liveEdges = append(liveEdges, graphs.Edge{Src: src, Dst: dst})
				vi := (round*17 + i*29) % len(liveEdges)
				victim := liveEdges[vi]
				upds = append(upds, core.Update[uint64, uint64]{Key: victim.Src, Val: victim.Dst, Diff: -1})
				liveEdges[vi] = liveEdges[len(liveEdges)-1]
				liveEdges = liveEdges[:len(liveEdges)-1]
			}
			history = append(history, upds...)
			live.UpdateEdges(upds)
			live.Advance()
		}
		live.Sync()
	}

	type installer func(name string, shared bool) (time.Duration, func(), error)
	key := []uint64{uint64(*serveNodes / 3)}
	classes := []struct {
		name string
		inst installer
	}{
		{"look-up", func(name string, shared bool) (time.Duration, func(), error) {
			q, err := live.InstallLookup(name, key, shared, history)
			if err != nil {
				return 0, nil, err
			}
			return q.InstallLatency, q.Close, nil
		}},
		{"one-hop", func(name string, shared bool) (time.Duration, func(), error) {
			q, err := live.InstallOneHop(name, key, shared, history)
			if err != nil {
				return 0, nil, err
			}
			return q.InstallLatency, q.Close, nil
		}},
		{"two-hop", func(name string, shared bool) (time.Duration, func(), error) {
			q, err := live.InstallTwoHop(name, key, shared, history)
			if err != nil {
				return 0, nil, err
			}
			return q.InstallLatency, q.Close, nil
		}},
		{"four-path", func(name string, shared bool) (time.Duration, func(), error) {
			q, err := live.InstallPath(name, [][2]uint64{{key[0], key[0] + 1}}, shared, history)
			if err != nil {
				return 0, nil, err
			}
			return q.InstallLatency, q.Close, nil
		}},
	}

	t := &harness.Table{Header: []string{"query class", "shared install", "rebuilt install"}}
	for _, cl := range classes {
		churn() // keep updates streaming between arrivals
		lat := map[bool]time.Duration{}
		for _, shared := range []bool{true, false} {
			name := fmt.Sprintf("%s-%v", cl.name, shared)
			d, closeQ, err := cl.inst(name, shared)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: install %s: %v\n", name, err)
				os.Exit(1)
			}
			lat[shared] = d
			closeQ()
		}
		t.Add(cl.name, lat[true].Round(time.Microsecond), lat[false].Round(time.Microsecond))
	}
	t.Write(os.Stdout)
	fmt.Println("\nqueries attached to the running arrangement; uninstalled cleanly; server shutting down")
}

// serveServerOptions assembles the durable server configuration the serve
// flags describe; both durable paths (scenario driver and -listen) share it.
func serveServerOptions() server.Options {
	return server.Options{
		DataDir:          *serveDataDir,
		Recover:          *serveRecover,
		Fsync:            *serveFsync,
		GroupCommitEvery: time.Duration(*serveGroupMs) * time.Millisecond,
	}
}

// serveDurable is the durable serve path (kpg serve -data-dir [-recover]):
// a server hosting a WAL-backed edges arrangement streams a deterministic
// churn workload, checkpointing periodically. Killed at any point — even
// SIGKILL mid-epoch — and restarted with -recover, it rebuilds the
// arrangement from the logged batches (no source replay), resumes the churn
// from the recovered epoch, and serves exactly the results an uninterrupted
// run serves; the final RESULT line is the comparison artifact the CI
// crash-recovery smoke asserts on.
//
// Epochs are sealed through a server.Batcher: every round still gets its own
// logical epoch (so recovery round arithmetic is unchanged), but when the
// dataflow falls behind the driver, pending rounds coalesce into one
// physical seal instead of queueing per-round seals. "sealed epoch" lines
// print on completion, not submission, so the crash smoke's kill point
// ("sealed epoch N" observed) guarantees epoch N really is in the log.
func serveDurable() {
	w := clampWorkers(4)
	s := server.NewOpts(w, serveServerOptions())
	defer s.Close()
	fmt.Printf("durable serve: %d workers, data-dir %s\n", w, *serveDataDir)

	edges, err := server.NewSourceOpts(s, "edges", core.U64(), server.SourceOptions[uint64, uint64]{
		Durable:    true,
		KeyCodec:   wal.U64Codec(),
		ValCodec:   wal.U64Codec(),
		SpillBytes: *serveSpillB,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}

	start := uint64(0)
	if *serveRecover {
		rec, err := s.Restore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: restore: %v\n", err)
			os.Exit(1)
		}
		start = rec["edges"]
		fmt.Printf("recovered \"edges\" through epoch %d from the batch log (no source replay)\n", start)
	}

	b := server.NewBatcher(edges, server.BatcherOptions{MaxLag: *serveMaxLag})
	defer b.Close()

	rounds := uint64(*serveRounds)

	// Completion tracker: the driver below no longer waits per round, so
	// "sealed epoch" lines stream from here as the probe frontier passes each
	// logical epoch — a printed epoch is durably in the batch log.
	trackerDone := make(chan struct{})
	go func() {
		defer close(trackerDone)
		reported := start
		for reported < rounds {
			if !s.WaitFor(func() bool { return edges.CompletedEpochs() > reported }) {
				return
			}
			for c := edges.CompletedEpochs(); reported < c && reported < rounds; reported++ {
				fmt.Printf("sealed epoch %d\n", reported)
			}
		}
	}()

	checkpoint := func(round uint64) {
		due := *serveCkpt > 0 && (round+1)%uint64(*serveCkpt) == 0
		grown := *serveCkptB > 0 && s.LogBytes() >= *serveCkptB
		if !due && !grown {
			return
		}
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpointed after round %d (log %d bytes)\n", round, s.LogBytes())
	}

	for round := start; round < rounds; round++ {
		if err := b.Offer(durableRound(round, *serveNodes, *serveChurn)); err != nil {
			fmt.Fprintf(os.Stderr, "serve: update: %v\n", err)
			os.Exit(1)
		}
		if _, err := b.Seal(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: advance: %v\n", err)
			os.Exit(1)
		}
		checkpoint(round)
	}
	if err := b.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: flush: %v\n", err)
		os.Exit(1)
	}
	if err := edges.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: sync: %v\n", err)
		os.Exit(1)
	}
	<-trackerDone
	st := b.Stats()
	fmt.Printf("batching: %d logical epochs in %d physical seals (max coalesced %d)\n",
		st.LogicalSeals, st.PhysicalSeals, st.MaxCoalesced)

	count, sum := durableResult(s, edges)
	fmt.Printf("RESULT count=%d checksum=%016x\n", count, sum)

	if *serveSpillB > 0 {
		// A final checkpoint collects every dead-listed block file, so at exit
		// the on-disk file count must equal the manifest's reference count —
		// the crash-recovery smoke asserts on this line.
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: final checkpoint: %v\n", err)
			os.Exit(1)
		}
		files, refs, err := edges.SpillStats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: spill stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("SPILL files=%d refs=%d\n", files, refs)
	}
}

// serveNet is the network serve path (kpg serve -listen): a server hosting
// an "edges" arrangement (durable when -data-dir is also given) serves the
// wire protocol. Remote kpg clients install and uninstall queries, stream
// updates, seal epochs, and watch per-epoch result deltas; the process runs
// until SIGINT/SIGTERM. Remote epoch seals route through per-source adaptive
// batchers (-max-lag) and subscriber backlogs are bounded (-sub-lag). On the
// durable path a background ticker checkpoints every
// -checkpoint-every seconds and whenever the log passes -checkpoint-bytes;
// shutdown stops the ticker, drains the frontend, then takes one final
// checkpoint so a clean exit never leaves an unbounded replay tail. Any
// failed checkpoint — ticker or final — makes the process exit non-zero.
func serveNet() {
	w := clampWorkers(4)
	durable := *serveDataDir != ""
	var s *server.Server
	if durable {
		s = server.NewOpts(w, serveServerOptions())
	} else {
		s = server.New(w)
	}
	defer s.Close()

	var edges *server.Source[uint64, uint64]
	var err error
	if durable {
		edges, err = server.NewSourceOpts(s, "edges", core.U64(), server.SourceOptions[uint64, uint64]{
			Durable:    true,
			KeyCodec:   wal.U64Codec(),
			ValCodec:   wal.U64Codec(),
			SpillBytes: *serveSpillB,
		})
	} else {
		edges, err = server.NewSource(s, "edges", core.U64())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if *serveRecover {
		rec, err := s.Restore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recovered \"edges\" through epoch %d from the batch log (no source replay)\n", rec["edges"])
	}

	fe := knet.NewFrontendOpts(s, knet.FrontendOptions{
		SubscriberMaxLag: *serveSubLag,
		BatchMaxLag:      *serveMaxLag,
	})
	if err := fe.RegisterSource(edges); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	ln, err := stdnet.Listen("tcp", *serveListen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving %d workers on %s\n", w, ln.Addr())

	// The checkpoint loop polls once a second and fires on either trigger:
	// -checkpoint-every seconds elapsed, or the log past -checkpoint-bytes.
	// Shutdown closes stopCkpt and waits on ckptWG, so the final checkpoint
	// below never races a ticker checkpoint.
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	var ckptFailed atomic.Bool
	if durable && (*serveCkpt > 0 || *serveCkptB > 0) {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			last := time.Now()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					due := *serveCkpt > 0 && time.Since(last) >= time.Duration(*serveCkpt)*time.Second
					grown := *serveCkptB > 0 && s.LogBytes() >= *serveCkptB
					if !due && !grown {
						continue
					}
					switch err := s.Checkpoint(); {
					case err == nil:
						last = time.Now()
						fmt.Printf("checkpointed at epoch %d (log %d bytes)\n", edges.Epoch(), s.LogBytes())
					case errors.Is(err, server.ErrClosed):
						return // shutdown won the race; nothing to log
					default:
						fmt.Fprintf(os.Stderr, "serve: checkpoint: %v\n", err)
						ckptFailed.Store(true)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("shutting down")
		fe.Close()
	}()

	if err := fe.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	close(stopCkpt)
	ckptWG.Wait()
	fe.Close()
	if durable {
		switch err := s.Checkpoint(); {
		case err == nil:
			fmt.Printf("final checkpoint at epoch %d\n", edges.Epoch())
		case errors.Is(err, server.ErrClosed):
			// already shut down; the periodic checkpoints bounded the tail
		default:
			fmt.Fprintf(os.Stderr, "serve: final checkpoint: %v\n", err)
			ckptFailed.Store(true)
		}
	}
	fmt.Println("frontend closed; server shutting down")
	if ckptFailed.Load() {
		s.Close()
		os.Exit(1)
	}
}

// durableRound derives round r's updates from r alone — no accumulated
// state — so a recovered process re-issues exactly the rounds the crash
// lost. Each round inserts churn edges and retracts the edges round r-5
// inserted, keeping the live collection bounded.
func durableRound(round, nodes uint64, churn int) []core.Update[uint64, uint64] {
	edge := func(r uint64, i int) (uint64, uint64) {
		return (r*104729 + uint64(i)*7919 + 11) % nodes, (r*31 + uint64(i)*13 + 7) % nodes
	}
	upds := make([]core.Update[uint64, uint64], 0, 2*churn)
	for i := 0; i < churn; i++ {
		src, dst := edge(round, i)
		upds = append(upds, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: 1})
	}
	if round >= 5 {
		for i := 0; i < churn; i++ {
			src, dst := edge(round-5, i)
			upds = append(upds, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: -1})
		}
	}
	return upds
}

// durableResult installs a query against the served arrangement (snapshot
// import plus live batches, like any late subscriber) and reduces the
// collection to an order-independent count and checksum. The snapshot sits
// at the arrangement's compaction frontier, the open epoch, so the probe can
// only vouch for it once that epoch seals — and this is a read path: sealing
// an epoch here would append it to the batch log and shift the round a later
// -recover resumes from. So the dump waits on nothing new: once the probe has
// left the sealed epochs behind, every worker's import has emitted its
// snapshot (it holds epoch 0 until it does), and uninstalling then drains
// the dataflow to quiescence, after which the capture holds all of it.
func durableResult(s *server.Server, edges *server.Source[uint64, uint64]) (int64, uint64) {
	captured := &dd.Captured[uint64, uint64]{}
	q, err := s.Install("dump", func(w *timely.Worker, g *timely.Graph) server.Built {
		imported := edges.ImportInto(g)
		col := dd.Flatten(imported)
		dd.Capture(col, captured)
		return server.Built{Probe: dd.Probe(col), Teardown: func() { imported.Cancel() }}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: install dump: %v\n", err)
		os.Exit(1)
	}
	if open := edges.Epoch(); open > 0 && !q.WaitDone(lattice.Ts(open-1)) {
		fmt.Fprintf(os.Stderr, "serve: server stopped before dump completed\n")
		os.Exit(1)
	}
	q.Uninstall()
	net := make(map[[2]uint64]core.Diff)
	for _, u := range captured.Updates() {
		k := [2]uint64{u.Key, u.Val}
		net[k] += u.Diff
		if net[k] == 0 {
			delete(net, k)
		}
	}
	var count int64
	var sum uint64
	for k, d := range net {
		count += d
		sum += uint64(d) * core.Mix64(core.Mix64(k[0])^k[1])
	}
	return count, sum
}
