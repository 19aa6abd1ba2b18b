package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/mesh"
	"repro/internal/server"
	"repro/internal/timely"
	"repro/internal/wal"
)

var (
	servePeersList = flag.String("peers", "", "serve: comma-separated mesh address of every process in rank order; runs the multi-process TC scenario")
	serveProcess   = flag.Int("process", 0, "serve: this process's rank within -peers (0-based)")
	servePeerGrace = flag.Duration("peer-grace", 0, "serve: how long to quiesce and redial after losing a peer before failing the cluster (0 = fail-stop immediately, the default)")
)

// User-frame protocol riding mesh user frames (sharing the data path's
// ordering and framing guarantees): result gathering as before, plus the
// crash-recovery coordination — recovering ranks exchange their locally
// recoverable epochs and agree on the minimum (the globally consistent cut),
// then barrier on readiness so no rank drives exchange traffic into a peer
// that is still rebuilding its trace.
const (
	peerMsgResult = byte('R') // follower -> rank 0: u64 count, u64 checksum
	peerMsgDone   = byte('D') // rank 0 -> follower: shut down cleanly
	peerMsgCut    = byte('C') // any -> any: u64 generation, u64 recoverable epoch
	peerMsgReady  = byte('Y') // any -> any: u64 generation; restore finished
)

// peerDrainTimeout bounds how long a process waits on its peers during the
// result gather and the recovery coordination; a peer that dies mid-protocol
// normally surfaces as a typed connection error (or a resync) first, so this
// only catches a wedged (not dead) peer.
const peerDrainTimeout = 60 * time.Second

// peerResyncTimeout bounds a generation resync (barrier round-trip on every
// link). Generous: the chaos harness asserts its own recovery deadline.
const peerResyncTimeout = 60 * time.Second

func peerAddrs() []string {
	if *servePeersList == "" {
		return nil
	}
	return strings.Split(*servePeersList, ",")
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// validatePeerFlags rejects invalid -peers/-process combinations before any
// socket is bound: a mis-ranked process would otherwise wedge the whole
// cluster's startup barrier until its peers time out. Durability flags
// (-data-dir, -recover, -fsync, -group-commit-ms, -checkpoint-*) combine
// with -peers since each rank owns per-worker WAL shards; the wire frontend
// and the spill tier remain single-process.
func validatePeerFlags() error {
	if *servePeersList == "" {
		if flagWasSet("process") {
			return errors.New("-process names a rank within -peers and requires it")
		}
		if flagWasSet("peer-grace") {
			return errors.New("-peer-grace tunes the mesh failure mode and requires -peers")
		}
		return nil
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "listen", "spill-bytes", "sub-lag", "edges":
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("-peers runs the multi-process scenario; %v are incompatible "+
			"(the wire frontend and the spill tier are single-process)", bad)
	}
	if *servePeerGrace < 0 {
		return fmt.Errorf("-peer-grace must be >= 0 (got %v); 0 fails stop on first peer loss", *servePeerGrace)
	}
	addrs := peerAddrs()
	for i, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	if *serveProcess < 0 || *serveProcess >= len(addrs) {
		return fmt.Errorf("-process %d out of range for %d peers", *serveProcess, len(addrs))
	}
	if *workers < len(addrs) || *workers%len(addrs) != 0 {
		return fmt.Errorf("-workers %d must be a positive multiple of the %d processes in -peers "+
			"(every process hosts an equal shard)", *workers, len(addrs))
	}
	return nil
}

// nextIncarnation reads this rank's restart count from its data dir and
// bumps the stored value for the next start. The bump is written before the
// mesh connects, so even a SIGKILL a microsecond later cannot produce two
// processes handshaking with the same incarnation at this rank.
func nextIncarnation(dataDir string) (uint64, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dataDir, "incarnation")
	var inc uint64
	if b, err := os.ReadFile(path); err == nil {
		v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("corrupt incarnation file %s: %w", path, perr)
		}
		inc = v
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(inc+1, 10)+"\n"), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return inc, nil
}

// servePeers is the multi-process serve path (kpg -workers W -peers a,b,...
// -process N serve): W workers sharded evenly across the listed processes,
// exchanging data partitions and progress deltas over the TCP mesh. Every
// process streams its share of a deterministic component-local churn workload
// into a shared "edges" arrangement, installs the same transitive-closure
// query against it, and rank 0 gathers the per-process partial checksums into
// one RESULT line — bit-identical to the line a single-process run (-peers
// with one address) prints, which is exactly what scripts/peer_smoke.sh
// asserts.
//
// Failure handling is selected by -peer-grace. At 0 (the default), losing a
// peer mid-run exits with the typed mesh error (status 3), exactly as before.
// With a positive grace and -data-dir, the cluster instead recovers: each
// rank logs its workers' shards to its own WAL, survivors quiesce and redial
// when a peer dies, and a restarted rank (launched again with the same flags
// plus -recover) replays its WAL, handshakes with its next incarnation, and
// triggers a cluster-wide resync — every rank tears down its dataflow world,
// restores to the agreed minimum cut, and re-drives the remaining rounds.
// The workload derives each round from its number alone, so the RESULT line
// is bit-identical to an uninterrupted run's.
func servePeers() {
	addrs := peerAddrs()
	procs := len(addrs)
	rank := *serveProcess
	w := *workers
	rounds := uint64(*serveRounds)
	durable := *serveDataDir != ""

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
		os.Exit(1)
	}

	var node *mesh.Node
	var shuttingDown atomic.Bool
	var pendingGen atomic.Uint64
	var curMu sync.Mutex
	var cur *server.Server
	var doneOnce sync.Once
	partials := make(chan [2]uint64, procs)
	done := make(chan struct{})
	resyncCh := make(chan struct{}, 1)
	cutCh := make(chan [3]uint64, 4*procs)   // {src, generation, epoch}
	readyCh := make(chan [2]uint64, 4*procs) // {src, generation}

	inc := uint64(0)
	if durable {
		v, err := nextIncarnation(*serveDataDir)
		if err != nil {
			fatal("incarnation: %v", err)
		}
		inc = v
	}

	if procs > 1 {
		n, err := mesh.Listen(mesh.Options{
			Addrs:       addrs,
			Process:     rank,
			Workers:     w,
			ClusterKey:  peerClusterKey(procs, w),
			DialTimeout: 30 * time.Second,
			Incarnation: inc,
			PeerGrace:   *servePeerGrace,
			OnFailure: func(err error) {
				if shuttingDown.Load() {
					return // expected teardown EOFs after the done frame
				}
				fmt.Fprintf(os.Stderr, "serve: peer loss: %v\n", err)
				os.Exit(3)
			},
			OnResync: func(gen uint64) {
				// A restarted peer rejoined: remember the generation, break
				// the driver out of any blocking wait by closing the current
				// server (Sync/WaitDone return ErrClosed), and wake the
				// coordination selects. The node itself stays up.
				pendingGen.Store(gen)
				curMu.Lock()
				if cur != nil {
					cur.Close()
				}
				curMu.Unlock()
				select {
				case resyncCh <- struct{}{}:
				default:
				}
			},
			OnPeerDown: func(peer int, err error) {
				if *servePeerGrace > 0 && !shuttingDown.Load() {
					fmt.Fprintf(os.Stderr, "serve: peer %d link down (%v); quiescing up to %v\n",
						peer, err, *servePeerGrace)
				}
			},
			OnPeerUp: func(peer int) {
				if *servePeerGrace > 0 && !shuttingDown.Load() {
					fmt.Fprintf(os.Stderr, "serve: peer %d link up\n", peer)
				}
			},
			OnUser: func(src int, payload []byte) {
				if len(payload) == 0 {
					return
				}
				switch payload[0] {
				case peerMsgResult:
					d := wal.NewDec(payload[1:])
					count, err1 := d.U64()
					sum, err2 := d.U64()
					if err1 == nil && err2 == nil {
						partials <- [2]uint64{count, sum}
					}
				case peerMsgDone:
					shuttingDown.Store(true)
					doneOnce.Do(func() { close(done) })
				case peerMsgCut:
					d := wal.NewDec(payload[1:])
					gen, err1 := d.U64()
					epoch, err2 := d.U64()
					if err1 == nil && err2 == nil {
						select {
						case cutCh <- [3]uint64{uint64(src), gen, epoch}:
						default:
						}
					}
				case peerMsgReady:
					d := wal.NewDec(payload[1:])
					gen, err := d.U64()
					if err == nil {
						select {
						case readyCh <- [2]uint64{uint64(src), gen}:
						default:
						}
					}
				}
			},
		})
		if err != nil {
			fatal("%v", err)
		}
		node = n
		fmt.Printf("process %d/%d on %s: %d of %d workers local; connecting mesh\n",
			rank, procs, node.Addr(), w/procs, w)
		if err := node.Connect(); err != nil {
			fatal("connect: %v", err)
		}
	}

	// interrupted reports whether an error (or a WaitDone abort) is the
	// resync watcher tearing the server down, as opposed to a real failure.
	interrupted := func(err error) bool {
		return pendingGen.Load() > 0 && (err == nil || errors.Is(err, server.ErrClosed))
	}

	for iter := 0; ; iter++ {
		finished := servePeerGeneration(peerGenCtx{
			node: node, procs: procs, rank: rank, w: w, rounds: rounds,
			durable: durable, inc: inc, iter: iter,
			pendingGen: &pendingGen, curMu: &curMu, cur: &cur,
			resyncCh: resyncCh, cutCh: cutCh, readyCh: readyCh,
			partials: partials, done: done,
			shuttingDown: &shuttingDown,
			fatal:        fatal, interrupted: interrupted,
		})
		if finished {
			return
		}
	}
}

// peerGenCtx carries one generation's shared state into the driver.
type peerGenCtx struct {
	node         *mesh.Node
	procs, rank  int
	w            int
	rounds       uint64
	durable      bool
	inc          uint64
	iter         int
	pendingGen   *atomic.Uint64
	curMu        *sync.Mutex
	cur          **server.Server
	resyncCh     chan struct{}
	cutCh        chan [3]uint64
	readyCh      chan [2]uint64
	partials     chan [2]uint64
	done         chan struct{}
	shuttingDown *atomic.Bool
	fatal        func(string, ...any)
	interrupted  func(error) bool
}

// servePeerGeneration runs one generation of the cluster: resync the mesh if
// a peer rejoined, build the server, restore to the agreed cut when
// recovering, drive the remaining rounds, and gather the RESULT. Returns
// true when the run completed (process should exit), false when a resync
// interrupted it and the caller should loop into the next generation.
func servePeerGeneration(c peerGenCtx) bool {
	fatal := c.fatal
	gen := uint64(0)
	if c.node != nil {
		gen = c.node.Generation()
		if gen > 0 {
			if !c.durable {
				fatal("peer restarted (generation %d) but -data-dir is unset; cannot resync without durable state", gen)
			}
			c.node.Resync(gen)
			if err := c.node.WaitResynced(gen, peerResyncTimeout); err != nil {
				fatal("resync: %v", err)
			}
			fmt.Printf("resynced mesh at generation %d\n", gen)
		}
	}
	c.pendingGen.Store(0)

	recovering := c.durable && (*serveRecover || c.inc > 0 || c.iter > 0)
	opts := server.Options{}
	if c.durable {
		opts = serveServerOptions()
		opts.Recover = recovering
	}
	var s *server.Server
	if c.node != nil {
		s = server.NewFabric(c.node, opts)
	} else if c.durable {
		s = server.NewOpts(c.w, opts)
	} else {
		s = server.New(c.w)
	}
	c.curMu.Lock()
	*c.cur = s
	c.curMu.Unlock()
	teardown := func() {
		c.curMu.Lock()
		*c.cur = nil
		c.curMu.Unlock()
		s.Close()
	}
	if c.pendingGen.Load() > gen {
		teardown() // crashed again while we were building
		return false
	}

	var edges *server.Source[uint64, uint64]
	var err error
	if c.durable {
		edges, err = server.NewSourceOpts(s, "edges", core.U64(), server.SourceOptions[uint64, uint64]{
			Durable:  true,
			KeyCodec: wal.U64Codec(),
			ValCodec: wal.U64Codec(),
		})
	} else {
		edges, err = server.NewSource(s, "edges", core.U64())
	}
	if err != nil {
		if c.interrupted(err) {
			teardown()
			return false
		}
		fatal("%v", err)
	}

	start := uint64(0)
	if recovering {
		local, rerr := edges.RecoverableEpoch()
		if rerr != nil {
			if c.interrupted(rerr) {
				teardown()
				return false
			}
			fatal("recoverable epoch: %v", rerr)
		}
		// Agree on the cluster-wide cut: the minimum of every rank's locally
		// recoverable epoch. Shards seal independently, so the ranks' logs
		// extend unevenly; restoring anywhere above the minimum would leave
		// some rank unable to reproduce the prefix.
		min := local
		if c.node != nil {
			payload := []byte{peerMsgCut}
			payload = wal.AppendU64(payload, gen)
			payload = wal.AppendU64(payload, local)
			for p := 0; p < c.procs; p++ {
				if p != c.rank {
					c.node.SendUser(p, payload)
				}
			}
			deadline := time.After(peerDrainTimeout)
			for got := 0; got < c.procs-1; {
				select {
				case cut := <-c.cutCh:
					if cut[1] != gen {
						continue // stale generation
					}
					got++
					if cut[2] < min {
						min = cut[2]
					}
				case <-c.resyncCh:
					if c.pendingGen.Load() > gen {
						teardown()
						return false
					}
				case <-deadline:
					fatal("timed out exchanging recovery cuts (generation %d)", gen)
				}
			}
		}
		if _, err := edges.RestoreTo(min); err != nil {
			if c.interrupted(err) {
				teardown()
				return false
			}
			fatal("restore: %v", err)
		}
		start = min
		fmt.Printf("recovered \"edges\" through epoch %d (generation %d cut, local %d)\n", start, gen, local)
		if c.node != nil {
			// Readiness barrier: no rank may drive exchange traffic until
			// every rank's trace is restored — data arriving mid-restore
			// would land in a spine the restore is about to overwrite.
			payload := []byte{peerMsgReady}
			payload = wal.AppendU64(payload, gen)
			for p := 0; p < c.procs; p++ {
				if p != c.rank {
					c.node.SendUser(p, payload)
				}
			}
			deadline := time.After(peerDrainTimeout)
			for got := 0; got < c.procs-1; {
				select {
				case r := <-c.readyCh:
					if r[1] != gen {
						continue
					}
					got++
				case <-c.resyncCh:
					if c.pendingGen.Load() > gen {
						teardown()
						return false
					}
				case <-deadline:
					fatal("timed out at the recovery readiness barrier (generation %d)", gen)
				}
			}
		}
	}

	// Completion tracker: "sealed epoch" lines stream as the probe frontier
	// passes each round — a printed epoch is durably in this rank's log, the
	// pacing signal the chaos harness kills on.
	trackerDone := make(chan struct{})
	go func() {
		defer close(trackerDone)
		reported := start
		for reported < c.rounds {
			if !s.WaitFor(func() bool { return edges.CompletedEpochs() > reported }) {
				return
			}
			for done := edges.CompletedEpochs(); reported < done && reported < c.rounds; reported++ {
				fmt.Printf("sealed epoch %d\n", reported)
			}
		}
	}()

	// Each process feeds its slice of every round (update index mod P) into
	// its first local worker; the exchange re-partitions by key, so ownership
	// of the arrangement shards is identical however the input was split.
	drive := func() bool {
		for round := start; round < c.rounds; round++ {
			all := peerRound(round, *serveNodes, *serveChurn)
			share := all[:0]
			for i, u := range all {
				if i%c.procs == c.rank {
					share = append(share, u)
				}
			}
			if err := edges.Update(share); err != nil {
				if c.interrupted(err) {
					return false
				}
				fatal("update: %v", err)
			}
			if _, err := edges.Advance(); err != nil {
				if c.interrupted(err) {
					return false
				}
				fatal("advance: %v", err)
			}
			if c.durable {
				due := *serveCkpt > 0 && (round+1)%uint64(*serveCkpt) == 0
				grown := *serveCkptB > 0 && s.LogBytes() >= *serveCkptB
				if due || grown {
					if err := s.Checkpoint(); err != nil {
						if c.interrupted(err) {
							return false
						}
						fatal("checkpoint: %v", err)
					}
					fmt.Printf("checkpointed after round %d (log %d bytes)\n", round, s.LogBytes())
				}
			}
		}
		if err := edges.Sync(); err != nil {
			if c.interrupted(err) {
				return false
			}
			fatal("sync: %v", err)
		}
		return true
	}
	if !drive() {
		teardown()
		<-trackerDone
		return false
	}

	captured := &dd.Captured[uint64, uint64]{}
	q, err := s.Install("tc", func(wk *timely.Worker, g *timely.Graph) server.Built {
		imported := edges.ImportInto(g)
		paths := datalog.TC(dd.Flatten(imported))
		dd.Capture(paths, captured)
		return server.Built{Probe: dd.Probe(paths), Teardown: func() { imported.Cancel() }}
	})
	if err != nil {
		if c.interrupted(err) {
			teardown()
			<-trackerDone
			return false
		}
		fatal("install tc: %v", err)
	}
	// The snapshot import compacts its history to the open epoch, so the
	// query's first complete results land when that epoch seals: flush one
	// more (empty) epoch and wait for it, exactly as interactive installs do.
	if _, err := edges.Advance(); err != nil {
		if c.interrupted(err) {
			teardown()
			<-trackerDone
			return false
		}
		fatal("advance: %v", err)
	}
	if !q.WaitDone(lattice.Ts(c.rounds)) {
		if c.pendingGen.Load() > 0 {
			teardown()
			<-trackerDone
			return false
		}
		fatal("server stopped before tc completed")
	}
	<-trackerDone
	count, sum := peerChecksum(captured)

	if c.procs == 1 {
		fmt.Printf("RESULT count=%d checksum=%016x\n", count, sum)
		q.Uninstall()
		s.Close()
		return true
	}

	// Result gather. Followers report partials and wait for release; rank 0
	// aggregates, prints, and releases. The query is abandoned in place
	// rather than uninstalled: uninstall drains a distributed dataflow, and
	// the mesh is about to come down anyway.
	if c.rank != 0 {
		payload := []byte{peerMsgResult}
		payload = wal.AppendU64(payload, uint64(count))
		payload = wal.AppendU64(payload, sum)
		c.node.SendUser(0, payload)
		select {
		case <-c.done:
		case <-c.resyncCh:
			if c.pendingGen.Load() > 0 {
				teardown()
				return false
			}
			fatal("spurious resync signal during result gather")
		case <-time.After(peerDrainTimeout):
			fatal("timed out waiting for the coordinator's shutdown signal")
		}
		c.node.Close()
		s.Close()
		return true
	}
	total, totalSum := count, sum
	for i := 1; i < c.procs; i++ {
		select {
		case p := <-c.partials:
			total += int64(p[0])
			totalSum += p[1]
		case <-c.resyncCh:
			if c.pendingGen.Load() > 0 {
				teardown()
				return false
			}
			fatal("spurious resync signal during result gather")
		case <-time.After(peerDrainTimeout):
			fatal("timed out waiting for peer results (%d of %d received)", i-1, c.procs-1)
		}
	}
	fmt.Printf("RESULT count=%d checksum=%016x\n", total, totalSum)
	c.shuttingDown.Store(true)
	for p := 1; p < c.procs; p++ {
		c.node.SendUser(p, []byte{peerMsgDone})
	}
	c.node.Close() // drains the done frames before closing connections
	s.Close()
	return true
}

// peerClusterKey hashes the scenario parameters every process must agree on;
// the mesh handshake refuses peers whose keys differ, catching mismatched
// command lines before they corrupt a run.
func peerClusterKey(procs, workers int) uint64 {
	k := core.Mix64(0x6b70672d70656572) // "kpg-peer"
	for _, v := range []uint64{*serveNodes, uint64(*serveChurn), uint64(*serveRounds),
		uint64(workers), uint64(procs)} {
		k = core.Mix64(k ^ v)
	}
	return k
}

// peerRound derives round r's updates from r alone, like durableRound, but
// confines every edge to one 16-node component so transitive closure stays
// bounded while the graph churns. Insertions at round r are retracted at
// round r+5, keeping the live collection a sliding window. Deriving purely
// from r is also what makes crash recovery exact: a restored rank re-issues
// rounds from the cut and feeds byte-identical updates.
func peerRound(round, nodes uint64, churn int) []core.Update[uint64, uint64] {
	comps := nodes / 16
	if comps == 0 {
		comps = 1
	}
	edge := func(r uint64, i int) (uint64, uint64) {
		h := core.Mix64(r*1000003 + uint64(i)*13 + 1)
		comp := (h % comps) * 16
		return (comp + (h>>32)%16) % nodes, (comp + (h>>36)%16) % nodes
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

// peerChecksum reduces this process's captured shard of the query output to
// an order-independent count and checksum; partials from disjoint shards add
// commutatively into the cluster-wide RESULT.
func peerChecksum(captured *dd.Captured[uint64, uint64]) (int64, uint64) {
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
