package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mesh"
	knet "repro/internal/net"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveConfig is the serve command line, parsed. validate checks it
// without consulting the flag package, so a table test can drive it.
type serveConfig struct {
	workers, churn, rounds, process int
	ckptEvery, groupMs, subLag      int
	nodes, maxLag                   uint64
	ckptBytes, spillBytes           int64
	dataDir, listen, peers          string
	recover, fsync                  bool
	peerGrace                       time.Duration
	set                             map[string]bool // flags given on the command line
}

var serveFlags serveConfig

func init() { serveFlags.register(flag.CommandLine) }

func (c *serveConfig) register(fs *flag.FlagSet) {
	fs.Uint64Var(&c.nodes, "nodes", 20000, "serve: graph node count")
	fs.IntVar(&c.churn, "churn", 4000, "serve: edge updates per round")
	fs.IntVar(&c.rounds, "rounds", 25, "serve: churn rounds of the cluster scenario")
	fs.StringVar(&c.dataDir, "data-dir", "", "serve: durable WAL directory for the cluster scenario, or for -listen")
	fs.BoolVar(&c.recover, "recover", false, "serve: restore arrangements from the -data-dir logs before streaming")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 10, "serve: checkpoint interval on the durable path — rounds for the cluster scenario, seconds under -listen (0 disables)")
	fs.StringVar(&c.listen, "listen", "", "serve: address to serve the wire protocol on (e.g. 127.0.0.1:7071); clients drive sources and queries remotely")
	fs.BoolVar(&c.fsync, "fsync", false, "serve: fsync WAL appends on the durable path (requires -data-dir)")
	fs.IntVar(&c.groupMs, "group-commit-ms", 0, "serve: group-commit interval in milliseconds for WAL fsyncs — one fsync per dirty log per interval instead of per append (requires -fsync; 0 syncs every append)")
	fs.Int64Var(&c.ckptBytes, "checkpoint-bytes", 0, "serve: additionally checkpoint whenever the batch log exceeds this many bytes (requires -data-dir; 0 disables)")
	fs.Uint64Var(&c.maxLag, "max-lag", 0, "serve: adaptive batching bound — pending epochs coalesce into one physical seal while completion lags this many seals behind (one process, with -listen or -data-dir; 0 = default)")
	fs.IntVar(&c.subLag, "sub-lag", 0, "serve: undelivered live result deltas one subscriber may hold before it is reset onto a fresh snapshot (requires -listen; 0 = default, negative = unbounded)")
	fs.Int64Var(&c.spillBytes, "spill-bytes", 0, "serve: per-worker resident budget for the edges arrangement — older runs spill to block files under the shard directory when resident bytes exceed this (one process, requires -data-dir; 0 disables)")
	fs.StringVar(&c.peers, "peers", "", "serve: comma-separated mesh address of every process in rank order; runs the cluster scenario")
	fs.IntVar(&c.process, "process", 0, "serve: this process's rank within -peers (0-based)")
	fs.DurationVar(&c.peerGrace, "peer-grace", 0, "serve: how long to quiesce and redial after losing a peer before failing the cluster (0 = fail-stop immediately, the default)")
}

// setFlags names the flags given on fs's command line.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func (c serveConfig) peerAddrs() []string {
	if c.peers == "" {
		return nil
	}
	return strings.Split(c.peers, ",")
}

// validate rejects flag combinations up front, before any socket is bound
// or on-disk log touched: a flag nothing on the chosen path reads, a knob
// without the layer it tunes, or a mis-ranked process that would otherwise
// wedge its whole cluster's startup barrier.
func (c serveConfig) validate() error {
	addrs := c.peerAddrs()
	for i, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	var scenario []string
	for _, f := range []string{"nodes", "churn", "rounds"} {
		if c.set[f] {
			scenario = append(scenario, "-"+f)
		}
	}
	switch {
	case c.workers < 1:
		return fmt.Errorf("-workers must be positive (got %d)", c.workers)
	case c.peers == "" && c.set["process"]:
		return errors.New("-process names a rank within -peers and requires it")
	case c.peers == "" && c.set["peer-grace"]:
		return errors.New("-peer-grace tunes the mesh failure mode and requires -peers")
	case c.peers != "" && c.listen != "":
		return errors.New("-listen serves remote clients from one process and is incompatible with -peers")
	case len(addrs) > 1 && (c.set["spill-bytes"] || c.set["max-lag"]):
		return fmt.Errorf("-spill-bytes and -max-lag tune a one-process run; a cluster of %d processes "+
			"keeps its spines resident and seals every round", len(addrs))
	case c.peerGrace < 0:
		return fmt.Errorf("-peer-grace must be >= 0 (got %v); 0 fails stop on first peer loss", c.peerGrace)
	case c.peers != "" && (c.process < 0 || c.process >= len(addrs)):
		return fmt.Errorf("-process %d out of range for %d peers", c.process, len(addrs))
	case c.peers != "" && c.workers%len(addrs) != 0:
		return fmt.Errorf("-workers %d must be a positive multiple of the %d processes in -peers "+
			"(every process hosts an equal shard)", c.workers, len(addrs))
	case c.recover && c.dataDir == "":
		return errors.New("-recover requires -data-dir (there is no log to recover without one)")
	case c.ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d); use 0 to disable", c.ckptEvery)
	case c.fsync && c.dataDir == "":
		return errors.New("-fsync requires -data-dir (there is no log to sync without one)")
	case c.groupMs < 0:
		return fmt.Errorf("-group-commit-ms must be >= 0 (got %d)", c.groupMs)
	case c.groupMs > 0 && !c.fsync:
		return errors.New("-group-commit-ms batches fsyncs and requires -fsync")
	case c.ckptBytes < 0:
		return fmt.Errorf("-checkpoint-bytes must be >= 0 (got %d); use 0 to disable", c.ckptBytes)
	case c.ckptBytes > 0 && c.dataDir == "":
		return errors.New("-checkpoint-bytes requires -data-dir (there is no log to bound without one)")
	case c.spillBytes < 0:
		return fmt.Errorf("-spill-bytes must be >= 0 (got %d); use 0 to disable", c.spillBytes)
	case c.spillBytes > 0 && c.dataDir == "":
		return errors.New("-spill-bytes requires -data-dir (block files need a manifest to own their lifecycle)")
	case c.set["sub-lag"] && c.listen == "":
		return errors.New("-sub-lag bounds remote subscribers and requires -listen")
	case c.set["max-lag"] && c.listen == "" && c.dataDir == "":
		return errors.New("-max-lag bounds the seal queue of -listen or a -data-dir run; nothing else reads it")
	case c.listen != "" && len(scenario) > 0:
		return fmt.Errorf("-listen serves remote clients; the scenario flags %v drive the cluster scenario and are incompatible", scenario)
	}
	return nil
}

func (c serveConfig) serverOptions() server.Options {
	return server.Options{
		DataDir:          c.dataDir,
		Recover:          c.recover,
		Fsync:            c.fsync,
		GroupCommitEvery: time.Duration(c.groupMs) * time.Millisecond,
	}
}

// serve dispatches on the validated flags: -listen serves the wire
// protocol, and anything else runs the cluster scenario — volatile and in
// one process without -data-dir and -peers.
func serve() {
	c := serveFlags
	c.workers = *workers
	c.set = setFlags(flag.CommandLine)
	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if c.listen != "" {
		serveNet(c)
	} else {
		serveCluster(c)
	}
}

// serveCluster runs this process's part of the cluster scenario
// (internal/cluster). Losing a peer for good exits with status 3 and the
// text "peer loss"; any other failure exits 1.
func serveCluster(c serveConfig) {
	_, err := cluster.Run(context.Background(), cluster.Config{
		Peers:           c.peerAddrs(),
		Rank:            c.process,
		Workers:         c.workers,
		Nodes:           c.nodes,
		Churn:           c.churn,
		Rounds:          uint64(c.rounds),
		PeerGrace:       c.peerGrace,
		Server:          c.serverOptions(),
		CheckpointEvery: uint64(c.ckptEvery),
		CheckpointBytes: c.ckptBytes,
		MaxLag:          c.maxLag,
		SpillBytes:      c.spillBytes,
		Out:             os.Stdout,
	})
	var perr *mesh.PeerError
	switch {
	case errors.As(err, &perr):
		fmt.Fprintf(os.Stderr, "serve: peer loss: %v\n", err)
		os.Exit(3)
	case err != nil:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
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
func serveNet(c serveConfig) {
	w := clampWorkers(4)
	durable := c.dataDir != ""
	s := server.NewOpts(w, c.serverOptions())
	defer s.Close()

	edges, err := server.NewSourceOpts(s, "edges", core.U64(), server.SourceOptions[uint64, uint64]{
		Durable:    durable,
		KeyCodec:   wal.U64Codec(),
		ValCodec:   wal.U64Codec(),
		SpillBytes: c.spillBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if c.recover {
		rec, err := s.Restore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recovered \"edges\" through epoch %d from the batch log (no source replay)\n", rec["edges"])
	}

	fe := knet.NewFrontendOpts(s, knet.FrontendOptions{
		SubscriberMaxLag: c.subLag,
		BatchMaxLag:      c.maxLag,
	})
	if err := fe.RegisterSource(edges); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	ln, err := stdnet.Listen("tcp", c.listen)
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
	if durable && (c.ckptEvery > 0 || c.ckptBytes > 0) {
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
					due := c.ckptEvery > 0 && time.Since(last) >= time.Duration(c.ckptEvery)*time.Second
					grown := c.ckptBytes > 0 && s.LogBytes() >= c.ckptBytes
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
