// Package cluster drives the built-in streaming scenario on one process's
// shard of a worker cluster: a deterministic churn workload streams into a
// shared "edges" arrangement, a transitive-closure query attaches to it by
// snapshot import once the last round completes, and the processes gather
// one order-independent RESULT — bit-identical however many processes share
// the workers and however often they crashed on the way.
//
// One process (Config.Peers with fewer than two addresses) runs every
// worker over timely's local fabric; more run one shard each over a TCP mesh
// (internal/mesh). Both are the same driver. The mesh adds what a rank
// needs to rejoin after a crash: the incarnation file, the generation
// resync, the restore-cut agreement and the readiness barrier, all carried
// with the result gather on mesh user frames.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/server"
	"repro/internal/timely"
	"repro/internal/wal"
)

// Config describes one process's part in a run. Every rank of a cluster
// passes the same Config apart from Rank and the data directory.
type Config struct {
	// Peers lists every process's mesh address in rank order, and Rank is
	// this process's index in it; with fewer than two entries the whole
	// cluster runs in this process, with no mesh.
	Peers []string
	Rank  int
	// Workers is the global worker count, sharded evenly across Peers.
	Workers int
	// Nodes, Churn and Rounds shape the workload (roundUpdates).
	Nodes  uint64
	Churn  int
	Rounds uint64
	// PeerGrace is mesh.Options.PeerGrace: how long a rank quiesces for a
	// lost peer before the loss ends the run.
	PeerGrace time.Duration
	// Server configures durability. With a DataDir each rank logs its own
	// workers' shards; Recover restores them before streaming. A mesh rank
	// also recovers without Recover once its incarnation file says it has
	// run before: that restart is what the rest of the cluster resyncs on.
	Server server.Options
	// CheckpointEvery checkpoints a durable run after every that many
	// rounds, CheckpointBytes whenever its log outgrows that size; zero
	// disables either.
	CheckpointEvery uint64
	CheckpointBytes int64
	// MaxLag and SpillBytes tune a durable one-process run: its seals go
	// through a server.Batcher bounded by MaxLag (see server.NewBatcher for
	// why a mesh seals every round instead), and each worker's spine spills
	// past SpillBytes resident bytes.
	MaxLag     uint64
	SpillBytes int64
	// Out receives the progress lines and, on rank 0, the RESULT line, one
	// Write per line from several goroutines (so it must be safe for
	// concurrent use, as an *os.File is); nil discards them.
	Out io.Writer

	// bound, when set, is called with this rank's bound mesh address and
	// returns every rank's (tests listen on port 0).
	bound func(rank int, addr string) []string
}

// Result is what a run computed.
type Result struct {
	// Resumed is the epoch the last generation restored to (0 unless it
	// recovered).
	Resumed uint64
	// Count and Checksum summarise the closure over the final collection:
	// its size and the sum of a hash of every pair, cluster-wide on every
	// rank.
	Count    int64
	Checksum uint64
}

// Mesh user frames: a kind byte, then the sender's generation and two
// values. The generation tag keeps a message sent before a resync from
// counting toward the exchange after it.
const (
	msgCut    = byte('C') // a: the sender's recoverable epoch
	msgReady  = byte('Y') // the sender's restore finished
	msgResult = byte('R') // follower to rank 0: a count, b checksum
	msgDone   = byte('D') // rank 0 to followers: the total; shut down
)

type msg struct{ gen, a, b uint64 }

// peerTimeout bounds every wait on peers: a resync, an exchange, the result
// gather. A dead peer surfaces as a link error or a resync first; this
// only catches a wedged one.
const peerTimeout = 60 * time.Second

// errResync ends a generation that a restarted peer's rejoin interrupted;
// Run starts the next one.
var errResync = errors.New("cluster: a restarted peer rejoined")

// process is one rank's state across generations.
type process struct {
	cfg   Config
	ctx   context.Context
	procs int
	node  *mesh.Node // nil for a one-process cluster
	inc   uint64     // this rank's incarnation
	inbox map[byte]chan msg
	wake  chan struct{} // nudges a gather after an interrupt

	mu      sync.Mutex
	cur     *server.Server // the running generation's server
	failure error          // the peer loss that ended the run

	rejoined     atomic.Uint64 // highest generation a rejoin announced
	shuttingDown atomic.Bool   // result released: dropped links are expected
}

// Run drives cfg.Rounds rounds of the workload and returns the gathered
// result. It ends early with ctx's error once ctx is cancelled, with the
// *mesh.PeerError when a peer is lost for good, and with an ordinary error
// on any other failure. A peer that restarts and rejoins does not end it:
// every rank tears its dataflows down, restores to the agreed cut and
// re-drives the remaining rounds, inside Run.
func Run(ctx context.Context, cfg Config) (Result, error) {
	p := newProcess(ctx, cfg)
	defer context.AfterFunc(ctx, p.interrupt)()
	if p.procs > 1 {
		if err := p.connect(); err != nil {
			return Result{}, err
		}
		defer p.node.Close()
	}
	for iter := 0; ; iter++ {
		r, err := p.generation(iter)
		if !errors.Is(err, errResync) {
			return r, err
		}
	}
}

func newProcess(ctx context.Context, cfg Config) *process {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	p := &process{
		cfg:   cfg,
		ctx:   ctx,
		procs: max(len(cfg.Peers), 1),
		inbox: map[byte]chan msg{},
		wake:  make(chan struct{}, 1),
	}
	// Each peer sends one message of a kind per generation; the room for
	// four generations' worth holds the stale ones a gather has yet to
	// drop. A full inbox drops the newcomer.
	for _, k := range []byte{msgCut, msgReady, msgResult, msgDone} {
		p.inbox[k] = make(chan msg, 4*p.procs)
	}
	return p
}

// connect bumps a durable rank's incarnation, binds its mesh address and
// waits until every peer is connected.
func (p *process) connect() error {
	cfg := p.cfg
	if dir := cfg.Server.DataDir; dir != "" {
		inc, err := nextIncarnation(dir)
		if err != nil {
			return fmt.Errorf("incarnation: %w", err)
		}
		p.inc = inc
	}
	logPeer := func(format string, args ...any) {
		if cfg.PeerGrace > 0 && !p.shuttingDown.Load() {
			p.logf(format, args...)
		}
	}
	n, err := mesh.Listen(mesh.Options{
		Addrs:       cfg.Peers,
		Process:     cfg.Rank,
		Workers:     cfg.Workers,
		ClusterKey:  clusterKey(cfg),
		DialTimeout: 30 * time.Second,
		Incarnation: p.inc,
		PeerGrace:   cfg.PeerGrace,
		OnFailure:   p.fail,
		OnResync: func(gen uint64) {
			p.rejoined.Store(gen)
			p.interrupt()
		},
		OnPeerDown: func(peer int, err error) {
			logPeer("peer %d link down (%v); quiescing up to %v\n", peer, err, cfg.PeerGrace)
		},
		OnPeerUp: func(peer int) { logPeer("peer %d link up\n", peer) },
		OnUser:   p.deliver,
	})
	if err != nil {
		return err
	}
	p.node = n
	if cfg.bound != nil {
		if err := n.SetAddrs(cfg.bound(cfg.Rank, n.Addr().String())); err != nil {
			n.Close()
			return err
		}
	}
	p.logf("process %d/%d on %s: %d of %d workers local; connecting mesh\n",
		cfg.Rank, p.procs, n.Addr(), cfg.Workers/p.procs, cfg.Workers)
	if err := n.Connect(); err != nil {
		n.Close()
		if perr := n.Err(); perr != nil {
			return perr
		}
		return err
	}
	return nil
}

// generation runs the cluster once over a fresh server: resync the mesh if
// a peer rejoined, restore to the agreed cut when recovering, drive the
// remaining rounds, and read and gather the result. errResync means a
// rejoin interrupted it and the caller should run the next one.
func (p *process) generation(iter int) (Result, error) {
	cfg := p.cfg
	durable := cfg.Server.DataDir != ""
	var gen uint64
	var fab timely.Fabric = timely.NewLocalFabric(cfg.Workers)
	if p.node != nil {
		fab = p.node
		if gen = p.node.Generation(); gen > 0 {
			if !durable {
				return Result{}, fmt.Errorf("peer restarted (generation %d) but there is no data dir to resync from", gen)
			}
			p.node.Resync(gen)
			if err := p.node.WaitResynced(gen, peerTimeout); err != nil {
				return Result{}, p.stop(gen, fmt.Errorf("resync: %w", err))
			}
			p.logf("resynced mesh at generation %d\n", gen)
		}
	}

	opts := cfg.Server
	opts.Recover = durable && (opts.Recover || p.inc > 0 || iter > 0)
	s := server.NewFabric(fab, opts)
	p.setCurrent(s)
	var b *server.Batcher[uint64, uint64]
	var tracker sync.WaitGroup
	defer func() {
		if b != nil {
			b.Close()
		}
		p.setCurrent(nil)
		s.Close()
		tracker.Wait()
	}()
	if err := p.check(gen); err != nil {
		return Result{}, err // interrupted before the server was current
	}

	edges, err := server.NewSourceOpts(s, "edges", core.U64(), server.SourceOptions[uint64, uint64]{
		Durable:    durable,
		KeyCodec:   wal.U64Codec(),
		ValCodec:   wal.U64Codec(),
		SpillBytes: cfg.SpillBytes,
	})
	if err != nil {
		return Result{}, p.stop(gen, err)
	}
	res := Result{}
	if opts.Recover {
		if res.Resumed, err = p.restore(edges, gen); err != nil {
			return Result{}, err
		}
	}

	// "sealed epoch" lines stream as the probe passes each round, so a
	// printed epoch is in this rank's log: the kill point the crash smokes
	// wait for.
	tracker.Add(1)
	go func() {
		defer tracker.Done()
		for done := res.Resumed; done < cfg.Rounds; {
			if !s.WaitFor(func() bool { return edges.CompletedEpochs() > done }) {
				return
			}
			for c := edges.CompletedEpochs(); done < c && done < cfg.Rounds; done++ {
				p.logf("sealed epoch %d\n", done)
			}
		}
	}()

	if p.procs == 1 && durable {
		b = server.NewBatcher(edges, server.BatcherOptions{MaxLag: cfg.MaxLag})
	}
	for round := res.Resumed; round < cfg.Rounds; round++ {
		if err := p.check(gen); err != nil {
			return Result{}, err
		}
		// Each rank feeds its residue of the round into its first local
		// worker; the exchange re-partitions by key, so the arrangement's
		// shards are the same however the input was split.
		all := roundUpdates(round, cfg.Nodes, cfg.Churn)
		share := all[:0]
		for i, u := range all {
			if i%p.procs == cfg.Rank {
				share = append(share, u)
			}
		}
		if b != nil {
			if err = b.Offer(share); err == nil {
				_, err = b.Seal()
			}
		} else if err = edges.Update(share); err == nil {
			_, err = edges.Advance()
		}
		if err == nil && durable {
			err = p.checkpoint(s, round)
		}
		if err != nil {
			return Result{}, p.stop(gen, err)
		}
	}
	if b != nil {
		err = b.Flush()
	}
	if err == nil {
		err = edges.Sync()
	}
	if err != nil {
		return Result{}, p.stop(gen, err)
	}
	tracker.Wait()
	if b != nil {
		st := b.Stats()
		p.logf("batching: %d logical epochs in %d physical seals (max coalesced %d)\n",
			st.LogicalSeals, st.PhysicalSeals, st.MaxCoalesced)
	}

	if res.Count, res.Checksum, err = readClosure(s, edges); err != nil {
		return Result{}, p.stop(gen, err)
	}
	if p.node != nil {
		if res, err = p.total(gen, res); err != nil {
			return Result{}, err
		}
		p.node.Close() // drains the release frames; the server closes after
	}
	if cfg.Rank == 0 {
		p.logf("RESULT count=%d checksum=%016x\n", res.Count, res.Checksum)
	}
	if cfg.SpillBytes > 0 {
		// A final checkpoint collects every dead-listed block file, so the
		// files on disk must now be exactly the ones the manifest names.
		if err := s.Checkpoint(); err != nil {
			return Result{}, fmt.Errorf("final checkpoint: %w", err)
		}
		files, refs, err := edges.SpillStats()
		if err != nil {
			return Result{}, fmt.Errorf("spill stats: %w", err)
		}
		p.logf("SPILL files=%d refs=%d\n", files, refs)
	}
	return res, nil
}

// restore rebuilds edges from this rank's logs at the cut every rank can
// reproduce: shards seal independently, so the ranks' logs extend unevenly
// and the cut is their minimum. It returns once every rank has restored,
// since exchange traffic arriving earlier would land in a spine the restore
// is about to replace.
func (p *process) restore(edges *server.Source[uint64, uint64], gen uint64) (uint64, error) {
	local, err := edges.RecoverableEpoch()
	if err != nil {
		return 0, p.stop(gen, fmt.Errorf("recoverable epoch: %w", err))
	}
	cut, err := p.agree(msgCut, gen, local)
	if err != nil {
		return 0, err
	}
	epoch, err := edges.RestoreTo(cut)
	if err != nil {
		return 0, p.stop(gen, fmt.Errorf("restore: %w", err))
	}
	p.logf("recovered \"edges\" through epoch %d (generation %d cut, local %d)\n", epoch, gen, local)
	_, err = p.agree(msgReady, gen, 0)
	return epoch, err
}

// checkpoint checkpoints after round when the round count or the log size
// calls for it.
func (p *process) checkpoint(s *server.Server, round uint64) error {
	due := p.cfg.CheckpointEvery > 0 && (round+1)%p.cfg.CheckpointEvery == 0
	grown := p.cfg.CheckpointBytes > 0 && s.LogBytes() >= p.cfg.CheckpointBytes
	if !due && !grown {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	p.logf("checkpointed after round %d (log %d bytes)\n", round, s.LogBytes())
	return nil
}

// total sums the ranks' partial results at rank 0, which hands the total
// back with the release: every rank returns the cluster-wide figure.
func (p *process) total(gen uint64, r Result) (Result, error) {
	if p.cfg.Rank != 0 {
		p.send(0, msgResult, gen, uint64(r.Count), r.Checksum)
		err := p.gather(msgDone, gen, 1, func(m msg) { r.Count, r.Checksum = int64(m.a), m.b })
		return r, err
	}
	err := p.gather(msgResult, gen, p.procs-1, func(m msg) {
		r.Count += int64(m.a)
		r.Checksum += m.b
	})
	if err != nil {
		return r, err
	}
	p.shuttingDown.Store(true)
	for q := 1; q < p.procs; q++ {
		p.send(q, msgDone, gen, uint64(r.Count), r.Checksum)
	}
	return r, nil
}

// agree sends v to every peer and returns the minimum of v and every
// peer's value for this generation: the restore cut when v is a
// recoverable epoch, a barrier whatever v is.
func (p *process) agree(kind byte, gen, v uint64) (uint64, error) {
	for q := 0; q < p.procs; q++ {
		if q != p.cfg.Rank {
			p.send(q, kind, gen, v, 0)
		}
	}
	err := p.gather(kind, gen, p.procs-1, func(m msg) { v = min(v, m.a) })
	return v, err
}

// gather hands n messages of the given kind and generation to f, dropping
// other generations' messages. It gives up when the generation must stop
// (check) or its peers stay silent past peerTimeout.
func (p *process) gather(kind byte, gen uint64, n int, f func(msg)) error {
	deadline := time.After(peerTimeout)
	for got := 0; got < n; {
		if err := p.check(gen); err != nil {
			return err
		}
		select {
		case m := <-p.inbox[kind]:
			if m.gen == gen {
				got++
				f(m)
			}
		case <-p.wake:
		case <-deadline:
			return fmt.Errorf("timed out waiting on %d peers for %q frames (generation %d)", n-got, kind, gen)
		}
	}
	return nil
}

func (p *process) send(dst int, kind byte, gen, a, b uint64) {
	buf := []byte{kind}
	for _, v := range []uint64{gen, a, b} {
		buf = wal.AppendU64(buf, v)
	}
	p.node.SendUser(dst, buf)
}

// deliver is the mesh's user-frame hook.
func (p *process) deliver(src int, payload []byte) {
	if len(payload) == 0 {
		return
	}
	ch, ok := p.inbox[payload[0]]
	d := wal.NewDec(payload[1:])
	gen, err1 := d.U64()
	a, err2 := d.U64()
	b, err3 := d.U64()
	if !ok || errors.Join(err1, err2, err3) != nil {
		return
	}
	if payload[0] == msgDone {
		p.shuttingDown.Store(true) // the coordinator's link drops next
	}
	select {
	case ch <- msg{gen, a, b}:
	default:
	}
}

// fail is the mesh's failure hook: it records the peer loss, unless the
// run is shutting down and dropped links are expected, and interrupts the
// running generation.
func (p *process) fail(err error) {
	if p.shuttingDown.Load() {
		return
	}
	p.mu.Lock()
	if p.failure == nil {
		p.failure = err
	}
	p.mu.Unlock()
	p.interrupt()
}

// interrupt stops the running generation: closing its server makes every
// blocking server call return ErrClosed, and the wake unblocks a gather.
// The mesh stays up.
func (p *process) interrupt() {
	p.mu.Lock()
	if p.cur != nil {
		p.cur.Close()
	}
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *process) setCurrent(s *server.Server) {
	p.mu.Lock()
	p.cur = s
	p.mu.Unlock()
}

// check reports why the generation gen must stop, if it must: the
// caller's cancellation, a lost peer, or a rejoined one (errResync).
func (p *process) check(gen uint64) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	err := p.failure
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if p.rejoined.Load() > gen {
		return errResync
	}
	return nil
}

// stop returns why the generation stopped when err is the fallout of an
// interrupt (a closed server), and err itself otherwise.
func (p *process) stop(gen uint64, err error) error {
	if cerr := p.check(gen); cerr != nil {
		return cerr
	}
	return err
}

func (p *process) logf(format string, args ...any) {
	fmt.Fprintf(p.cfg.Out, format, args...)
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
