// Package server hosts shared arrangements behind a live query-installation
// API: a registry of named, continuously maintained arrangements plus
// install/uninstall of query dataflows against them while updates stream.
//
// This is the paper's headline interactive scenario (§6.2, Fig 5) made
// operational: a newly arriving query attaches to an existing in-memory
// arrangement — receiving the trace's runs by reference, presented as of the
// trace's compaction frontier, followed by the live batch stream — instead of
// rebuilding its own index from the raw history.
//
// Durability: a server started with Options.DataDir logs each durable
// source's sealed batches and compaction-frontier advances to per-worker
// shard logs (internal/wal). Checkpoint rotates a log to the trace's run
// chain as the spine holds it (spilled runs by reference); a restarted server
// (Options.Recover plus Source.Restore or Server.Restore) rebuilds every trace
// directly from the logged runs — no source replay — and resumes epoch
// advancement from the logged frontier. With Options.Fsync, Options.GroupCommitEvery batches
// fsyncs across epochs and shards through one shared committer, so
// durability against machine crashes costs one sync per interval instead of
// one per append.
//
// Ingestion pacing: a Batcher wraps a Source with an adaptive epoch clock —
// every driver round still gets its own logical epoch, but while dataflow
// completion lags the configured bound, pending epochs coalesce into one
// physical seal (the epoch-size tradeoff of the paper's Fig 4, chosen at
// runtime instead of fixed up front).
//
// Threading model: a Server wraps a timely.Cluster. Driver goroutines (the
// callers of this package) touch only mutex-guarded runtime state — input
// handles, probes, posted actions. Everything worker-local (trace agents,
// spines, handles, import subscriptions) is mutated exclusively on the
// owning worker's goroutine, either inside install build closures or via
// posted worker actions. All exported methods are safe for concurrent use
// except Close, which must not race with anything else.
package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// ErrClosed reports an operation against a server that has been closed (or
// raced Close). Remote front-ends translate it into a clean client error
// instead of a wedged or panicking connection.
var ErrClosed = errors.New("server: closed")

// ErrRecovering reports an update or seal against a durable source that is
// registered on a recovering server but not yet restored: the trace and
// epoch clock are not rebuilt, so accepting input would corrupt the log. A
// remote client racing Update against Restore receives this as an error
// frame instead of crashing the server.
var ErrRecovering = errors.New("recovering; call Restore before sending updates")

// ErrOutOfService reports a source whose post-restore log rewrite failed:
// appends would extend a stale on-disk chain, so the source permanently
// refuses input.
var ErrOutOfService = errors.New("out of service (restore log rewrite failed)")

// Server owns a cluster of dataflow workers, the named shared arrangements
// maintained on them, and the live query dataflows installed against them.
type Server struct {
	c    *timely.Cluster
	opts Options
	gc   *wal.GroupCommitter // shared across durable sources; nil without group commit

	mu      sync.Mutex
	closed  bool
	sources map[string]sourceHandle
	queries map[string]*Query
}

// Options tunes a server.
type Options struct {
	// DataDir, when non-empty, enables durability: sources created with
	// SourceOptions.Durable log every sealed batch and compaction-frontier
	// advance to per-worker shard logs under this directory.
	DataDir string
	// Recover makes durable sources replay their logs at registration: each
	// starts pending until Restore rebuilds its trace from the logged
	// batches. Without Recover, pre-existing logs are discarded (restarting
	// without -recover means starting over).
	Recover bool
	// Fsync syncs the log after every record; see wal.Options.Fsync.
	Fsync bool
	// GroupCommitEvery, when positive with Fsync, batches fsyncs across
	// epochs and shards: appends mark their log file dirty and one shared
	// committer syncs every dirty file once per interval, so Fsync costs one
	// sync per group instead of one per record. The machine-crash loss
	// window widens to the interval; SIGKILL recovery is unaffected.
	GroupCommitEvery time.Duration
}

// sourceHandle is the type-erased view of a Source kept in the registry.
type sourceHandle interface {
	sourceName() string
	close()
	closeDurable()
	checkpoint() error
	restore() (uint64, bool, error)
	logBytes() int64
}

// New starts a server with the given number of dataflow workers.
func New(workers int) *Server {
	return NewOpts(workers, Options{})
}

// NewOpts starts a server with explicit options.
func NewOpts(workers int, opts Options) *Server {
	return NewFabric(timely.NewLocalFabric(workers), opts)
}

// NewFabric starts a server over an explicit worker fabric — this process's
// shard of a (possibly multi-process) cluster. Every process must register
// the same sources and install the same queries in the same order; the
// fabric's lifecycle (Close) stays with the caller, which is what lets a
// crash-recovery driver tear the server down and rebuild it over the same
// mesh. Durable sources work per-rank: each process owns shard logs for its
// local workers only (named by global worker index), and recovery clamps
// every rank to the cluster-wide minimum cut via RecoverableEpoch/RestoreTo.
func NewFabric(fab timely.Fabric, opts Options) *Server {
	s := &Server{
		c:       timely.StartCluster(fab),
		opts:    opts,
		sources: make(map[string]sourceHandle),
		queries: make(map[string]*Query),
	}
	if opts.Fsync && opts.GroupCommitEvery > 0 {
		s.gc = wal.NewGroupCommitter(opts.GroupCommitEvery)
	}
	return s
}

// Workers returns the worker count.
func (s *Server) Workers() int { return s.c.Peers() }

// Cluster exposes the underlying cluster (for tests and advanced drivers).
func (s *Server) Cluster() *timely.Cluster { return s.c }

// Close retires every source input and stops the workers. Live queries are
// abandoned in place. Durable sources are abandoned open (their inputs are
// not closed: the terminal empty frontier would mark the log complete and
// unresumable); their logs are released once the workers have stopped.
//
// Close is idempotent, and calls racing it (a checkpoint ticker, a remote
// client's install or update) fail with ErrClosed instead of wedging: the
// closed flag refuses new work, and the cluster refuses posts that slip past
// the flag (timely's Aborted results) rather than queueing them forever.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	srcs := make([]sourceHandle, 0, len(s.sources))
	for _, src := range s.sources {
		srcs = append(srcs, src)
	}
	s.mu.Unlock()
	for _, src := range srcs {
		src.close()
	}
	s.c.Shutdown()
	if s.gc != nil {
		s.gc.Close() // final group commit; workers have stopped appending
	}
	for _, src := range srcs {
		src.closeDurable()
	}
}

// Closed reports whether Close has begun.
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Checkpoint rotates every durable source's log to its traces' run chains
// (Source.Checkpoint), discarding the superseded log generation. Safe to call
// while updates stream. Returns ErrClosed if the server has been closed.
func (s *Server) Checkpoint() error {
	if s.Closed() {
		return ErrClosed
	}
	var errs []error
	for _, src := range s.sourcesByName() {
		if err := src.checkpoint(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// LogBytes reports the total on-disk size of every durable source's current
// log generation (the checkpointed run chain plus the tail appended since).
// Drivers poll it to trigger checkpoints on log growth, not just time.
func (s *Server) LogBytes() int64 {
	var n int64
	for _, src := range s.sourcesByName() {
		n += src.logBytes()
	}
	return n
}

// Restore rebuilds every durable source registered so far from its logged
// batches — no source replay — returning each source's resumed epoch by
// name. Call once, after re-registering the schema on a server started with
// Options.Recover and before sending any updates. Recovery fails atomically:
// on any error the returned map is nil — there is no partially recovered
// epoch set a caller could mistakenly resume from.
func (s *Server) Restore() (map[string]uint64, error) {
	if s.Closed() {
		return nil, ErrClosed
	}
	out := make(map[string]uint64)
	for _, src := range s.sourcesByName() {
		epoch, durable, err := src.restore()
		if err != nil {
			return nil, err
		}
		if durable {
			out[src.sourceName()] = epoch
		}
	}
	return out, nil
}

// sourcesByName snapshots the registry in deterministic order.
func (s *Server) sourcesByName() []sourceHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]sourceHandle, len(names))
	for i, n := range names {
		out[i] = s.sources[n]
	}
	return out
}

// Source is a named input collection maintained as a shared arrangement on
// every worker. Updates stream in through Update/Insert/Remove at the
// current epoch; Advance seals the epoch on every worker and advances the
// arrangement's compaction frontier behind it, so the trace late-arriving
// queries import stays proportional to the live collection.
type Source[K, V any] struct {
	s  *Server
	nm string
	fn core.Funcs[K, V]

	// Per-worker artifacts, written by each worker's build closure and
	// published to the driver by Installed.Wait.
	inputs []*dd.InputCollection[K, V]
	arr    []*core.Arranged[K, V]
	probes []*timely.Probe

	// Durability: per-worker shard logs and their replayed states. Logs are
	// worker-local (touched only on the owning worker's goroutine); states
	// are read-only after NewSourceOpts returns.
	durable bool
	logs    []*wal.ShardLog[K, V]
	states  []*wal.ShardState[K, V]
	stores  []*block.Store[K, V] // per-worker cold tiers; nil without spill

	mu      sync.Mutex
	epoch   uint64
	pending bool // recovery pending: updates refused until Restore runs
	broken  bool // log rewrite failed after restore: permanently refused
}

// SourceOptions tunes a source.
type SourceOptions[K, V any] struct {
	// Durable logs every sealed batch and compaction-frontier advance to
	// per-worker shard logs under the server's DataDir. Requires codecs.
	Durable bool
	// KeyCodec and ValCodec serialize the source's keys and values.
	KeyCodec wal.Codec[K]
	ValCodec wal.Codec[V]
	// SpillBytes, when positive, attaches a disk tier to the arrangement:
	// each worker's spine evicts its oldest runs to block files under
	// <shard>/blocks/ whenever resident bytes exceed this budget, and
	// checkpoints reference spilled runs by name instead of rewriting them.
	// Requires Durable (the manifest and recovery GC own the files).
	SpillBytes int64
}

// NewSource registers a named collection on the server and begins
// maintaining its arrangement. It blocks until every worker has built its
// shard. The name must be unused.
func NewSource[K, V any](s *Server, name string, fn core.Funcs[K, V]) (*Source[K, V], error) {
	return NewSourceOpts(s, name, fn, SourceOptions[K, V]{})
}

// NewSourceOpts is NewSource with explicit options. A durable source on a
// recovering server (Options.Recover) replays its shard logs here but leaves
// the trace empty and the source pending: call Restore (or Server.Restore)
// to rebuild the trace before sending updates.
func NewSourceOpts[K, V any](s *Server, name string, fn core.Funcs[K, V],
	opt SourceOptions[K, V]) (*Source[K, V], error) {

	peers := s.c.Peers()
	src := &Source[K, V]{
		s:      s,
		nm:     name,
		fn:     fn,
		inputs: make([]*dd.InputCollection[K, V], peers),
		arr:    make([]*core.Arranged[K, V], peers),
		probes: make([]*timely.Probe, peers),
	}
	if opt.SpillBytes > 0 && !opt.Durable {
		return nil, fmt.Errorf("server: source %q requests spilling without durability; "+
			"block files need a manifest to own their lifecycle", name)
	}
	if opt.Durable {
		if s.opts.DataDir == "" {
			return nil, fmt.Errorf("server: durable source %q requires a server DataDir", name)
		}
		if opt.KeyCodec == nil || opt.ValCodec == nil {
			return nil, fmt.Errorf("server: durable source %q requires key and value codecs", name)
		}
		if s.opts.Recover {
			// Each process owns its local workers' shards only; a rank's data
			// dir therefore holds LocalWorkers shard logs (global worker
			// indices keep the directory names distinct across ranks).
			if n, err := wal.CountShards(s.opts.DataDir, name); err != nil {
				return nil, err
			} else if n != 0 && n != s.c.LocalWorkers() {
				return nil, fmt.Errorf("server: source %q logged %d shards, process has %d local workers",
					name, n, s.c.LocalWorkers())
			}
		}
		src.durable = true
		src.pending = s.opts.Recover
		src.logs = make([]*wal.ShardLog[K, V], peers)
		src.states = make([]*wal.ShardState[K, V], peers)
		src.stores = make([]*block.Store[K, V], peers)
	}

	// Reserve the name before building anything: a duplicate must never
	// leave an orphan dataflow scheduled on the workers.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := s.sources[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: source %q already registered", name)
	}
	s.sources[name] = src
	s.mu.Unlock()

	openErrs := make([]error, peers)
	inst := s.c.Install(func(w *timely.Worker, g *timely.Graph) {
		i := w.Index()
		var aopt core.ArrangeOptions[K, V]
		if src.durable {
			shard := wal.ShardDir(s.opts.DataDir, name, i)
			lg, st, err := wal.OpenShard(shard, opt.KeyCodec, opt.ValCodec,
				wal.Options{Fsync: s.opts.Fsync, Commit: s.gc, Fresh: !s.opts.Recover})
			if err != nil {
				openErrs[i] = err
			} else {
				src.logs[i], src.states[i] = lg, st
				aopt.Durable = lg
			}
			if err == nil && opt.SpillBytes > 0 {
				bs, berr := block.Open(filepath.Join(shard, "blocks"), fn,
					opt.KeyCodec, opt.ValCodec, block.StoreOptions{
						Manifest: true,
						Fresh:    !s.opts.Recover,
						Fsync:    s.opts.Fsync,
						Mmap:     true,
					})
				if berr != nil {
					openErrs[i] = berr
				} else {
					src.stores[i] = bs
					aopt.Spill, aopt.MaxResidentBytes = bs, opt.SpillBytes
				}
			}
		}
		in, c := dd.NewInput[K, V](g)
		a := dd.ArrangeOpts(c, fn, name, aopt)
		src.inputs[i] = in
		src.arr[i] = a
		src.probes[i] = timely.NewProbe(a.Stream)
	})
	inst.Wait()
	if inst.Aborted() {
		s.mu.Lock()
		delete(s.sources, name)
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := errors.Join(openErrs...); err != nil {
		// The dataflow stays installed (idle) and the name stays reserved:
		// retrying under the same name on mismatched shards must not
		// misalign operator identifiers. Neutralize the durability hooks so
		// Server.Checkpoint/Restore skip the broken source (shards that did
		// open are closed by Server.Close).
		src.mu.Lock()
		src.durable, src.pending = false, false
		src.mu.Unlock()
		return nil, fmt.Errorf("server: opening logs for %q: %w", name, err)
	}
	return src, nil
}

func (src *Source[K, V]) sourceName() string { return src.nm }

// Name returns the registered name.
func (src *Source[K, V]) Name() string { return src.nm }

// Epoch returns the current (open) input epoch.
func (src *Source[K, V]) Epoch() uint64 {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.epoch
}

// Update introduces a batch of updates at the current epoch. The caller's
// slice is not retained or modified; times are stamped into a copy. Returns
// ErrClosed once the server has been closed, ErrRecovering before Restore on
// a recovering server, and ErrOutOfService after a failed restore rewrite —
// a remote client racing the recovery sequence gets an error, not a panic.
func (src *Source[K, V]) Update(upds []core.Update[K, V]) error {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.s.Closed() {
		return ErrClosed
	}
	if err := src.checkRestored(); err != nil {
		return err
	}
	// Any local handle can feed the collection (exchange re-partitions);
	// worker 0 may live in another process.
	src.inputs[src.s.c.FirstLocal()].SendSlice(core.StampAt(upds, lattice.Ts(src.epoch)))
	return nil
}

// checkRestored refuses use of a recovering source before Restore (the
// trace and epoch clock are not yet rebuilt, so accepting updates would
// corrupt the log) and of a source whose post-restore log rewrite failed
// (appends would extend a stale chain). Caller holds src.mu.
func (src *Source[K, V]) checkRestored() error {
	if src.pending {
		return fmt.Errorf("server: source %q is %w", src.nm, ErrRecovering)
	}
	if src.broken {
		return fmt.Errorf("server: source %q is %w", src.nm, ErrOutOfService)
	}
	return nil
}

// Insert adds one copy of (k, v) at the current epoch.
func (src *Source[K, V]) Insert(k K, v V) error {
	return src.Update([]core.Update[K, V]{{Key: k, Val: v, Diff: 1}})
}

// Remove deletes one copy of (k, v) at the current epoch.
func (src *Source[K, V]) Remove(k K, v V) error {
	return src.Update([]core.Update[K, V]{{Key: k, Val: v, Diff: -1}})
}

// Advance seals the current epoch on every worker's input handle and
// returns it. Each worker's arrangement compacts behind the epochs it has
// sealed (core.TraceAgent), which is what keeps the trace late subscribers
// import small. Returns ErrClosed once the server has been closed, and
// ErrRecovering or ErrOutOfService per Update.
func (src *Source[K, V]) Advance() (uint64, error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.s.Closed() {
		return 0, ErrClosed
	}
	if err := src.checkRestored(); err != nil {
		return 0, err
	}
	sealed := src.epoch
	src.advanceToLocked(sealed + 1)
	return sealed, nil
}

// AdvanceTo seals every epoch below the given one in a single step: the
// input handles jump directly to epoch, so all updates sent since the last
// seal complete together as one coarser batch. This is the primitive behind
// adaptive epoch batching (the paper's Fig 4b tradeoff, tuned at runtime):
// a backed-up pipeline coalesces many logical epochs into one physical seal.
// Advancing to the current epoch is a no-op; moving backwards is an error.
func (src *Source[K, V]) AdvanceTo(epoch uint64) error {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.s.Closed() {
		return ErrClosed
	}
	if err := src.checkRestored(); err != nil {
		return err
	}
	if epoch < src.epoch {
		return fmt.Errorf("server: source %q: AdvanceTo(%d) behind current epoch %d",
			src.nm, epoch, src.epoch)
	}
	if epoch > src.epoch {
		src.advanceToLocked(epoch)
	}
	return nil
}

// advanceToLocked jumps the epoch clock to epoch (> src.epoch) on every
// worker. Caller holds src.mu and has passed the closed/restored checks.
func (src *Source[K, V]) advanceToLocked(epoch uint64) {
	src.epoch = epoch
	// Only this process's shard holds handles; the slice is indexed by
	// global worker with remote slots nil. Remote processes advance their
	// own shards (drivers run the same schedule everywhere).
	for _, in := range src.inputs {
		if in != nil {
			in.AdvanceTo(epoch)
		}
	}
}

// CompletedEpochs reports the source's completion frontier: every epoch
// below the returned value is fully reflected in the arrangement on all
// workers (and appended to the log, for durable sources — batches are logged
// as they seal, before the probe passes). It never exceeds the current open
// epoch, so Epoch() - CompletedEpochs() is the pipeline's in-flight depth.
func (src *Source[K, V]) CompletedEpochs() uint64 {
	src.mu.Lock()
	epoch := src.epoch
	src.mu.Unlock()
	// Progress-tracker replicas converge across processes, so the first
	// local worker's probe answers for the whole cluster.
	f := src.probes[src.s.c.FirstLocal()].Frontier()
	if f.Empty() {
		return epoch // input closed and drained: nothing outstanding
	}
	done := f.Elements()[0].Epoch()
	for _, t := range f.Elements()[1:] {
		if e := t.Epoch(); e < done {
			done = e
		}
	}
	if done > epoch {
		done = epoch
	}
	return done
}

// Lag reports how many sealed epochs are still in flight (sealed but not
// yet complete on every worker). It is the control signal adaptive batching
// steers on: zero when the pipeline is drained, growing when seals outpace
// the workers.
func (src *Source[K, V]) Lag() uint64 {
	done := src.CompletedEpochs()
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.epoch < done {
		return 0
	}
	return src.epoch - done
}

// Sync blocks until every epoch sealed so far is fully reflected in the
// arrangement on all workers. Returns ErrClosed if the server closed before
// (or while) the epochs completed.
func (src *Source[K, V]) Sync() error {
	_, err := src.sync()
	return err
}

// sync is Sync returning the epoch it waited for: every shard had sealed
// (and, if durable, logged) every update below it when sync returned.
func (src *Source[K, V]) sync() (uint64, error) {
	src.mu.Lock()
	if src.s.Closed() {
		src.mu.Unlock()
		return 0, ErrClosed
	}
	if err := src.checkRestored(); err != nil {
		src.mu.Unlock()
		return 0, err
	}
	e := src.epoch
	src.mu.Unlock()
	if e == 0 {
		return 0, nil
	}
	t := lattice.Ts(e - 1)
	probe := src.probes[src.s.c.FirstLocal()]
	if !src.s.c.WaitUntil(func() bool { return probe.Done(t) }) {
		return 0, ErrClosed
	}
	return e, nil
}

// ImportInto attaches the calling worker's shard of the arrangement to a new
// dataflow under construction: the trace's runs as of its compaction
// frontier (shared, not copied), then live batches. Call only from inside an
// Install build closure.
func (src *Source[K, V]) ImportInto(g *timely.Graph) *core.Arranged[K, V] {
	a := src.arr[g.Worker().Index()]
	return core.ImportOpts(g, a.Agent, src.nm+"-import", core.ImportOptions{Snapshot: true})
}

// close retires the source's inputs (server shutdown path). Durable sources
// are left open: closing would seal a terminal batch with an empty upper
// frontier, marking the log complete and unresumable.
func (src *Source[K, V]) close() {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.durable {
		return
	}
	for _, in := range src.inputs {
		if in != nil {
			in.Close()
		}
	}
}

// closeDurable releases the shard logs. Only safe once the workers have
// stopped (Server.Close calls it after Shutdown).
func (src *Source[K, V]) closeDurable() {
	for _, lg := range src.logs {
		if lg != nil {
			lg.Close()
		}
	}
}

// localCutLocked computes the consistent prefix this process's shards can
// restore: the meet of the local shard-log uppers (an empty upper means a
// closed log — beyond everything — and contributes nothing to the meet).
// Remote workers' slots are nil on a multi-process cluster; each rank
// accounts for its own shards only.
func (src *Source[K, V]) localCutLocked() (lattice.Frontier, error) {
	fs := make([]lattice.Frontier, 0, len(src.states)+1)
	for _, st := range src.states {
		if st != nil {
			fs = append(fs, st.Upper)
		}
	}
	cut := lattice.MeetAll(fs...)
	if cut.Empty() {
		return cut, fmt.Errorf("server: source %q log is closed; nothing can be resumed", src.nm)
	}
	if cut.Len() != 1 || cut.Elements()[0].Depth() != 1 {
		return cut, fmt.Errorf("server: source %q recovered non-epoch frontier %v", src.nm, cut)
	}
	return cut, nil
}

// RecoverableEpoch peeks at the epoch this process's shard logs can restore
// to, without restoring anything. On a multi-process cluster each rank's
// logs extend unevenly (shards seal independently), so the ranks exchange
// these values and everyone restores to the minimum via RestoreTo — the
// globally consistent cut.
func (src *Source[K, V]) RecoverableEpoch() (uint64, error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if !src.durable || !src.pending {
		return 0, fmt.Errorf("server: source %q has nothing pending to restore", src.nm)
	}
	cut, err := src.localCutLocked()
	if err != nil {
		return 0, err
	}
	return cut.Elements()[0].Epoch(), nil
}

// Restore rebuilds the arrangement's trace from its logged batches — no
// source replay — and resumes the epoch clock from the logged frontier. The
// shards sealed independently, so their logs may extend unevenly; the trace
// is clamped to the meet of the shard uppers (the globally consistent
// prefix), the logs are rewritten to that prefix, and the resumed epoch is
// returned: the driver re-issues rounds from there as ordinary new input.
func (src *Source[K, V]) Restore() (uint64, error) {
	return src.restoreClamped(nil)
}

// RestoreTo is Restore clamped to an agreed target epoch: the trace is
// rebuilt and the logs rewritten to min(local cut, target). Ranks of a
// multi-process cluster restore to the minimum of their RecoverableEpoch
// values; batches a rank logged beyond the agreed cut are physically
// discarded by the rewrite, so the rounds the driver re-issues from the cut
// cannot double-apply.
func (src *Source[K, V]) RestoreTo(target uint64) (uint64, error) {
	clamp := lattice.NewFrontier(lattice.Ts(target))
	return src.restoreClamped(&clamp)
}

func (src *Source[K, V]) restoreClamped(clamp *lattice.Frontier) (uint64, error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.s.Closed() {
		return 0, ErrClosed
	}
	if !src.durable {
		return 0, fmt.Errorf("server: source %q is not durable", src.nm)
	}
	if !src.pending {
		return 0, fmt.Errorf("server: source %q has nothing pending to restore", src.nm)
	}

	cut, err := src.localCutLocked()
	if err != nil {
		return 0, err
	}
	if clamp != nil {
		cut = lattice.MeetAll(cut, *clamp)
	}
	// Resume compaction at the weakest promise any shard logged, capped at
	// the cut (a since beyond the resume point is meaningless).
	sf := make([]lattice.Frontier, 0, len(src.states)+1)
	for _, st := range src.states {
		if st != nil {
			sf = append(sf, st.Since)
		}
	}
	sf = append(sf, cut)
	since := lattice.MeetAll(sf...)

	perr := make([]error, len(src.logs))
	p := src.s.c.PostEach(func(w *timely.Worker) {
		i := w.Index()
		// Clamp the recovered run chain to the cut. Spilled runs behind the
		// cut pass through as references (no I/O); only a straddling run is
		// materialized and rebuilt resident.
		load := func(ref *wal.BlockRef) (*core.Batch[K, V], error) {
			if src.stores[i] == nil {
				return nil, fmt.Errorf("manifest references block file %s but the source has no spill tier", ref.Name)
			}
			r, err := src.stores[i].OpenRef(ref)
			if err != nil {
				return nil, err
			}
			defer src.stores[i].Release(r)
			return src.stores[i].Unspill(r)
		}
		clamped, err := wal.ClampRuns(src.fn, src.states[i].Runs, cut, load)
		if err != nil {
			perr[i] = err
			return
		}
		runs := make([]core.BatchReader[K, V], 0, len(clamped))
		referenced := map[string]bool{}
		for _, r := range clamped {
			if r.Ref == nil {
				runs = append(runs, r.Batch)
				continue
			}
			if src.stores[i] == nil {
				perr[i] = fmt.Errorf("manifest references block file %s but the source has no spill tier", r.Ref.Name)
				return
			}
			cold, oerr := src.stores[i].OpenRef(r.Ref)
			if oerr != nil {
				perr[i] = fmt.Errorf("reopening spilled run %s: %w", r.Ref.Name, oerr)
				return
			}
			runs = append(runs, cold)
			referenced[r.Ref.Name] = true
		}
		src.arr[i].RestoreRuns(runs, since)
		// Rewrite the log to the restored prefix: batches beyond the cut
		// are discarded on disk too, so the chain stays contiguous when
		// live appends resume from the cut. Block files the new manifest no
		// longer references — orphaned by a crash between spill and
		// checkpoint, or clamped away — are collected right after.
		perr[i] = src.logs[i].RotateRuns(since, clamped)
		if perr[i] == nil && src.stores[i] != nil {
			// Spine maintenance during RestoreRuns may itself have spilled
			// fresh runs under the restore-time budget; they are referenced by
			// the live trace, not the manifest, and must survive the sweep.
			for _, r := range src.arr[i].Agent.Runs() {
				if ref, ok := block.Ref(r); ok {
					referenced[ref.Name] = true
				}
			}
			if _, gerr := src.stores[i].GC(referenced); gerr != nil {
				perr[i] = gerr
			}
		}
	})
	p.Wait()
	if p.Aborted() {
		return 0, ErrClosed // server closed underneath us; nothing was loaded
	}
	// The traces are loaded: past the point of no return regardless of the
	// log rewrite's outcome, so a retry must not re-load them (it would
	// panic on the non-empty spines). A rewrite error leaves the on-disk
	// chain stale while the operators still hold live sinks, so the source
	// cannot safely accept new appends either: it stays out of service.
	src.pending = false
	if err := errors.Join(perr...); err != nil {
		src.broken = true
		return 0, fmt.Errorf("server: source %q restored in memory but log rewrite failed; "+
			"source out of service: %w", src.nm, err)
	}

	epoch := cut.Elements()[0].Epoch()
	src.epoch = epoch
	if epoch > 0 {
		// Remote workers' input slots are nil; any local handle can advance
		// the collection's clock.
		for _, in := range src.inputs {
			if in != nil {
				in.AdvanceTo(epoch)
			}
		}
	}
	return epoch, nil
}

// restore is the type-erased hook behind Server.Restore.
func (src *Source[K, V]) restore() (uint64, bool, error) {
	src.mu.Lock()
	durable, pending := src.durable, src.pending
	src.mu.Unlock()
	if !durable || !pending {
		return 0, false, nil
	}
	epoch, err := src.Restore()
	return epoch, true, err
}

// Checkpoint rotates the source's shard logs to the traces' run chains: each
// shard's new log generation holds its spine's runs as they stand — resident
// runs as batch records, spilled runs as block references — so a checkpoint
// neither consolidates (compaction is the spine's job) nor re-reads the cold
// tier, and a restore rebuilds the spine from the same runs. Safe while
// updates stream: each shard rotates atomically on its own worker, and
// batches sealed after that shard's rotation land in the new generation
// behind it. A shard that a racing seal made skip (see checkpointRuns) gets
// one more pass, behind a Sync that covers that seal too.
func (src *Source[K, V]) Checkpoint() error {
	src.mu.Lock()
	if !src.durable {
		src.mu.Unlock()
		return fmt.Errorf("server: source %q is not durable", src.nm)
	}
	if src.pending || src.broken {
		src.mu.Unlock()
		return fmt.Errorf("server: source %q is not serving (recovering or failed); cannot checkpoint", src.nm)
	}
	src.mu.Unlock()

	var skipped []bool // nil: every shard is due
	for pass := 0; pass < 2; pass++ {
		synced, err := src.sync()
		if err != nil {
			return err
		}
		bound := lattice.NewFrontier(lattice.Ts(synced))
		skip := make([]bool, len(src.logs))
		perr := make([]error, len(src.logs))
		p := src.s.c.PostEach(func(w *timely.Worker) {
			if i := w.Index(); skipped == nil || skipped[i] {
				skip[i], perr[i] = src.checkpointRuns(i, bound)
			}
		})
		p.Wait()
		if p.Aborted() {
			return ErrClosed
		}
		if err := errors.Join(perr...); err != nil || !slices.Contains(skip, true) {
			return err
		}
		skipped = skip
	}
	return nil
}

// checkpointRuns rotates worker i's shard log from the trace's run chain.
// Once the new generation is durable, no manifest names the runs retired by
// earlier merges, so their dead-listed block files are collected. Runs on
// worker i's goroutine.
//
// Every shard had sealed, and so logged, every update below bound when the
// checkpoint began, so a later recovery cut is at or beyond it, and a run
// compacted no further than bound can be clamped to that cut: its times
// below the cut are still below it. A run compacted beyond bound — a merge
// that landed after a seal raced the checkpoint — cannot be, so a shard
// holding one keeps its current generation (still a valid log) and reports
// the skip. (One gap remains: a shard with nothing to seal below bound may
// not have closed that empty interval yet, so its log upper, and a cut
// taken in that window, can trail bound; DESIGN.md §Recovery.)
func (src *Source[K, V]) checkpointRuns(i int, bound lattice.Frontier) (skipped bool, err error) {
	runs := src.arr[i].Agent.Runs()
	walRuns := make([]wal.Run[K, V], 0, len(runs))
	for _, r := range runs {
		if _, _, since := r.Bounds(); !since.Dominates(bound) {
			return true, nil
		}
		if b, ok := r.(*core.Batch[K, V]); ok {
			walRuns = append(walRuns, wal.Run[K, V]{Batch: b})
			continue
		}
		ref, ok := block.Ref(r)
		if !ok {
			return false, fmt.Errorf("server: source %q holds a cold run of unknown origin", src.nm)
		}
		walRuns = append(walRuns, wal.Run[K, V]{Ref: ref})
	}
	since := src.arr[i].Agent.CompactionFrontier()
	if err := src.logs[i].RotateRuns(since.Clone(), walRuns); err != nil {
		return false, err
	}
	if src.stores[i] != nil {
		src.stores[i].GCDead()
	}
	return false, nil
}

// SpillStats reports the cold tier's state summed across workers: block
// files currently on disk and spilled runs the live traces reference. Both
// are zero for a source without SpillBytes. After a quiescent checkpoint the
// two agree (every file is named by exactly one live run); files may exceed
// refs transiently between a merge retiring a run and the next checkpoint's
// dead-file collection.
func (src *Source[K, V]) SpillStats() (files, refs int, err error) {
	if len(src.stores) == 0 {
		return 0, 0, nil
	}
	perr := make([]error, len(src.stores))
	pf := make([]int, len(src.stores))
	pr := make([]int, len(src.stores))
	p := src.s.c.PostEach(func(w *timely.Worker) {
		i := w.Index()
		if src.stores[i] == nil {
			return
		}
		names, lerr := src.stores[i].LiveFiles()
		if lerr != nil {
			perr[i] = lerr
			return
		}
		pf[i] = len(names)
		for _, r := range src.arr[i].Agent.Runs() {
			if _, resident := r.(*core.Batch[K, V]); !resident {
				pr[i]++
			}
		}
	})
	p.Wait()
	if p.Aborted() {
		return 0, 0, ErrClosed
	}
	for i := range pf {
		files += pf[i]
		refs += pr[i]
	}
	return files, refs, errors.Join(perr...)
}

// logBytes is the type-erased hook behind Server.LogBytes.
func (src *Source[K, V]) logBytes() int64 {
	src.mu.Lock()
	durable := src.durable
	src.mu.Unlock()
	if !durable {
		return 0
	}
	var n int64
	for _, lg := range src.logs {
		if lg != nil {
			n += lg.Size()
		}
	}
	return n
}

// checkpoint is the type-erased hook behind Server.Checkpoint.
func (src *Source[K, V]) checkpoint() error {
	src.mu.Lock()
	durable := src.durable
	src.mu.Unlock()
	if !durable {
		return nil
	}
	return src.Checkpoint()
}

// Built is what a query build closure hands back to the server for one
// worker: the shard's completion probe and a teardown to run on the same
// worker at uninstall (cancel imports, drop handles, close this worker's
// inputs). Probe is required on the process's first local worker and ignored
// elsewhere.
type Built struct {
	Probe    *timely.Probe
	Teardown func()
}

// Query is one live query dataflow installed against the server's shared
// arrangements.
type Query struct {
	s     *Server
	nm    string
	inst  *timely.Installed
	built []Built
	probe *timely.Probe
}

// Install constructs a named query dataflow on every worker while updates
// stream, blocking until all workers have built their shard. The build
// closure runs once per worker on that worker's goroutine; use
// Source.ImportInto to attach shared arrangements. The name must be unused.
func (s *Server) Install(name string, build func(w *timely.Worker, g *timely.Graph) Built) (*Query, error) {
	q := &Query{s: s, nm: name, built: make([]Built, s.c.Peers())}
	// Reserve the name before building: the loser of a duplicate-name race
	// must not leave a built dataflow scheduled forever.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := s.queries[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: query %q already installed", name)
	}
	s.queries[name] = q
	s.mu.Unlock()

	q.inst = s.c.Install(func(w *timely.Worker, g *timely.Graph) {
		q.built[w.Index()] = build(w, g)
	})
	q.inst.Wait()
	if q.inst.Aborted() {
		s.mu.Lock()
		delete(s.queries, name)
		s.mu.Unlock()
		return nil, ErrClosed
	}
	q.probe = q.built[s.c.FirstLocal()].Probe
	return q, nil
}

// Name returns the query's registered name.
func (q *Query) Name() string { return q.nm }

// Probe returns the first local worker's completion probe.
func (q *Query) Probe() *timely.Probe { return q.probe }

// WaitDone blocks until the query can no longer produce output at or before
// t (its results through t are complete). Returns false if the server shut
// down first.
func (q *Query) WaitDone(t lattice.Time) bool {
	return q.s.c.WaitUntil(func() bool { return q.probe.Done(t) })
}

// Done reports (without blocking) whether the query's results through the
// given epoch are complete on every worker. Front-ends poll it from WaitFor
// conditions to learn when a query's results through an epoch are in.
func (q *Query) Done(epoch uint64) bool { return q.probe.Done(lattice.Ts(epoch)) }

// WaitFor parks the caller until cond reports true, re-evaluating whenever
// the workers make progress (or Wake is called). It returns false if the
// server closed first. Together with Query.Done and Wake it is the
// subscription hook a streaming front-end builds on.
func (s *Server) WaitFor(cond func() bool) bool { return s.c.WaitUntil(cond) }

// Wake forces every WaitFor condition to re-evaluate. Call it after changing
// state a condition observes that the workers do not (for example, marking a
// subscription closed from a network goroutine).
func (s *Server) Wake() { s.c.Wake() }

// teardown runs every worker's teardown on its own goroutine.
func (q *Query) teardown() {
	q.s.c.PostEach(func(w *timely.Worker) {
		if td := q.built[w.Index()].Teardown; td != nil {
			td()
		}
	}).Wait()
}

// Uninstall tears the query down while the rest of the server keeps
// serving: per-worker teardowns run (closing the query's inputs, cancelling
// its imports, dropping its trace handles), the dataflow drains to
// quiescence, and its operators leave every worker's schedule. On a closed
// server the dataflow is already abandoned in place; Uninstall just drops
// the registration.
func (q *Query) Uninstall() {
	if !q.s.Closed() {
		q.teardown()
		q.s.c.WaitUntil(q.inst.Complete)
		q.s.c.Uninstall(q.inst)
	}
	q.s.mu.Lock()
	delete(q.s.queries, q.nm)
	q.s.mu.Unlock()
}
