package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lattice"
)

// Options tunes a shard log.
type Options struct {
	// Fsync syncs the file after every appended record. Off by default: an
	// OS-buffered write survives process death (SIGKILL), which is the crash
	// model the server recovers from; Fsync extends that to machine crashes
	// at a large per-seal cost.
	Fsync bool
	// Commit, when non-nil with Fsync, replaces the per-record sync with
	// group commit: appends mark the file dirty and the shared committer
	// syncs every dirty log once per commit interval, so the sync cost is
	// paid once per group (across epochs and shards) instead of per record.
	// The machine-crash loss window widens to one commit interval; the
	// SIGKILL crash model is unaffected either way.
	Commit *GroupCommitter
	// Fresh discards any existing log contents instead of replaying them
	// (restarting without -recover means starting over).
	Fresh bool
}

// ShardState is the recovered contents of one worker's shard log: the
// contiguous run chain, the last logged compaction frontier, and the
// frontier through which the shard had sealed.
type ShardState[K, V any] struct {
	// Runs is the recovered chain in order — the last checkpoint's runs, then
	// every batch sealed since — with spilled runs as block references.
	// Restore rebuilds the trace from it.
	Runs []Run[K, V]
	// Batches is the chain's batch records alone, oldest first: all of it
	// for a log without block references.
	Batches []*core.Batch[K, V]
	Since   lattice.Frontier // last logged compaction-frontier advance
	Upper   lattice.Frontier // upper of the last logged batch
	Torn    bool             // a torn/corrupt tail was discarded on replay
}

// ShardLog is the append-only log of one worker's shard of one arrangement.
// It implements core.BatchSink: the arrange operator appends every sealed
// batch as it enters the spine, and compaction-frontier advances arrive via
// AdvanceSince. All methods after OpenShard must be called from the owning
// worker's goroutine (the log is worker-local state, like the spine).
type ShardLog[K, V any] struct {
	dir   string
	bc    *BatchCodec[K, V]
	fsync bool
	gc    *GroupCommitter
	gen   uint64
	f     *os.File
	pbuf  []byte       // record staging: a reserved frame header, then the payload
	size  atomic.Int64 // bytes in the current generation (drivers poll it)
}

// maxStagingBytes bounds the staging buffer a log keeps between appends. A
// record staged in a larger buffer (a set-up preload's, say) drops it once
// written, so one outsized record does not pin its high-water mark for the
// life of the log.
const maxStagingBytes = 1 << 20

func genName(gen uint64) string { return fmt.Sprintf("gen-%08d.wal", gen) }

func parseGen(name string) (uint64, bool) {
	var g uint64
	if _, err := fmt.Sscanf(name, "gen-%08d.wal", &g); err != nil || genName(g) != name {
		return 0, false
	}
	return g, true
}

// OpenShard opens (creating if absent) the shard log in dir and replays its
// highest generation. A torn tail is truncated away so subsequent appends
// extend the valid prefix; incomplete checkpoint temporaries (*.tmp) and
// superseded generations are removed. The returned state is empty for a
// fresh log.
func OpenShard[K, V any](dir string, kc Codec[K], vc Codec[V],
	opt Options) (*ShardLog[K, V], *ShardState[K, V], error) {

	bc, err := NewBatchCodec(kc, vc)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name())) // incomplete checkpoint
			continue
		}
		if g, ok := parseGen(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	if opt.Fresh {
		for _, g := range gens {
			if err := os.Remove(filepath.Join(dir, genName(g))); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
		gens = nil
	}

	l := &ShardLog[K, V]{dir: dir, bc: bc, fsync: opt.Fsync, gc: opt.Commit}
	if len(gens) == 0 {
		l.gen = 1
		if l.f, err = os.OpenFile(filepath.Join(dir, genName(1)),
			os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		// Persist the file's existence, not just its (future) contents: a
		// synced record in an unsynced directory entry is equally lost.
		if err := SyncDir(dir); err != nil {
			l.f.Close()
			return nil, nil, fmt.Errorf("wal: persisting log creation: %w", err)
		}
		return l, emptyState[K, V](), nil
	}

	l.gen = gens[len(gens)-1]
	path := filepath.Join(dir, genName(l.gen))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	st, good, rerr := replayBytes(bc, data)
	if rerr != nil {
		var ce *CorruptError
		if errors.As(rerr, &ce) {
			ce.Path = path
		}
		return nil, nil, rerr
	}
	if l.f, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if good < len(data) {
		if err := l.f.Truncate(int64(good)); err != nil {
			l.f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := l.f.Seek(int64(good), 0); err != nil {
		l.f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.size.Store(int64(good))
	// Older generations are superseded; a completed checkpoint deletes them,
	// but a crash between rename and delete can leave one behind.
	for _, g := range gens[:len(gens)-1] {
		os.Remove(filepath.Join(dir, genName(g)))
	}
	return l, st, nil
}

func emptyState[K, V any]() *ShardState[K, V] {
	return &ShardState[K, V]{Since: lattice.MinFrontier(1), Upper: lattice.MinFrontier(1)}
}

// replayBytes decodes a shard log image into its recovered state, returning
// the length of the valid prefix. Frame-level damage (torn tail) truncates;
// semantic damage returns a *CorruptError.
func replayBytes[K, V any](bc *BatchCodec[K, V], data []byte) (*ShardState[K, V], int, error) {
	st := emptyState[K, V]()
	good, torn, err := scanRecords(data, func(off int64, payload []byte) error {
		if len(payload) == 0 {
			return &CorruptError{Offset: off, Reason: "empty payload"}
		}
		d := &Dec{buf: payload, off: 1}
		switch payload[0] {
		case recBatch:
			b, derr := bc.readBatch(d)
			if derr != nil {
				return &CorruptError{Offset: off, Reason: derr.Error()}
			}
			if len(st.Runs) > 0 && !b.Lower.Equal(st.Upper) {
				return &CorruptError{Offset: off, Reason: fmt.Sprintf(
					"batch lower %v breaks chain at %v", b.Lower, st.Upper)}
			}
			st.Batches = append(st.Batches, b)
			st.Runs = append(st.Runs, Run[K, V]{Batch: b})
			st.Upper = b.Upper.Clone()
		case recBlockRef:
			ref, derr := decodeBlockRef(d)
			if derr != nil {
				return &CorruptError{Offset: off, Reason: derr.Error()}
			}
			if len(st.Runs) > 0 && !ref.Lower.Equal(st.Upper) {
				return &CorruptError{Offset: off, Reason: fmt.Sprintf(
					"block ref lower %v breaks chain at %v", ref.Lower, st.Upper)}
			}
			st.Runs = append(st.Runs, Run[K, V]{Ref: ref})
			st.Upper = ref.Upper.Clone()
		case recSince:
			f, derr := d.Frontier()
			if derr != nil {
				return &CorruptError{Offset: off, Reason: derr.Error()}
			}
			if f.Empty() {
				return &CorruptError{Offset: off, Reason: "empty since frontier"}
			}
			st.Since = f
		case recRowBatch:
			return &CorruptError{Offset: off, Reason: fmt.Sprintf(
				"record kind %d: a batch in the retired row encoding", recRowBatch)}
		default:
			return &CorruptError{Offset: off, Reason: fmt.Sprintf("unknown record kind %d", payload[0])}
		}
		if d.Remaining() != 0 {
			return &CorruptError{Offset: off, Reason: fmt.Sprintf(
				"%d trailing bytes after record body", d.Remaining())}
		}
		return nil
	})
	if err != nil {
		return nil, good, err
	}
	st.Torn = torn
	return st, good, nil
}

// append seals the record staged in pbuf and writes it in one call.
func (l *ShardLog[K, V]) append() error {
	sealRecord(l.pbuf)
	n := len(l.pbuf)
	_, err := l.f.Write(l.pbuf)
	if cap(l.pbuf) > maxStagingBytes {
		l.pbuf = nil
	}
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size.Add(int64(n))
	if l.fsync {
		if l.gc != nil {
			if err := l.gc.mark(l.f); err != nil {
				return fmt.Errorf("wal: group commit: %w", err)
			}
		} else if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// Size reports the byte length of the current generation (the replayed
// prefix plus everything appended since the last checkpoint). It is safe to call
// from any goroutine — drivers poll it to trigger checkpoints on log growth.
func (l *ShardLog[K, V]) Size() int64 { return l.size.Load() }

// SyncDir fsyncs a directory, persisting the entries (creates and renames)
// inside it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendBatch logs one sealed batch (core.BatchSink). The terminal empty
// seal of a closing input — empty batch, empty upper — is skipped: it
// carries no data and its empty upper would wedge the recovered resume
// frontier at "nothing can follow".
func (l *ShardLog[K, V]) AppendBatch(b *core.Batch[K, V]) error {
	if b.Empty() && b.Upper.Empty() {
		return nil
	}
	l.pbuf = l.bc.encodeBatch(openRecord(l.pbuf[:0], recBatch), b)
	return l.append()
}

// AdvanceSince logs a compaction-frontier advance (core.BatchSink), letting
// recovery resume compaction where the live system had promised it.
func (l *ShardLog[K, V]) AdvanceSince(f lattice.Frontier) error {
	l.pbuf = AppendFrontier(openRecord(l.pbuf[:0], recSince), f)
	return l.append()
}

// Rotate is RotateRuns over a chain of resident batches.
func (l *ShardLog[K, V]) Rotate(since lattice.Frontier, batches []*core.Batch[K, V]) error {
	runs := make([]Run[K, V], len(batches))
	for i, b := range batches {
		runs[i].Batch = b
	}
	return l.RotateRuns(since, runs)
}

// installGeneration writes data as the next generation, atomically renames
// it into place, and deletes the superseded generation.
func (l *ShardLog[K, V]) installGeneration(data []byte) error {
	next := l.gen + 1
	tmp := filepath.Join(l.dir, fmt.Sprintf("gen-%08d.tmp", next))
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if _, err := nf.Write(data); err != nil {
		nf.Close()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	path := filepath.Join(l.dir, genName(next))
	if err := os.Rename(tmp, path); err != nil {
		nf.Close()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	// The rename is visible in the filesystem, so the log switches to the new
	// generation regardless of what follows; but the checkpoint only counts
	// once the directory entry is persisted, so a failed directory sync still
	// surfaces as a checkpoint error rather than silent data-loss exposure.
	old, oldGen := l.f, l.gen
	l.f, l.gen = nf, next
	l.size.Store(int64(len(data)))
	if l.gc != nil {
		l.gc.drop(old)
	}
	old.Close()
	os.Remove(filepath.Join(l.dir, genName(oldGen)))
	if err := SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: rotate: persisting generation rename: %w", err)
	}
	return nil
}

// Close releases the active log file.
func (l *ShardLog[K, V]) Close() error {
	if l.gc != nil {
		l.gc.drop(l.f)
	}
	return l.f.Close()
}

// ShardDir is the conventional location of one worker's shard of one named
// arrangement under a server data directory.
func ShardDir(dataDir, name string, worker int) string {
	return filepath.Join(dataDir, name, fmt.Sprintf("shard-%03d", worker))
}

// CountShards reports how many worker shards are logged for the named
// arrangement (zero when none); recovery requires the worker count to match.
func CountShards(dataDir, name string) (int, error) {
	entries, err := os.ReadDir(filepath.Join(dataDir, name))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			n++
		}
	}
	return n, nil
}

// ListArrangements returns the names of arrangements with logs under
// dataDir (a restart's manifest of what can be restored).
func ListArrangements(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, err := CountShards(dataDir, e.Name()); err == nil && n > 0 {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
