package block

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// StoreOptions configures a Store.
type StoreOptions struct {
	// BlockUpdates is the target update triples per block
	// (DefaultBlockUpdates when 0).
	BlockUpdates int
	// CacheBytes budgets the resident decoded-block cache (1 MiB when 0),
	// metered as core.Batch.ApproxBytes meters the blocks.
	CacheBytes int64
	// Mmap maps block files instead of pread when the platform supports it.
	Mmap bool
	// Manifest defers deletion of retired files to GCDead: a retired run may
	// still be referenced by the current on-disk WAL generation, so it must
	// survive until the next successful checkpoint stops naming it.
	Manifest bool
	// Fresh removes any existing block files on Open (a non-durable spill
	// directory from a previous run).
	Fresh bool
	// Fsync syncs spilled files and the directory on write. Only needed when
	// block files participate in durability (Manifest mode); a pure
	// memory-relief spill can lose files on crash without harm.
	Fsync bool
}

// Store owns one directory of block files and implements core.SpillStore:
// the spine's cold tier. Like the spine it belongs to, a Store is
// worker-local — no locking anywhere.
type Store[K, V any] struct {
	dir  string
	cfg  *codecs[K, V]
	opt  StoreOptions
	seq  uint64
	dead []string // retired but possibly still manifest-referenced
	// writing names the temporary files of runs still being written, which
	// GC must leave alone.
	writing map[string]bool

	cache map[cacheKey]*cacheEntry[K, V]
	ring  []*cacheEntry[K, V]
	hand  int
	used  int64

	// Counters and test hooks.
	Spills, Unspills, Retires int
	BlocksRead                int
	// OnBlockRead, when set, observes every block decode (cache misses
	// only) — the seam read-counting tests assert block skipping through.
	OnBlockRead func(file string, idx int)
}

type cacheKey struct {
	file string
	idx  int
}

type cacheEntry[K, V any] struct {
	key   cacheKey
	blk   *core.Batch[K, V]
	bytes int64 // blk.ApproxBytes()
	ref   bool  // clock reference bit
}

// Open creates or reopens a block store in dir. kc may be nil for uint64
// keys (delta-encoded natively); vc is required.
func Open[K, V any](dir string, fn core.Funcs[K, V], kc wal.Codec[K], vc wal.Codec[V],
	opt StoreOptions) (*Store[K, V], error) {

	cfg, err := newCodecs(fn, kc, vc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opt.CacheBytes <= 0 {
		opt.CacheBytes = 1 << 20
	}
	s := &Store[K, V]{dir: dir, cfg: cfg, opt: opt, writing: map[string]bool{},
		cache: map[cacheKey]*cacheEntry[K, V]{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name)) // abandoned atomic write
		case strings.HasSuffix(name, ".blk"):
			if opt.Fresh {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, err
				}
				continue
			}
			var n uint64
			if _, err := fmt.Sscanf(name, "run-%d.blk", &n); err == nil && n >= s.seq {
				s.seq = n + 1
			}
		}
	}
	return s, nil
}

// Spill writes b as a new block file and returns a lazy reader over it
// (core.SpillStore): b's blocks go through the same writer a streaming
// merge uses.
func (s *Store[K, V]) Spill(b *core.Batch[K, V]) (core.BatchReader[K, V], error) {
	w := s.newRun()
	if err := w.Append(b); err != nil {
		return nil, err
	}
	r, err := w.Finish(b.Lower, b.Upper, b.Since)
	if err != nil {
		return nil, err
	}
	s.Spills++
	return r, nil
}

// NewRun starts a run written block by block (core.SpillStore; a streaming
// merge's output).
func (s *Store[K, V]) NewRun() core.RunWriter[K, V] { return s.newRun() }

func (s *Store[K, V]) newRun() *runFile[K, V] { return &runFile[K, V]{st: s} }

// runFile is a run being written into the store (core.RunWriter). Its file,
// name.tmp until Finish renames it, is created by the first block, so a
// merge whose output turns out smaller than a block never touches the disk.
// The write is atomic: blocks, index, header, then fsync, rename and a
// directory sync (the syncs under StoreOptions.Fsync).
type runFile[K, V any] struct {
	st   *Store[K, V]
	name string
	f    *os.File
	w    *runWriter[K, V]
}

// BlockUpdates is the store's block split target.
func (r *runFile[K, V]) BlockUpdates() int {
	if n := r.st.opt.BlockUpdates; n > 0 {
		return n
	}
	return DefaultBlockUpdates
}

// create opens the run's temporary file on first use.
func (r *runFile[K, V]) create() error {
	if r.f != nil {
		return nil
	}
	s := r.st
	r.name = fmt.Sprintf("run-%08d.blk", s.seq)
	s.seq++
	tmp := r.name + ".tmp"
	f, err := os.OpenFile(filepath.Join(s.dir, tmp), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	r.f = f
	s.writing[tmp] = true
	if r.w, err = newRunWriter(s.cfg, r.BlockUpdates(), f); err != nil {
		return r.abort(err)
	}
	return nil
}

// abort drops the temporary file after a failed write and returns err.
func (r *runFile[K, V]) abort(err error) error {
	tmp := r.name + ".tmp"
	r.f.Close()
	os.Remove(filepath.Join(r.st.dir, tmp))
	delete(r.st.writing, tmp)
	return err
}

// Append writes b's keys as blocks (core.RunWriter).
func (r *runFile[K, V]) Append(b *core.Batch[K, V]) error {
	if err := r.create(); err != nil {
		return err
	}
	if err := r.w.append(b); err != nil {
		return r.abort(err)
	}
	return nil
}

// Finish writes the index and header, makes the file durable, renames it
// into place and opens a reader over it (core.RunWriter).
func (r *runFile[K, V]) Finish(lower, upper, since lattice.Frontier) (core.BatchReader[K, V], error) {
	if err := r.create(); err != nil {
		return nil, err
	}
	s := r.st
	if err := r.w.finish(lower, upper, since); err != nil {
		return nil, r.abort(err)
	}
	if s.opt.Fsync {
		if err := r.f.Sync(); err != nil {
			return nil, r.abort(err)
		}
	}
	if err := r.f.Close(); err != nil {
		return nil, r.abort(err)
	}
	tmp := r.name + ".tmp"
	if err := os.Rename(filepath.Join(s.dir, tmp), filepath.Join(s.dir, r.name)); err != nil {
		return nil, r.abort(err)
	}
	delete(s.writing, tmp)
	if s.opt.Fsync {
		if err := wal.SyncDir(s.dir); err != nil {
			return nil, err
		}
	}
	return s.open(r.name)
}

// open opens name and validates its header and index.
func (s *Store[K, V]) open(name string) (*blockBatch[K, V], error) {
	path := filepath.Join(s.dir, name)
	src, size, err := openSource(path, s.opt.Mmap)
	if err != nil {
		return nil, err
	}
	im, err := openImage(s.cfg, src, size, path)
	if err != nil {
		src.close()
		return nil, err
	}
	return &blockBatch[K, V]{
		st: s, name: name, src: src, im: im,
		lower: im.Lower, upper: im.Upper, since: im.Since,
	}, nil
}

// OpenRef reopens a run named by a manifest record. The reference's
// frontiers override the file's: the manifest is authoritative (a run
// widened over an empty neighbour is rewritten only there).
func (s *Store[K, V]) OpenRef(ref *wal.BlockRef) (core.BatchReader[K, V], error) {
	bb, err := s.open(ref.Name)
	if err != nil {
		return nil, err
	}
	bb.lower, bb.upper, bb.since = ref.Lower, ref.Upper, ref.Since
	return bb, nil
}

// Segment decodes block i of the spilled run r into a fresh block-local
// batch, or returns nil past the last block (core.SpillStore; the merge
// path). It bypasses the clock cache: a merge reads each block once, and
// caching it would only evict the blocks reads want.
func (s *Store[K, V]) Segment(r core.BatchReader[K, V], i int) (*core.Batch[K, V], error) {
	bb, ok := core.UnwrapReader(r).(*blockBatch[K, V])
	if !ok {
		return nil, fmt.Errorf("block: reader %T is not from this store", r)
	}
	if i >= len(bb.im.blocks) {
		return nil, nil
	}
	return bb.im.segment(s.cfg, i)
}

// Unspill re-materializes a spilled run as a resident batch
// (core.SpillStore). Merges never call it — they read cold runs a block at
// a time (Segment) — so it serves imports, the restore path's clamp of a
// straddling run, and probes. It bypasses the clock cache: it consumes
// every block exactly once.
func (s *Store[K, V]) Unspill(r core.BatchReader[K, V]) (*core.Batch[K, V], error) {
	bb, ok := core.UnwrapReader(r).(*blockBatch[K, V])
	if !ok {
		return nil, fmt.Errorf("block: reader %T is not from this store", r)
	}
	b, err := bb.im.assemble(s.cfg)
	if err != nil {
		return nil, err
	}
	s.Unspills++
	return b, nil
}

// Retire releases a run whose contents were merged away (core.SpillStore).
// Without a manifest the file is deleted now; with one it joins the dead
// list until GCDead, after the next checkpoint rotates the last manifest
// that could name it.
func (s *Store[K, V]) Retire(r core.BatchReader[K, V]) {
	bb, ok := core.UnwrapReader(r).(*blockBatch[K, V])
	if !ok {
		return
	}
	s.purge(bb.name)
	bb.src.close()
	s.Retires++
	if s.opt.Manifest {
		s.dead = append(s.dead, bb.name)
		return
	}
	os.Remove(filepath.Join(s.dir, bb.name))
}

// Release closes a reader's file handle and drops its cached blocks
// without touching the file's lifecycle on disk (the restore path releases
// straddling runs it materialized; GC decides the file's fate).
func (s *Store[K, V]) Release(r core.BatchReader[K, V]) {
	if bb, ok := core.UnwrapReader(r).(*blockBatch[K, V]); ok {
		s.purge(bb.name)
		bb.src.close()
	}
}

// GCDead deletes dead-listed files. Call after a checkpoint rotation
// succeeds: the new manifest no longer names them.
func (s *Store[K, V]) GCDead() int {
	n := 0
	for _, name := range s.dead {
		if os.Remove(filepath.Join(s.dir, name)) == nil {
			n++
		}
	}
	s.dead = s.dead[:0]
	return n
}

// GC removes every block file not in referenced (plus abandoned .tmp
// files, but not those of runs still being written) and returns how many it
// deleted. Recovery calls this with the manifest's reference set to collect
// runs orphaned by a crash between spill and checkpoint.
func (s *Store[K, V]) GC(referenced map[string]bool) (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		drop := (strings.HasSuffix(name, ".tmp") && !s.writing[name]) ||
			(strings.HasSuffix(name, ".blk") && !referenced[name])
		if !drop {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return n, err
		}
		s.purge(name)
		n++
	}
	return n, nil
}

// LiveFiles returns the sorted block-file names currently on disk.
func (s *Store[K, V]) LiveFiles() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".blk") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Ref extracts the manifest reference for a spilled run, using the
// reader's own (possibly widened) bounds rather than the file's.
func Ref[K, V any](r core.BatchReader[K, V]) (*wal.BlockRef, bool) {
	bb, ok := core.UnwrapReader(r).(*blockBatch[K, V])
	if !ok {
		return nil, false
	}
	lower, upper, since := r.Bounds()
	return &wal.BlockRef{
		Name:  bb.name,
		Lower: lower.Clone(),
		Upper: upper.Clone(),
		Since: since.Clone(),
	}, true
}

// loadCached returns block bi of bb, decoding through the clock cache.
func (s *Store[K, V]) loadCached(bb *blockBatch[K, V], bi int) *core.Batch[K, V] {
	key := cacheKey{file: bb.name, idx: bi}
	if e, ok := s.cache[key]; ok {
		e.ref = true
		return e.blk
	}
	blk, err := bb.im.segment(s.cfg, bi)
	if err != nil {
		// A run's read surface is infallible; a fault in the cold tier is
		// storage-fatal, like a torn WAL generation.
		panic(fmt.Sprintf("block: cold tier read failed: %v", err))
	}
	s.BlocksRead++
	if s.OnBlockRead != nil {
		s.OnBlockRead(bb.name, bi)
	}
	s.insert(key, blk)
	return blk
}

// insert adds a decoded block under the clock policy: sweep the hand,
// giving referenced entries a second chance, until the budget fits.
func (s *Store[K, V]) insert(key cacheKey, blk *core.Batch[K, V]) {
	bytes := blk.ApproxBytes()
	for s.used+bytes > s.opt.CacheBytes && len(s.ring) > 0 {
		e := s.ring[s.hand]
		if e.ref {
			e.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.cache, e.key)
		s.used -= e.bytes
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
	}
	// A single block larger than the whole budget still caches (alone).
	e := &cacheEntry[K, V]{key: key, blk: blk, bytes: bytes}
	s.cache[key] = e
	s.ring = append(s.ring, e)
	s.used += bytes
}

// purge drops every cached block of file name.
func (s *Store[K, V]) purge(name string) {
	for i := 0; i < len(s.ring); {
		e := s.ring[i]
		if e.key.file != name {
			i++
			continue
		}
		delete(s.cache, e.key)
		s.used -= e.bytes
		last := len(s.ring) - 1
		s.ring[i] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
	}
	if s.hand >= len(s.ring) {
		s.hand = 0
	}
}

// CacheBytes reports the resident decoded-block cache footprint.
func (s *Store[K, V]) CacheBytes() int64 { return s.used }
