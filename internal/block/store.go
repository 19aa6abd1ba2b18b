package block

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/wal"
)

// StoreOptions configures a Store.
type StoreOptions struct {
	// BlockUpdates is the target update triples per block
	// (DefaultBlockUpdates when 0).
	BlockUpdates int
	// CacheBytes budgets the resident decoded-block cache (1 MiB when 0).
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
	key cacheKey
	blk *loadedBlock[K, V]
	ref bool // clock reference bit
}

// Open creates or reopens a block store in dir. kc may be nil for uint64
// keys (delta-encoded natively); vc may be nil for columnar value layouts.
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
	s := &Store[K, V]{dir: dir, cfg: cfg, opt: opt, cache: map[cacheKey]*cacheEntry[K, V]{}}
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
// (core.SpillStore). The write is atomic: encode, write name.tmp, rename.
func (s *Store[K, V]) Spill(b *core.Batch[K, V]) (core.BatchReader[K, V], error) {
	img, err := encodeImage(s.cfg, b, s.opt.BlockUpdates)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("run-%08d.blk", s.seq)
	s.seq++
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	if err := s.writeFile(tmp, img); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if s.opt.Fsync {
		if err := syncDir(s.dir); err != nil {
			return nil, err
		}
	}
	s.Spills++
	return s.open(name)
}

func (s *Store[K, V]) writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if s.opt.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func syncDir(dir string) error {
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
		lower: im.lower, upper: im.upper, since: im.since,
		memoBi: -1,
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

// Unspill re-materializes a spilled run as a resident batch
// (core.SpillStore; the merge path). It bypasses the clock cache — a merge
// consumes every block exactly once.
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
// files) and returns how many it deleted. Recovery calls this with the
// manifest's reference set to collect runs orphaned by a crash between
// spill and checkpoint.
func (s *Store[K, V]) GC(referenced map[string]bool) (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		drop := strings.HasSuffix(name, ".tmp") ||
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
func (s *Store[K, V]) loadCached(bb *blockBatch[K, V], bi int) *loadedBlock[K, V] {
	key := cacheKey{file: bb.name, idx: bi}
	if e, ok := s.cache[key]; ok {
		e.ref = true
		return e.blk
	}
	lb, err := bb.im.loadBlock(s.cfg, bi)
	if err != nil {
		// BatchReader is an infallible surface; a fault in the cold tier is
		// storage-fatal, like a torn WAL generation.
		panic(fmt.Sprintf("block: cold tier read failed: %v", err))
	}
	s.BlocksRead++
	if s.OnBlockRead != nil {
		s.OnBlockRead(bb.name, bi)
	}
	s.insert(key, lb)
	return lb
}

// insert adds a decoded block under the clock policy: sweep the hand,
// giving referenced entries a second chance, until the budget fits.
func (s *Store[K, V]) insert(key cacheKey, lb *loadedBlock[K, V]) {
	for s.used+lb.bytes > s.opt.CacheBytes && len(s.ring) > 0 {
		e := s.ring[s.hand]
		if e.ref {
			e.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.cache, e.key)
		s.used -= e.blk.bytes
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
	}
	// A single block larger than the whole budget still caches (alone).
	e := &cacheEntry[K, V]{key: key, blk: lb}
	s.cache[key] = e
	s.ring = append(s.ring, e)
	s.used += lb.bytes
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
		s.used -= e.blk.bytes
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
