package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// OutOfCoreResult carries the disk-tier join probe experiment's numbers: the
// same point-lookup join workload runs against a fully resident spine and a
// twin spilled to block files under a fraction of its footprint, and the two
// must agree bit-for-bit while the spilled one stays within a bounded
// slowdown.
type OutOfCoreResult struct {
	TotalBytes    int64   // quiescent footprint of the fully resident spine
	BudgetBytes   int64   // spine resident budget handed to the spilled twin
	CacheBytes    int64   // decoded-block cache budget of the spilled twin
	ResidentBytes int64   // resident run bytes of the spilled spine at probe time
	SpilledRuns   int     // cold runs at probe time (must be > 0)
	BlocksRead    int     // block decodes across all probe waves
	MemSeconds    float64 // probe waves against the resident spine
	SpillSeconds  float64 // identical probe waves against the spilled spine
	Checksum      uint64  // order-independent digest; equal across both
	SlowdownX     float64 // SpillSeconds / MemSeconds
}

// OutOfCoreJoin builds a multi-epoch uint64→uint64 history whose keys grow
// with time (ID-like keys: each epoch draws from a sliding window, so old
// runs hold low key ranges), loads it into an in-memory spine and into a
// twin whose spine budget plus decoded-block cache total budgetFrac of the
// in-memory footprint, then drives identical sorted point-lookup probe
// waves — SeekKey plus ForUpdates, the lookup half of a join — through a
// trace cursor over each. Probes sample live keys with a recency skew (most
// lookups chase recent IDs, a few reach back), the access pattern a disk
// tier exists for: per-block key stats skip cold blocks for recent probes
// without I/O, the clock cache absorbs the backward-looking tail, and the
// pruned residue is what the slowdown gate meters. Spilling must not change
// a single tuple, only the clock on the probes.
func OutOfCoreJoin(epochs, perEpoch int, budgetFrac float64, waves, probesPerWave int) (OutOfCoreResult, error) {
	const (
		keyWindow  = 256  // fresh key range per epoch; window spans 4 epochs
		recentBias = 0.98 // fraction of probes aimed at the newest eighth
	)
	fn := core.U64()
	r := rand.New(rand.NewSource(11))
	chain := make([]*core.Batch[uint64, uint64], 0, epochs)
	lower := lattice.MinFrontier(1)
	var liveKeys []uint64
	for e := 0; e < epochs; e++ {
		upds := make([]core.Update[uint64, uint64], perEpoch)
		for j := range upds {
			upds[j] = core.Update[uint64, uint64]{
				Key: uint64(e)*keyWindow + uint64(r.Int63n(4*keyWindow)), Val: uint64(r.Int63()),
				Time: lattice.Ts(uint64(e)), Diff: 1,
			}
			liveKeys = append(liveKeys, upds[j].Key)
		}
		upper := lattice.NewFrontier(lattice.Ts(uint64(e + 1)))
		chain = append(chain, core.BuildBatch(fn, upds, lower.Clone(), upper, lattice.MinFrontier(1)))
		lower = upper
	}
	final := lattice.NewFrontier(lattice.Ts(uint64(epochs)))

	load := func(s *core.Spine[uint64, uint64]) *core.Handle[uint64, uint64] {
		h := s.NewHandle()
		for i, b := range chain {
			s.Append(b)
			h.SetLogical(lattice.NewFrontier(lattice.Ts(uint64(i + 1))))
		}
		for s.Work(1 << 30) {
		}
		return h
	}

	res := OutOfCoreResult{}
	mem := core.NewSpine[uint64, uint64](fn, core.MergeDefault)
	memH := load(mem)
	for _, run := range mem.Runs() {
		res.TotalBytes += run.(*core.Batch[uint64, uint64]).ApproxBytes()
	}
	// The fraction budgets everything the spilled twin keeps in memory:
	// resident runs plus the decoded-block cache. A point-lookup workload
	// wants the lion's share in the cache (small blocks decode on demand);
	// the spine budget mostly decides which runs go cold at all.
	res.BudgetBytes = int64(float64(res.TotalBytes) * budgetFrac / 5)
	res.CacheBytes = int64(float64(res.TotalBytes) * budgetFrac * 4 / 5)

	dir, err := os.MkdirTemp("", "kpg-oocore-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	st, err := block.Open(dir, fn, nil, wal.U64Codec(), block.StoreOptions{
		// Small blocks suit the point-lookup shape: a cold probe decodes only
		// the narrow key range it straddles, not a scan-sized chunk.
		BlockUpdates: 64,
		CacheBytes:   res.CacheBytes,
		Mmap:         true,
	})
	if err != nil {
		return res, err
	}
	ooc := core.NewSpine[uint64, uint64](fn, core.MergeDefault)
	ooc.SetSpill(st, res.BudgetBytes)
	oocH := load(ooc)
	for _, run := range ooc.Runs() {
		if b, ok := run.(*core.Batch[uint64, uint64]); ok {
			res.ResidentBytes += b.ApproxBytes()
		} else {
			res.SpilledRuns++
		}
	}
	if res.SpilledRuns == 0 {
		return res, fmt.Errorf("oocore: budget %d spilled nothing of %d bytes; the probe measures nothing",
			res.BudgetBytes, res.TotalBytes)
	}

	// Identical probe schedules: per wave a fresh cursor (seeks are
	// forward-only) over sorted keys sampled from the history — a lookup
	// join probes keys that exist, so every probe pays ForUpdates work on
	// both sides — accumulating a commutative digest so run iteration order
	// cannot mask a divergence.
	schedules := make([][]uint64, waves)
	pr := rand.New(rand.NewSource(23))
	for w := range schedules {
		keys := make([]uint64, probesPerWave)
		for i := range keys {
			idx := pr.Intn(len(liveKeys))
			if pr.Float64() < recentBias {
				idx = len(liveKeys) - 1 - pr.Intn(len(liveKeys)/8)
			}
			keys[i] = liveKeys[idx]
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		schedules[w] = keys
	}
	wave := func(h *core.Handle[uint64, uint64], keys []uint64) uint64 {
		var sum uint64
		cur := h.CursorThrough(final)
		for _, k := range keys {
			if !cur.SeekKey(k) {
				continue
			}
			cur.ForUpdates(k, func(v uint64, t lattice.Time, d core.Diff) {
				sum += uint64(d) * core.Mix64(core.Mix64(k)^core.Mix64(v)^t.Epoch())
			})
		}
		return sum
	}
	probe := func(h *core.Handle[uint64, uint64]) (uint64, float64) {
		// One untimed wave first: the gate meters steady-state probing, not
		// the one-time fill of the hot working set into the block cache.
		wave(h, schedules[0])
		var sum uint64
		start := time.Now()
		for _, keys := range schedules {
			sum += wave(h, keys)
		}
		return sum, time.Since(start).Seconds()
	}
	memSum, memSec := probe(memH)
	before := st.BlocksRead
	oocSum, oocSec := probe(oocH)
	res.BlocksRead = st.BlocksRead - before
	if memSum != oocSum {
		return res, fmt.Errorf("oocore: spilled probe checksum %016x != resident %016x", oocSum, memSum)
	}
	res.Checksum = memSum
	res.MemSeconds, res.SpillSeconds = memSec, oocSec
	if memSec > 0 {
		res.SlowdownX = oocSec / memSec
	}
	memH.Drop()
	oocH.Drop()
	return res, nil
}
