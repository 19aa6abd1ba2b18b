package block

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/wal"
)

// tup is the test value type: mixed signedness, four words wide, written
// on disk as tupCodec bytes.
type tup struct {
	A uint64
	B int64
	C uint64
	D int64
}

func lessTup(a, b tup) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.C != b.C {
		return a.C < b.C
	}
	return a.D < b.D
}

// tupCodec is the value codec every test store writes tup with.
type tupCodec struct{}

func (tupCodec) Append(dst []byte, v tup) []byte {
	dst = wal.AppendU64(dst, v.A)
	dst = wal.AppendU64(dst, uint64(v.B))
	dst = wal.AppendU64(dst, v.C)
	return wal.AppendU64(dst, uint64(v.D))
}

func (tupCodec) Read(src []byte) (tup, int, error) {
	d := wal.NewDec(src)
	var v tup
	var err error
	if v.A, err = d.U64(); err != nil {
		return tup{}, 0, err
	}
	u, err := d.U64()
	if err != nil {
		return tup{}, 0, err
	}
	v.B = int64(u)
	if v.C, err = d.U64(); err != nil {
		return tup{}, 0, err
	}
	if u, err = d.U64(); err != nil {
		return tup{}, 0, err
	}
	v.D = int64(u)
	return v, 32, nil
}

func fnTup() core.Funcs[uint64, tup] {
	return core.Funcs[uint64, tup]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: lessTup,
		HashK: core.Mix64,
	}
}

func randTup(r *rand.Rand) tup {
	return tup{
		A: uint64(r.Intn(4)),
		B: int64(r.Intn(7) - 3),
		C: uint64(r.Int63()),
		D: int64(r.Intn(200) - 100),
	}
}

type upd = core.Update[uint64, tup]

// randBatch builds one sealed batch over [lo, hi) epochs with n raw updates
// (consolidation may shrink it).
func randBatch(r *rand.Rand, fn core.Funcs[uint64, tup], lo, hi uint64, n, keySpace int) *core.Batch[uint64, tup] {
	return randBatchAt(r, fn, 1, lo, hi, n, keySpace)
}

// randBatchAt is randBatch at time depth 1 or 2. A depth-2 time's round
// falls as its epoch rises, so the batch's minimal times form a true
// antichain.
func randBatchAt(r *rand.Rand, fn core.Funcs[uint64, tup], depth int, lo, hi uint64, n, keySpace int) *core.Batch[uint64, tup] {
	at := func(epoch uint64) lattice.Time {
		if depth == 1 {
			return lattice.Ts(epoch)
		}
		return lattice.Ts(epoch, hi-epoch+uint64(r.Intn(2)))
	}
	var upds []upd
	for i := 0; i < n; i++ {
		upds = append(upds, upd{
			Key:  uint64(r.Intn(keySpace)),
			Val:  randTup(r),
			Time: at(lo + uint64(r.Intn(int(hi-lo)))),
			Diff: int64(r.Intn(5) - 2),
		})
	}
	lower := lattice.NewFrontier(lattice.Ts(lo))
	upper := lattice.NewFrontier(lattice.Ts(hi))
	if depth == 2 {
		lower = lattice.NewFrontier(lattice.Ts(lo, 0))
		upper = lattice.NewFrontier(lattice.Ts(hi, 0))
	}
	return core.BuildBatch(fn, upds, lower, upper, lower.Clone())
}

// memSink is an in-memory sink: what a runWriter writes, as one image.
type memSink struct{ buf []byte }

func (m *memSink) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memSink) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.buf[off:], p), nil
}

// encodeImage is b as a complete block-file image: the store's writer over
// an in-memory sink.
func encodeImage[K, V any](cfg *codecs[K, V], b *core.Batch[K, V], blockUpdates int) ([]byte, error) {
	var m memSink
	w, err := newRunWriter(cfg, blockUpdates, &m)
	if err != nil {
		return nil, err
	}
	if err := w.append(b); err != nil {
		return nil, err
	}
	if err := w.finish(b.Lower, b.Upper, b.Since); err != nil {
		return nil, err
	}
	return m.buf, nil
}

// countingSink is a memSink that counts the writes a file would get.
type countingSink struct {
	memSink
	writes int
}

func (c *countingSink) Write(p []byte) (int, error) {
	c.writes++
	return c.memSink.Write(p)
}

func (c *countingSink) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	return c.memSink.WriteAt(p, off)
}

// TestRunWritesAreBuffered: the run writer hands the file its blocks in
// writeBufLen writes, however small the blocks, plus the last partial
// buffer and the header: a 100 k-update run in 16-update blocks is ≈ 6 000
// blocks, not ≈ 6 000 writes.
func TestRunWritesAreBuffered(t *testing.T) {
	cfg, err := newCodecs[uint64, uint64](core.U64(), nil, wal.U64Codec())
	if err != nil {
		t.Fatal(err)
	}
	run := u64Run(100_000)
	var out countingSink
	w, err := newRunWriter(cfg, 16, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(run); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(run.Lower, run.Upper, run.Since); err != nil {
		t.Fatal(err)
	}
	if limit := (len(out.buf)+writeBufLen-1)/writeBufLen + 2; out.writes > limit {
		t.Fatalf("%d blocks, %d file bytes: %d writes, want at most %d", len(w.metas), len(out.buf), out.writes, limit)
	}
	got, err := decodeImage[uint64, uint64](core.U64(), nil, wal.U64Codec(), out.buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != run.Len() || len(got.Keys) != len(run.Keys) {
		t.Fatalf("decoded %d updates over %d keys, wrote %d over %d", got.Len(), len(got.Keys), run.Len(), len(run.Keys))
	}
}

func collectReader(r core.BatchReader[uint64, tup]) []upd {
	var out []upd
	r.ForEach(func(k uint64, v tup, t lattice.Time, d core.Diff) {
		out = append(out, upd{Key: k, Val: v, Time: t, Diff: d})
	})
	return out
}

// TestRoundTrip: encode → decode must reproduce the batch exactly — tuples,
// frontiers and MinTimes — at block sizes that force many blocks, and at
// time depths 1 and 2 (the decoder reads times at the file's depth).
func TestRoundTrip(t *testing.T) {
	for _, depth := range []int{1, 2} {
		r := rand.New(rand.NewSource(7))
		fn := fnTup()
		cfg, err := newCodecs[uint64, tup](fn, nil, tupCodec{})
		if err != nil {
			t.Fatal(err)
		}
		antichain := false
		for _, blockUpdates := range []int{1, 7, 100000} {
			b := randBatchAt(r, fn, depth, 0, 4, 300, 40)
			antichain = antichain || len(b.MinTimes()) > 1
			img, err := encodeImage(cfg, b, blockUpdates)
			if err != nil {
				t.Fatalf("depth=%d encode: %v", depth, err)
			}
			got, err := decodeImage[uint64, tup](fn, nil, tupCodec{}, img)
			if err != nil {
				t.Fatalf("depth=%d blockUpdates=%d decode: %v", depth, blockUpdates, err)
			}
			want, have := collectReader(b), collectReader(got)
			if len(want) != len(have) {
				t.Fatalf("depth=%d: %d tuples round-tripped to %d", depth, len(want), len(have))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("depth=%d tuple %d: %+v became %+v", depth, i, want[i], have[i])
				}
			}
			if !got.Lower.Equal(b.Lower) || !got.Upper.Equal(b.Upper) || !got.Since.Equal(b.Since) {
				t.Fatalf("depth=%d: frontiers drifted in round trip", depth)
			}
			if w, h := lattice.NewFrontier(b.MinTimes()...), lattice.NewFrontier(got.MinTimes()...); !w.Equal(h) {
				t.Fatalf("depth=%d: MinTimes %v became %v", depth, w, h)
			}
		}
		if depth == 2 && !antichain {
			t.Fatal("no depth-2 batch had more than one minimal time")
		}
	}
}

// strCodec is a length-prefixed codec for string keys.
type strCodec struct{}

func (strCodec) Append(dst []byte, v string) []byte {
	return append(wal.AppendU64(dst, uint64(len(v))), v...)
}

func (strCodec) Read(src []byte) (string, int, error) {
	n, _, err := wal.U64Codec().Read(src)
	if err != nil || n > uint64(len(src)-8) {
		return "", 0, errors.New("string extends past record end")
	}
	return string(src[8 : 8+n]), 8 + int(n), nil
}

// TestRoundTripCodecKeys exercises the codec key path (non-uint64 keys).
func TestRoundTripCodecKeys(t *testing.T) {
	fn := core.Funcs[string, uint64]{
		LessK: func(a, b string) bool { return a < b },
		LessV: func(a, b uint64) bool { return a < b },
		HashK: func(s string) uint64 {
			h := uint64(14695981039346656037)
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
			return h
		},
	}
	var upds []core.Update[string, uint64]
	keys := []string{"ab", "ba", "cc", "dd", "longer-key-value", "z"}
	for i, k := range keys {
		for j := 0; j <= i; j++ {
			upds = append(upds, core.Update[string, uint64]{
				Key: k, Val: uint64(j * 10), Time: lattice.Ts(uint64(j % 3)), Diff: 1,
			})
		}
	}
	b := core.BuildBatch(fn, upds, lattice.MinFrontier(1),
		lattice.NewFrontier(lattice.Ts(3)), lattice.MinFrontier(1))
	cfg, err := newCodecs[string, uint64](fn, strCodec{}, wal.U64Codec())
	if err != nil {
		t.Fatal(err)
	}
	img, err := encodeImage(cfg, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeImage[string, uint64](fn, strCodec{}, wal.U64Codec(), img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() || len(got.Keys) != len(b.Keys) {
		t.Fatalf("round trip %d upds/%d keys became %d/%d", b.Len(), len(b.Keys), got.Len(), len(got.Keys))
	}
	for i := range b.Keys {
		if b.Keys[i] != got.Keys[i] {
			t.Fatalf("key %d: %q became %q", i, b.Keys[i], got.Keys[i])
		}
	}
}

// TestOutOfCoreSpineOracle drives identical random histories — appends,
// fueled maintenance, logical-frontier advances, recompactions — through an
// in-memory spine and a spilled spine whose resident budget is aggressively
// tiny, and asserts they stay observationally identical: same runs and
// tuples in the same order, same cursor walks, seeks and accumulations,
// same batch/update counts. Spilling must change where bytes live and
// nothing else. And the spilled spine's resident bytes never exceed the
// budget by more than one block per merge input plus one output block:
// merges read cold inputs, and write output bound for disk, a block at a
// time.
func TestOutOfCoreSpineOracle(t *testing.T) {
	const budget = 64 // nearly everything completed must spill
	for trial := 0; trial < 12; trial++ {
		r := rand.New(rand.NewSource(int64(400 + trial)))
		coef := []int{core.MergeLazy, core.MergeDefault, core.MergeEager}[trial%3]
		fn := fnTup()
		mem := core.NewSpine[uint64, tup](fn, coef)
		ooc := core.NewSpine[uint64, tup](fn, coef)
		st, err := Open[uint64, tup](t.TempDir(), fn, nil, tupCodec{}, StoreOptions{
			BlockUpdates: 4,
			CacheBytes:   512,
			Mmap:         trial%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		ooc.SetSpill(st, budget)
		hm := mem.NewHandle()
		ho := ooc.NewHandle()
		var observeAfter uint64
		for epoch := uint64(0); epoch < 24; epoch++ {
			var upds []upd
			for n := 0; n < r.Intn(12); n++ {
				u := upd{
					Key: uint64(r.Intn(6)), Val: randTup(r),
					Time: lattice.Ts(epoch), Diff: int64(r.Intn(5) - 2),
				}
				if u.Diff == 0 {
					continue
				}
				upds = append(upds, u)
			}
			lower := lattice.NewFrontier(lattice.Ts(epoch))
			if epoch == 0 {
				lower = lattice.MinFrontier(1)
			}
			upper := lattice.NewFrontier(lattice.Ts(epoch + 1))
			mupds := append([]upd(nil), upds...)
			mem.Append(core.BuildBatch(fn, mupds, lower.Clone(), upper.Clone(), hm.Logical().Clone()))
			ooc.Append(core.BuildBatch(fn, upds, lower.Clone(), upper.Clone(), ho.Logical().Clone()))
			switch r.Intn(4) {
			case 0, 3:
				fuel := r.Intn(300)
				mem.Work(fuel)
				ooc.Work(fuel)
			case 1:
				if epoch > observeAfter {
					observeAfter = epoch
					f := lattice.NewFrontier(lattice.Ts(epoch))
					hm.SetLogical(f)
					ho.SetLogical(f)
				}
			case 2:
				mem.Recompact()
				ooc.Recompact()
			}
			if bytes, inputs, block := ooc.Residency(); bytes > budget+int64(inputs+1)*block {
				t.Fatalf("trial %d epoch %d: %d resident bytes, over %d + (%d inputs + 1) × %d-byte blocks",
					trial, epoch, bytes, budget, inputs, block)
			}
			if mem.BatchCount() != ooc.BatchCount() || mem.UpdateCount() != ooc.UpdateCount() {
				t.Fatalf("trial %d epoch %d: counts diverge (%d/%d batches, %d/%d updates)",
					trial, epoch, mem.BatchCount(), ooc.BatchCount(),
					mem.UpdateCount(), ooc.UpdateCount())
			}
			gm, gc := collectRuns(t, mem), collectRuns(t, ooc)
			if len(gm) != len(gc) {
				t.Fatalf("trial %d epoch %d: %d vs %d tuples",
					trial, epoch, len(gm), len(gc))
			}
			for i := range gm {
				if gm[i] != gc[i] {
					t.Fatalf("trial %d epoch %d tuple %d: %+v vs %+v",
						trial, epoch, i, gm[i], gc[i])
				}
			}
		}
		if st.Spills == 0 {
			t.Fatalf("trial %d: history never spilled; oracle is vacuous", trial)
		}
		compareCursors(t, fn, hm, ho, trial)
	}
}

func collectRuns(t *testing.T, s *core.Spine[uint64, tup]) []upd {
	t.Helper()
	var out []upd
	for _, run := range s.Runs() {
		out = append(out, collectReader(run)...)
	}
	return out
}

// compareCursors walks both traces key by key — PeekKey iteration, point
// seeks, ordered update walks, accumulations at the read frontier — and
// requires identical observations. Then one cursor per trace runs the
// forward-only ascending seek sequence a merge join makes: present, absent
// and block-boundary keys and one past the end, each seek checked for its
// result, the key it lands on and the key's updates.
func compareCursors(t *testing.T, fn core.Funcs[uint64, tup],
	hm, ho *core.Handle[uint64, tup], trial int) {
	t.Helper()
	cm, co := hm.Cursor(), ho.Cursor()
	for {
		km, okm := cm.PeekKey()
		ko, oko := co.PeekKey()
		if okm != oko || (okm && km != ko) {
			t.Fatalf("trial %d: PeekKey (%v,%v) vs (%v,%v)",
				trial, km, okm, ko, oko)
		}
		if !okm {
			break
		}
		var wm, wo []vtd
		cm.ForUpdatesOrderedView(km, func(v *tup, tm lattice.Time, d core.Diff) {
			wm = append(wm, vtd{*v, tm, d})
		})
		co.ForUpdatesOrderedView(ko, func(v *tup, tm lattice.Time, d core.Diff) {
			wo = append(wo, vtd{*v, tm, d})
		})
		if len(wm) != len(wo) {
			t.Fatalf("trial %d key %d: walk lengths %d vs %d",
				trial, km, len(wm), len(wo))
		}
		for i := range wm {
			if wm[i] != wo[i] {
				t.Fatalf("trial %d key %d pos %d: %+v vs %+v",
					trial, km, i, wm[i], wo[i])
			}
		}
		cm.SeekKey(km + 1)
		co.SeekKey(ko + 1)
	}
	// Point seeks, including absent keys.
	for k := uint64(0); k < 8; k++ {
		cm, co = hm.Cursor(), ho.Cursor()
		fm, fo := cm.SeekKey(k), co.SeekKey(k)
		if fm != fo {
			t.Fatalf("trial %d: SeekKey(%d) %v vs %v", trial, k, fm, fo)
		}
		if !fm {
			continue
		}
		if um, uo := sortedUpdates(cm, k), sortedUpdates(co, k); !slices.Equal(um, uo) {
			t.Fatalf("trial %d key %d: ForUpdates %+v vs %+v",
				trial, k, um, uo)
		}
	}
	// One forward-only ascending sequence: every block's first and last
	// key, the keys of this trial's parity (present or absent) and a key
	// past the end.
	seq := []uint64{1 << 40}
	for k := uint64(trial % 2); k < 8; k += 2 {
		seq = append(seq, k)
	}
	for _, r := range ho.Spine().Runs() {
		if bb, ok := core.UnwrapReader(r).(*blockBatch[uint64, tup]); ok {
			for _, m := range bb.im.blocks {
				seq = append(seq, m.firstKey, m.lastKey)
			}
		}
	}
	slices.Sort(seq)
	cm, co = hm.Cursor(), ho.Cursor()
	for _, k := range slices.Compact(seq) {
		fm, fo := cm.SeekKey(k), co.SeekKey(k)
		pm, okm := cm.PeekKey()
		po, oko := co.PeekKey()
		if fm != fo || okm != oko || pm != po {
			t.Fatalf("trial %d: ascending SeekKey(%d) found %v, at (%d,%v) vs found %v, at (%d,%v)",
				trial, k, fm, pm, okm, fo, po, oko)
		}
		if um, uo := sortedUpdates(cm, k), sortedUpdates(co, k); !slices.Equal(um, uo) {
			t.Fatalf("trial %d: ascending seek to %d: ForUpdates %+v vs %+v",
				trial, k, um, uo)
		}
	}
}

// vtd is one (value, time, diff) a cursor reports for a key.
type vtd struct {
	v tup
	t lattice.Time
	d core.Diff
}

// sortedUpdates is c.ForUpdates(k) in (value, time, diff) order.
func sortedUpdates(c *core.TraceCursor[uint64, tup], k uint64) []vtd {
	var out []vtd
	c.ForUpdates(k, func(v tup, tm lattice.Time, d core.Diff) {
		out = append(out, vtd{v, tm, d})
	})
	slices.SortFunc(out, func(a, b vtd) int {
		switch {
		case lessTup(a.v, b.v):
			return -1
		case lessTup(b.v, a.v):
			return 1
		case a.t.TotalLess(b.t):
			return -1
		case b.t.TotalLess(a.t):
			return 1
		}
		return cmp.Compare(a.d, b.d)
	})
	return out
}

// TestBlockSkipping: point lookups over a fully spilled spine must decode
// only blocks whose resident min/max key stats straddle the probed keys.
func TestBlockSkipping(t *testing.T) {
	fn := fnTup()
	st, err := Open[uint64, tup](t.TempDir(), fn, nil, tupCodec{}, StoreOptions{
		BlockUpdates: 4, // many small blocks
		CacheBytes:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSpine[uint64, tup](fn, core.MergeDefault)
	s.SetSpill(st, 0) // budget zero: every completed run spills
	h := s.NewHandle()
	// One run of 64 sparse keys (8 apart), 4 updates each → 4-key blocks.
	var upds []upd
	for k := uint64(0); k < 64; k++ {
		for j := 0; j < 4; j++ {
			upds = append(upds, upd{Key: k * 8, Val: tup{A: k, D: int64(j)},
				Time: lattice.Ts(0), Diff: 1})
		}
	}
	s.Append(core.BuildBatch(fn, upds, lattice.MinFrontier(1),
		lattice.NewFrontier(lattice.Ts(1)), lattice.MinFrontier(1)))
	s.Work(0) // no merge work; runs the spill pass
	if st.Spills != 1 {
		t.Fatalf("expected the run to spill, got %d spills", st.Spills)
	}

	var reads []int
	st.OnBlockRead = func(_ string, idx int) { reads = append(reads, idx) }

	runs := s.Runs()
	if len(runs) != 1 {
		t.Fatalf("expected one cold run, got %+v", runs)
	}
	bb, ok := core.UnwrapReader(runs[0]).(*blockBatch[uint64, tup])
	if !ok {
		t.Fatalf("expected one cold run, got %+v", runs)
	}
	nBlocks := len(bb.im.blocks)
	if nBlocks < 8 {
		t.Fatalf("expected many blocks, got %d", nBlocks)
	}

	// Probe keys interior to specific blocks; each lookup may decode only
	// the straddling block.
	probes := []uint64{9 * 8, 33 * 8, 57 * 8}
	c := h.Cursor()
	got := 0
	for _, k := range probes {
		if !c.SeekKey(k) {
			t.Fatalf("key %d missing", k)
		}
		c.ForUpdates(k, func(v tup, tm lattice.Time, d core.Diff) { got++ })
	}
	if got != 3*4 {
		t.Fatalf("probes returned %d updates, want 12", got)
	}
	if len(reads) > len(probes) {
		t.Fatalf("3 point lookups decoded %d blocks (%v); skipping is broken", len(reads), reads)
	}
	for _, bi := range reads {
		m := &bb.im.blocks[bi]
		straddles := false
		for _, k := range probes {
			if !fn.LessK(k, m.firstKey) && !fn.LessK(m.lastKey, k) {
				straddles = true
			}
		}
		if !straddles {
			t.Fatalf("decoded block %d [%d,%d] straddles no probed key",
				bi, m.firstKey, m.lastKey)
		}
	}

	// Probes on block-boundary keys and on absent keys below a block's
	// range resolve from resident stats with zero decodes.
	reads = reads[:0]
	c = h.Cursor()
	if !c.SeekKey(bb.im.blocks[2].firstKey) {
		t.Fatal("block-boundary key missing")
	}
	if k, _ := c.PeekKey(); k != bb.im.blocks[2].firstKey {
		t.Fatalf("boundary seek landed on %d", k)
	}
	if len(reads) != 0 {
		t.Fatalf("boundary seek decoded %d blocks; stats should answer it", len(reads))
	}
}

// TestMinTimesReload: a reloaded block batch must report the same MinTimes
// antichain as the sealed batch it came from — both lazily (resident index)
// and after unspilling (the antichain the decoder folds, SetMinTimes).
func TestMinTimesReload(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	fn := fnTup()
	st, err := Open[uint64, tup](t.TempDir(), fn, nil, tupCodec{}, StoreOptions{BlockUpdates: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := randBatch(r, fn, 2, 6, 200, 20)
	if len(b.MinTimes()) == 0 {
		t.Fatal("test batch has no updates")
	}
	want := lattice.NewFrontier(b.MinTimes()...)
	cold, err := st.Spill(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksRead != 0 {
		t.Fatalf("spill decoded %d blocks eagerly", st.BlocksRead)
	}
	if !lattice.NewFrontier(cold.MinTimes()...).Equal(want) {
		t.Fatalf("cold MinTimes %v, want %v", cold.MinTimes(), want)
	}
	if st.BlocksRead != 0 {
		t.Fatal("MinTimes forced block reads; it must come from the resident index")
	}
	back, err := st.Unspill(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !lattice.NewFrontier(back.MinTimes()...).Equal(want) {
		t.Fatalf("unspilled MinTimes %v, want %v", back.MinTimes(), want)
	}
}

// TestRetireAndGC: retired runs leave the directory (immediately, or at
// GCDead under a manifest), and recovery GC removes unreferenced files.
func TestRetireAndGC(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	fn := fnTup()
	dir := t.TempDir()
	st, err := Open[uint64, tup](dir, fn, nil, tupCodec{}, StoreOptions{Manifest: true})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := st.Spill(randBatch(r, fn, 0, 2, 50, 10))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := st.Spill(randBatch(r, fn, 2, 4, 50, 10))
	if err != nil {
		t.Fatal(err)
	}
	ref1, ok := Ref[uint64, tup](c1)
	if !ok {
		t.Fatal("spilled reader yields no ref")
	}
	st.Retire(c1)
	if names, _ := st.LiveFiles(); len(names) != 2 {
		t.Fatalf("manifest-mode retire deleted early: %v", names)
	}
	if n := st.GCDead(); n != 1 {
		t.Fatalf("GCDead removed %d files, want 1", n)
	}
	// Reopen as after a crash: only c2 is referenced.
	ref2, _ := Ref[uint64, tup](c2)
	st2, err := Open[uint64, tup](dir, fn, nil, tupCodec{}, StoreOptions{Manifest: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.OpenRef(ref2); err != nil {
		t.Fatalf("reopening referenced run: %v", err)
	}
	if _, err := st2.OpenRef(ref1); err == nil {
		t.Fatal("reopening a GC'd run should fail")
	}
	if n, err := st2.GC(map[string]bool{ref2.Name: true}); err != nil || n != 0 {
		t.Fatalf("GC removed %d referenced files (%v)", n, err)
	}
}
