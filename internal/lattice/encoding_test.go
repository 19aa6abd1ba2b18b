package lattice_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/mesh"
	"repro/internal/wal"
)

// loopMax is the largest loop coordinate of a depth-d time, by d−1.
var loopMax = [lattice.MaxDepth]uint64{0, 1<<62 - 1, 1<<31 - 1, 1<<20 - 1}

// maxTimes returns, at the given depth, the time whose coordinates are all
// at their maximum, then one time per loop coordinate with only that one at
// its maximum (a field packed at the wrong offset shows in the others).
func maxTimes(depth int) []lattice.Time {
	top := []uint64{^uint64(0)}
	for i := 1; i < depth; i++ {
		top = append(top, loopMax[depth-1])
	}
	times := []lattice.Time{lattice.Ts(top...)}
	for i := 1; i < depth; i++ {
		c := make([]uint64, depth)
		c[0], c[i] = uint64(i), loopMax[depth-1]
		times = append(times, lattice.Ts(c...))
	}
	return times
}

// onlyFile returns the contents of the one file in dir.
func onlyFile(t *testing.T, dir string) []byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("%s holds %d files (%v), want 1", dir, len(ents), err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func updTimes(b *core.Batch[uint64, uint64]) []lattice.Time {
	var out []lattice.Time
	b.ForEach(func(_, _ uint64, t lattice.Time, _ core.Diff) { out = append(out, t) })
	return out
}

// TestMaxTimesEncodeAsBefore round-trips every depth's times at their
// maximum coordinates through a WAL batch record, a block file and a mesh
// data frame. The block file and the frame must hash to what the encoders
// wrote when a Time held its coordinates unpacked, one word each (the
// digests were taken at commit a6f959d): the packed representation changed
// no file and no frame. The WAL batch record has since become a head
// followed by the block payload, so its digests were retaken then, and it
// must end in the block file's one block payload, byte for byte.
func TestMaxTimesEncodeAsBefore(t *testing.T) {
	want := map[string]string{
		"wal/1":   "f7f28ef292fa2714faa07b2f4795207ef5cb4f3817c242ad1946b4a5f2b839a8",
		"block/1": "8c0cf194c32a9e489f8fa5083c7a71c5ab575cad453244d2e287103f0334ce04",
		"mesh/1":  "1d3ce0b3ca394f7450a5eb06aa0fe6aaf6ba22137d7a396a8a25215b740e910d",
		"wal/2":   "a0591ca4cf818fa4e9ea342c51b50a45e17a1728ab2e85dc4f53853c83011842",
		"block/2": "1d463a38fd0ec8bba858d37148c380c9dc8eeaccb0e7d70ec9713e0803564308",
		"mesh/2":  "3ac50a7d5d572c264c9182c9ad49cb1a724b26e12987e8cbfa64c2a6fdebab06",
		"wal/3":   "79cd47480a07a0db6e3cbf314fbd220943acbe8fc41c84677560c9bc729a6979",
		"block/3": "1030eb179420207dfd083e6658d6cc2c6e6be4987aa2cf64139b81b55581ac11",
		"mesh/3":  "306c74e8e885524966e5a1dc11edcbabd8628784314bcce27b415894afaf1a3d",
		"wal/4":   "78e5a683ccd0994c6c00fa48cac56792094d2e51066ff9408f82bf3178c96727",
		"block/4": "591a8b6591216b570a785a3ad6c755af3ea24fa14d88c4f85cf7f4eeabfe25b8",
		"mesh/4":  "b96fb261e98668f8f9b99545210fa4ec1d9e8cc72f4b84ae32f68a38cb7c13a2",
	}
	check := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: encoded bytes hash to %s, want %s", name, got, want[name])
		}
	}
	fn := core.U64()
	for depth := 1; depth <= lattice.MaxDepth; depth++ {
		if got := lattice.MaxLoopCoord(depth); got != loopMax[depth-1] {
			t.Fatalf("MaxLoopCoord(%d) = %d, want %d", depth, got, loopMax[depth-1])
		}
		times := maxTimes(depth)
		var upds []core.Update[uint64, uint64]
		for i, tm := range times {
			upds = append(upds, core.Update[uint64, uint64]{Key: uint64(i), Val: ^uint64(0), Time: tm, Diff: 1})
		}
		lower := lattice.MinFrontier(depth)
		b := core.BuildBatch(fn, upds, lower, lattice.Frontier{}, lower.Clone())
		wantTimes := updTimes(b)

		dir := t.TempDir()
		lg, _, err := wal.OpenShard[uint64, uint64](dir, wal.U64Codec(), wal.U64Codec(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		record := onlyFile(t, dir)
		check(fmt.Sprintf("wal/%d", depth), record)
		lg, st, err := wal.OpenShard[uint64, uint64](dir, wal.U64Codec(), wal.U64Codec(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if len(st.Batches) != 1 || !reflect.DeepEqual(updTimes(st.Batches[0]), wantTimes) {
			t.Fatalf("depth %d: WAL replay changed the times", depth)
		}

		bdir := t.TempDir()
		store, err := block.Open[uint64, uint64](bdir, fn, nil, wal.U64Codec(), block.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := store.Spill(b)
		if err != nil {
			t.Fatal(err)
		}
		file := onlyFile(t, bdir)
		check(fmt.Sprintf("block/%d", depth), file)
		// The file's first frame follows its 32-byte header: length, CRC,
		// the block kind byte, then the payload.
		if n := binary.LittleEndian.Uint32(file[32:]); !bytes.HasSuffix(record, file[32+9:32+8+n]) {
			t.Errorf("depth %d: the WAL record does not end in the block payload", depth)
		}
		got, err := store.Unspill(cold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(updTimes(got), wantTimes) {
			t.Fatalf("depth %d: block decode changed the times", depth)
		}

		frame := mesh.AppendData(nil, 1, 2, 3, 4, times, nil)
		check(fmt.Sprintf("mesh/%d", depth), frame)
		f, err := mesh.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.Stamp, times) {
			t.Fatalf("depth %d: mesh decode changed the times", depth)
		}
	}
}
