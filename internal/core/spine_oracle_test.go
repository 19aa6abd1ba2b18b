package core

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
)

// spineOracleProgram interprets a byte program against a Spine and a naive
// sort-and-consolidate oracle (the raw update history), checking after every
// step that the spine's visible contents accumulate identically to the
// oracle at every probe time legal under the reader's logical frontier.
//
// Byte ops (round-robin over the program): append a batch of updates at the
// current epoch, apply fueled maintenance, advance the reader's logical
// (compaction) frontier, move the physical frontier, or force Recompact.
func spineOracleProgram(t *testing.T, prog []byte) {
	t.Helper()
	const keySpace, valSpace = 4, 3
	fn := U64()
	coefs := []int{MergeLazy, MergeDefault, MergeEager}
	coef := coefs[int(progByte(prog, 0))%len(coefs)]
	s := NewSpine[uint64, uint64](fn, coef)
	h := s.NewHandle()

	var oracle []Update[uint64, uint64]
	epoch := uint64(0)   // next batch covers [epoch, epoch+1)
	logical := uint64(0) // reader's promised minimum accumulation time

	check := func(step int) {
		// Every probe time in advance of the logical frontier must agree.
		for pe := logical; pe <= epoch+1; pe++ {
			at := lattice.Ts(pe)
			want := make(map[[2]uint64]Diff)
			for _, u := range oracle {
				if u.Time.LessEqual(at) {
					k := [2]uint64{u.Key, u.Val}
					want[k] += u.Diff
				}
			}
			got := make(map[[2]uint64]Diff)
			for _, b := range s.Runs() {
				b.ForEach(func(k, v uint64, ut lattice.Time, d Diff) {
					if ut.LessEqual(at) {
						got[[2]uint64{k, v}] += d
					}
				})
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("step %d: at %v record %v accumulates to %d, oracle says %d",
						step, at, k, got[k], want[k])
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok && got[k] != 0 {
					t.Fatalf("step %d: at %v spurious record %v with diff %d", step, at, k, got[k])
				}
			}
		}
	}

	for i := 0; i+3 < len(prog); i += 4 {
		op, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		switch op % 5 {
		case 0, 1: // append a batch (the common case)
			n := int(a) % 6
			upds := make([]Update[uint64, uint64], 0, n)
			r := rand.New(rand.NewSource(int64(b)<<8 | int64(c)))
			for j := 0; j < n; j++ {
				d := Diff(1)
				if r.Intn(2) == 1 {
					d = -1
				}
				u := Update[uint64, uint64]{
					Key:  uint64(r.Intn(keySpace)),
					Val:  uint64(r.Intn(valSpace)),
					Time: lattice.Ts(epoch),
					Diff: d,
				}
				upds = append(upds, u)
				oracle = append(oracle, u)
			}
			batch := BuildBatch(fn, upds,
				lattice.NewFrontier(lattice.Ts(epoch)),
				lattice.NewFrontier(lattice.Ts(epoch+1)),
				lattice.MinFrontier(1))
			s.Append(batch)
			epoch++
		case 2: // fueled maintenance
			s.Work(int(a)*8 + 1)
		case 3: // advance the reader's compaction promise
			step := uint64(a) % 3
			if logical+step > epoch {
				step = 0
			}
			logical += step
			h.SetLogical(lattice.NewFrontier(lattice.Ts(logical)))
			if b%2 == 0 {
				h.SetPhysical(lattice.NewFrontier(lattice.Ts(uint64(c) % (epoch + 1))))
			}
		case 4: // force all permitted maintenance to completion
			s.Recompact()
		}
		check(i)
	}
	// Final full recompaction must still agree with the oracle.
	s.Recompact()
	check(len(prog))
}

func progByte(p []byte, i int) byte {
	if i < len(p) {
		return p[i]
	}
	return 0
}

// TestSpineOracleSeeds runs the oracle program over many deterministic
// random programs (the property-test harness for fueled merging plus
// frontier-relative consolidation).
func TestSpineOracleSeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 160)
		r.Read(prog)
		spineOracleProgram(t, prog)
	}
}

// FuzzSpineOracle lets the fuzzer drive arbitrary batch/compaction/merge
// sequences against the oracle: go test -fuzz=FuzzSpineOracle ./internal/core
func FuzzSpineOracle(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 2, 9, 0, 0, 3, 1, 0, 0, 4, 0, 0, 0})
	r := rand.New(rand.NewSource(7))
	seedProg := make([]byte, 64)
	r.Read(seedProg)
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("program too long")
		}
		spineOracleProgram(t, prog)
	})
}
