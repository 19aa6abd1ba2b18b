package harness

import (
	"testing"
)

// Fuzz targets decoding arbitrary byte strings into small multi-epoch
// histories and cross-checking join, reduce (count + distinct) and sum
// against the recompute oracles. Run with go test -fuzz; CI runs a short smoke
// (-fuzztime) on every PR.

func FuzzJoinOracle(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 3, 2, 2, 2, 4}, []byte{1, 3, 1, 2, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2}, []byte{0, 0, 0})
	f.Add([]byte{5, 5, 6, 5, 5, 7}, []byte{5, 1, 0, 5, 1, 3})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ha := DecodeHistory(a, 4, 5, 6)
		hb := DecodeHistory(b, 4, 5, 6)
		checkJoinOracle(t, 2, ha, hb)
	})
}

func FuzzReduceOracle(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 2, 1, 3, 4, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0})
	f.Add([]byte{7, 7, 7, 7, 7, 6, 7, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := DecodeHistory(data, 4, 5, 8)
		checkCountDistinctOracle(t, 2, h)
		// All four epochs sealed in one step: each key's times in one schedule.
		h.SealEvery = h.Epochs
		checkCountDistinctOracle(t, 1, h)
		checkCountDistinctOracle(t, 3, h)
	})
}

func FuzzSumOracle(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 4, 0, 1, 2, 3}) // a sum cancelling over two records, then one retracted
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 5, 4}) // a retraction ahead of its insertion
	f.Add([]byte{7, 3, 0, 7, 3, 3, 7, 6, 4}) // a key that empties and refills
	f.Fuzz(func(t *testing.T, data []byte) {
		h := DecodeHistory(data, 4, 5, 8)
		checkSumOracle(t, 1, h)
		checkSumOracle(t, 3, h)
	})
}
