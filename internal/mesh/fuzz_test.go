package mesh

import (
	"bytes"
	"testing"

	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// FuzzMeshFrameDecode holds the transport's safety line: DecodeFrame must
// return a typed error on malformed input — truncated fields, wild counts,
// bogus kinds, trailing garbage — and never panic or over-allocate. The
// read loop treats any error as connection-fatal, so error-not-panic is the
// entire contract.
func FuzzMeshFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{'Z', 1, 2, 3})
	f.Add(AppendHello(nil, Hello{Version: Version, ClusterKey: 7, Src: 1, Processes: 2, Workers: 4}))
	f.Add(AppendData(nil, 1, 2, 3, 9, []lattice.Time{lattice.Ts(5)}, []byte{1, 2, 3, 4}))
	f.Add(AppendData(nil, 0, 0, 0, 0, nil, nil))
	f.Add(AppendProgress(nil, 0, 0, []timely.ProgressDelta{
		{Op: 3, Port: 1, Out: true, Time: lattice.Ts(2, 4), Diff: -9},
		{Op: 0, Port: 0, Out: false, Time: lattice.Ts(0), Diff: 1},
	}))
	f.Add(AppendUser(nil, []byte("payload")))
	f.Add(AppendHello(nil, Hello{Version: Version, ClusterKey: 7, Src: 1, Processes: 2, Workers: 4, Incarnation: 9}))
	f.Add(AppendHelloResp(nil, 2, 1<<20, 3))
	f.Add(AppendAck(nil, 1, 1<<32))
	f.Add(AppendBarrier(nil, 5))
	// Adversarial shapes: huge counts, truncated times, depth overflow.
	f.Add([]byte{'D', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'P', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{'H', 0x4d, 0x47, 0x50, 0x4b, 1, 0, 0, 0})
	f.Add([]byte{'R', 1})
	f.Add([]byte{'A', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{'B'})
	// A data frame stamped with a depth-3 time whose loop coordinate is 32
	// bits wide, past its depth's 31-bit field: decode must report it, not
	// build the time (which panics).
	const mark = 0x5eed5eed
	wide := AppendData(nil, 1, 2, 3, 9, []lattice.Time{lattice.Ts(5, mark, 0)}, nil)
	wide[bytes.Index(wide, wal.AppendU64(nil, mark))+3] |= 0x80
	f.Add(wide)

	f.Fuzz(func(t *testing.T, payload []byte) {
		frame, err := DecodeFrame(payload)
		if err != nil {
			return
		}
		// A successful decode must re-encode losslessly for the structured
		// kinds (user frames are opaque; data payload tails are too).
		switch frame.Kind {
		case KindHello:
			rt, err := DecodeFrame(AppendHello(nil, frame.Hello))
			if err != nil || rt.Hello != frame.Hello {
				t.Fatalf("hello re-encode mismatch: %+v vs %+v (%v)", rt.Hello, frame.Hello, err)
			}
		case KindHelloResp:
			rt, err := DecodeFrame(AppendHelloResp(nil, frame.Inc, frame.Count, frame.Gen))
			if err != nil || rt.Inc != frame.Inc || rt.Count != frame.Count || rt.Gen != frame.Gen {
				t.Fatalf("hello response re-encode mismatch (%v)", err)
			}
		case KindAck:
			rt, err := DecodeFrame(AppendAck(nil, frame.Gen, frame.Count))
			if err != nil || rt.Gen != frame.Gen || rt.Count != frame.Count {
				t.Fatalf("ack re-encode mismatch (%v)", err)
			}
		case KindBarrier:
			rt, err := DecodeFrame(AppendBarrier(nil, frame.Gen))
			if err != nil || rt.Gen != frame.Gen {
				t.Fatalf("barrier re-encode mismatch (%v)", err)
			}
		case KindProgress:
			rt, err := DecodeFrame(AppendProgress(nil, frame.DF, frame.Seq, frame.Deltas))
			if err != nil || rt.DF != frame.DF || rt.Seq != frame.Seq || len(rt.Deltas) != len(frame.Deltas) {
				t.Fatalf("progress re-encode mismatch (%v)", err)
			}
			for i := range rt.Deltas {
				if rt.Deltas[i] != frame.Deltas[i] {
					t.Fatalf("delta %d re-encode mismatch: %+v vs %+v", i, rt.Deltas[i], frame.Deltas[i])
				}
			}
		}
	})
}
