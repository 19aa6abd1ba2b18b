package mesh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/timely"
	"repro/internal/wal"
)

// Peer frames ride the same record framing the WAL and the client wire
// protocol use: u32 length, u32 CRC32-C, payload. The payload's first byte
// selects the frame kind; everything after is kind-specific and decoded with
// the bounds-checked wal.Dec reader, so a malformed frame yields a typed
// error (and a disconnect), never a panic.

// MaxFrame bounds a single peer frame's payload. Exchange partitions are
// flushed per schedule call, so frames track staging-buffer sizes; the bound
// only has to exceed the largest plausible partition.
const MaxFrame uint32 = 1 << 26

// Protocol version. Peers with mismatched versions refuse the handshake.
// Version 2 added incarnations to the hello, the hello response (incarnation
// plus delivered-frame count, for replay after a reconnect), cumulative acks,
// and resync barriers.
const Version uint32 = 2

// helloMagic begins every hello payload, distinguishing a kpg peer from a
// stray client dialing the mesh port.
const helloMagic uint32 = 0x4b50474d // "KPGM"

// Frame kinds.
const (
	KindHello     = byte('H') // handshake: identity, incarnation, cluster shape
	KindHelloResp = byte('R') // handshake reply: incarnation + delivered count
	KindData      = byte('D') // one exchanged data partition
	KindProgress  = byte('P') // one pointstamp-delta batch
	KindUser      = byte('U') // opaque application payload (result gathering)
	KindAck       = byte('A') // cumulative delivery ack (bounds replay buffers)
	KindBarrier   = byte('B') // resync barrier: flushes a stale generation
)

// Hello is the handshake frame: each side of a connection announces its
// identity and its view of the cluster shape; any disagreement is fatal.
// Incarnation counts the sender's restarts — a peer whose pinned incarnation
// for this rank is higher refuses the connection as stale.
type Hello struct {
	Version     uint32
	ClusterKey  uint64 // workload-configuration hash; all peers must agree
	Src         int    // sender's process rank
	Processes   int
	Workers     int
	Incarnation uint64
}

// Frame is one decoded peer frame.
type Frame struct {
	Kind byte

	Hello Hello // KindHello

	DF     int    // KindData, KindProgress: dataflow sequence number
	Ch     int    // KindData: channel id
	Worker int    // KindData: destination worker (global index)
	Seq    uint64 // KindData: per-(df,ch,worker) sequence; KindProgress: per-(link,df)

	Stamp   []lattice.Time         // KindData
	Payload []byte                 // KindData, KindUser (aliases input)
	Deltas  []timely.ProgressDelta // KindProgress

	Inc   uint64 // KindHelloResp: responder's incarnation
	Count uint64 // KindHelloResp, KindAck: cumulative delivered-frame count
	Gen   uint64 // KindHelloResp, KindAck, KindBarrier: generation the frame belongs to
}

// uvInt reads a uvarint that must fit a non-negative int.
func uvInt(d *wal.Dec, what string) (int, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > 1<<31 {
		return 0, fmt.Errorf("mesh: %s %d out of range", what, u)
	}
	return int(u), nil
}

// AppendHello encodes a hello frame payload onto dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, KindHello)
	dst = wal.AppendU32(dst, helloMagic)
	dst = wal.AppendU32(dst, h.Version)
	dst = wal.AppendU64(dst, h.ClusterKey)
	dst = wal.AppendUvarint(dst, uint64(h.Src))
	dst = wal.AppendUvarint(dst, uint64(h.Processes))
	dst = wal.AppendUvarint(dst, uint64(h.Workers))
	dst = wal.AppendU64(dst, h.Incarnation)
	return dst
}

// AppendHelloResp encodes a handshake reply: the responder's incarnation, the
// cumulative count of countable frames (data/progress/user/barrier) it has
// delivered on this link, and the generation of the last barrier it processed
// from the dialer. The dialer replays its unacked tail from the count when the
// generations agree; a responder still behind the dialer's generation has by
// definition processed none of the dialer's current-generation frames, so the
// dialer replays that generation from its start instead.
func AppendHelloResp(dst []byte, incarnation, recvCount, barrierGen uint64) []byte {
	dst = append(dst, KindHelloResp)
	dst = wal.AppendU64(dst, incarnation)
	dst = wal.AppendU64(dst, recvCount)
	dst = wal.AppendU64(dst, barrierGen)
	return dst
}

// AppendAck encodes a cumulative delivery ack for the given generation.
func AppendAck(dst []byte, gen, count uint64) []byte {
	dst = append(dst, KindAck)
	dst = wal.AppendU64(dst, gen)
	dst = wal.AppendU64(dst, count)
	return dst
}

// AppendBarrier encodes a resync barrier for the given generation.
func AppendBarrier(dst []byte, gen uint64) []byte {
	dst = append(dst, KindBarrier)
	dst = wal.AppendU64(dst, gen)
	return dst
}

// AppendData encodes a data-partition frame payload onto dst.
func AppendData(dst []byte, df, ch, worker int, seq uint64, stamp []lattice.Time, payload []byte) []byte {
	dst = append(dst, KindData)
	dst = wal.AppendUvarint(dst, uint64(df))
	dst = wal.AppendUvarint(dst, uint64(ch))
	dst = wal.AppendUvarint(dst, uint64(worker))
	dst = wal.AppendU64(dst, seq)
	dst = wal.AppendU32(dst, uint32(len(stamp)))
	for _, t := range stamp {
		dst = wal.AppendTime(dst, t)
	}
	return append(dst, payload...)
}

// AppendProgress encodes a pointstamp-delta batch frame payload onto dst.
// Delta order is preserved: increments precede the decrements they justify.
func AppendProgress(dst []byte, df int, seq uint64, deltas []timely.ProgressDelta) []byte {
	dst = append(dst, KindProgress)
	dst = wal.AppendUvarint(dst, uint64(df))
	dst = wal.AppendU64(dst, seq)
	dst = wal.AppendU32(dst, uint32(len(deltas)))
	for _, d := range deltas {
		dst = wal.AppendUvarint(dst, uint64(d.Op))
		dst = wal.AppendUvarint(dst, uint64(d.Port))
		out := byte(0)
		if d.Out {
			out = 1
		}
		dst = append(dst, out)
		dst = wal.AppendTime(dst, d.Time)
		dst = wal.AppendZigzag(dst, d.Diff)
	}
	return dst
}

// AppendUser encodes an opaque user frame payload onto dst.
func AppendUser(dst []byte, payload []byte) []byte {
	dst = append(dst, KindUser)
	return append(dst, payload...)
}

// DecodeFrame parses one frame payload (the bytes inside a wal record). It
// returns a typed error on any malformation and never panics; Payload fields
// alias the input.
func DecodeFrame(payload []byte) (Frame, error) {
	if len(payload) == 0 {
		return Frame{}, fmt.Errorf("mesh: empty frame")
	}
	f := Frame{Kind: payload[0]}
	d := wal.NewDec(payload[1:])
	switch f.Kind {
	case KindHello:
		magic, err := d.U32()
		if err != nil {
			return Frame{}, err
		}
		if magic != helloMagic {
			return Frame{}, fmt.Errorf("mesh: bad hello magic %08x", magic)
		}
		if f.Hello.Version, err = d.U32(); err != nil {
			return Frame{}, err
		}
		if f.Hello.ClusterKey, err = d.U64(); err != nil {
			return Frame{}, err
		}
		if f.Hello.Src, err = uvInt(d, "hello src"); err != nil {
			return Frame{}, err
		}
		if f.Hello.Processes, err = uvInt(d, "hello processes"); err != nil {
			return Frame{}, err
		}
		if f.Hello.Workers, err = uvInt(d, "hello workers"); err != nil {
			return Frame{}, err
		}
		if f.Hello.Incarnation, err = d.U64(); err != nil {
			return Frame{}, err
		}
		return f, nil

	case KindHelloResp:
		var err error
		if f.Inc, err = d.U64(); err != nil {
			return Frame{}, err
		}
		if f.Count, err = d.U64(); err != nil {
			return Frame{}, err
		}
		if f.Gen, err = d.U64(); err != nil {
			return Frame{}, err
		}
		return f, nil

	case KindAck:
		var err error
		if f.Gen, err = d.U64(); err != nil {
			return Frame{}, err
		}
		if f.Count, err = d.U64(); err != nil {
			return Frame{}, err
		}
		return f, nil

	case KindBarrier:
		var err error
		if f.Gen, err = d.U64(); err != nil {
			return Frame{}, err
		}
		return f, nil

	case KindData:
		var err error
		if f.DF, err = uvInt(d, "dataflow"); err != nil {
			return Frame{}, err
		}
		if f.Ch, err = uvInt(d, "channel"); err != nil {
			return Frame{}, err
		}
		if f.Worker, err = uvInt(d, "worker"); err != nil {
			return Frame{}, err
		}
		if f.Seq, err = d.U64(); err != nil {
			return Frame{}, err
		}
		n, err := d.Count("stamps")
		if err != nil {
			return Frame{}, err
		}
		f.Stamp = make([]lattice.Time, n)
		for i := range f.Stamp {
			if f.Stamp[i], err = d.Time(); err != nil {
				return Frame{}, err
			}
		}
		f.Payload = payload[len(payload)-d.Remaining():]
		return f, nil

	case KindProgress:
		var err error
		if f.DF, err = uvInt(d, "dataflow"); err != nil {
			return Frame{}, err
		}
		if f.Seq, err = d.U64(); err != nil {
			return Frame{}, err
		}
		n, err := d.Count("deltas")
		if err != nil {
			return Frame{}, err
		}
		f.Deltas = make([]timely.ProgressDelta, n)
		for i := range f.Deltas {
			if f.Deltas[i].Op, err = uvInt(d, "delta op"); err != nil {
				return Frame{}, err
			}
			if f.Deltas[i].Port, err = uvInt(d, "delta port"); err != nil {
				return Frame{}, err
			}
			out, err := d.U8()
			if err != nil {
				return Frame{}, err
			}
			if out > 1 {
				return Frame{}, fmt.Errorf("mesh: delta out flag %d", out)
			}
			f.Deltas[i].Out = out == 1
			if f.Deltas[i].Time, err = d.Time(); err != nil {
				return Frame{}, err
			}
			if f.Deltas[i].Diff, err = d.Zigzag(); err != nil {
				return Frame{}, err
			}
		}
		if d.Remaining() != 0 {
			return Frame{}, fmt.Errorf("mesh: %d trailing bytes after progress frame", d.Remaining())
		}
		return f, nil

	case KindUser:
		f.Payload = payload[1:]
		return f, nil
	}
	return Frame{}, fmt.Errorf("mesh: unknown frame kind %q", f.Kind)
}

// RegisterUpdateCodec installs a timely wire codec for exchanged
// core.Update[K, V] records, built from the WAL's per-type codecs. The
// standard u64/i64/unit combinations are registered at package init; callers
// with other exchanged types register theirs before building dataflows.
func RegisterUpdateCodec[K, V any](kc wal.Codec[K], vc wal.Codec[V]) {
	timely.RegisterWireCodec(timely.WireCodec[core.Update[K, V]]{
		Append: func(dst []byte, data []core.Update[K, V]) []byte {
			dst = wal.AppendU32(dst, uint32(len(data)))
			for _, u := range data {
				dst = kc.Append(dst, u.Key)
				dst = vc.Append(dst, u.Val)
				dst = wal.AppendTime(dst, u.Time)
				dst = wal.AppendZigzag(dst, u.Diff)
			}
			return dst
		},
		Decode: func(src []byte) ([]core.Update[K, V], error) {
			d := wal.NewDec(src)
			n, err := d.Count("updates")
			if err != nil {
				return nil, err
			}
			out := make([]core.Update[K, V], n)
			for i := range out {
				if out[i].Key, err = wal.DecValue(d, kc); err != nil {
					return nil, err
				}
				if out[i].Val, err = wal.DecValue(d, vc); err != nil {
					return nil, err
				}
				if out[i].Time, err = d.Time(); err != nil {
					return nil, err
				}
				if out[i].Diff, err = d.Zigzag(); err != nil {
					return nil, err
				}
			}
			if d.Remaining() != 0 {
				return nil, fmt.Errorf("mesh: %d trailing bytes after update partition", d.Remaining())
			}
			return out, nil
		},
	})
}

func init() {
	RegisterUpdateCodec[uint64, uint64](wal.U64Codec(), wal.U64Codec())
	RegisterUpdateCodec[uint64, core.Unit](wal.U64Codec(), wal.UnitCodec())
	RegisterUpdateCodec[uint64, int64](wal.U64Codec(), wal.I64Codec())
	RegisterUpdateCodec[int64, int64](wal.I64Codec(), wal.I64Codec())
}
