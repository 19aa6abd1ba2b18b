package timely

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/lattice"
)

// Worker communication fabric: the transport beneath exchanged channels and
// the progress protocol. A single-process runtime uses the local fabric (a
// no-op: every worker is in-process, mailboxes are shared memory, and the
// progress tracker is one mutex-guarded replica). A multi-process runtime
// plugs in a peer fabric (internal/mesh) that frames exchange partitions and
// pointstamp-delta broadcasts onto per-peer connections.
//
// The split follows Naiad: each process holds a full replica of every
// dataflow's pointstamp counts. Local mutations apply immediately (the
// optimistic update) and are broadcast, in application order, to every peer;
// remote batches apply on arrival. Because every batch carries a message's
// or capability's increments before the decrements they justify, and because
// the fabric delivers each sender's batches in order, no replica's frontier
// ever advances past work that still exists somewhere — the replicas are
// conservative views that all converge (the could-result-in safety argument
// of the Naiad paper, §4). Counts may go transiently negative on a replica
// that consumes a message before the sender's increment arrives; frontiers
// are computed from positive counts only, so this is benign.

// ProgressDelta is one pointstamp count change, identified structurally so
// the fabric needs no knowledge of dataflow types. Op and Port address the
// operator port (Out selects the capability space); deltas apply in slice
// order, increments before the decrements they justify.
type ProgressDelta struct {
	Op   int
	Port int
	Out  bool
	Time lattice.Time
	Diff int64
}

// FabricHost is the runtime-side surface a fabric delivers into. Both
// methods may be called from fabric-owned goroutines at any time after
// Start, including before the local process has built the dataflow the
// frames address (the runtime stashes early data frames).
type FabricHost interface {
	// DeliverData hands one exchanged data partition to a local worker's
	// mailbox. The stamp and payload are owned by the host after the call.
	// A non-nil error reports an undecodable payload; the fabric must treat
	// it as fatal for the sending peer.
	DeliverData(df, ch, worker int, stamp []lattice.Time, payload []byte) error
	// DeliverProgress applies one peer's pointstamp-delta batch to the local
	// replica of dataflow df's tracker. Batches from one peer must be
	// delivered in the order that peer broadcast them.
	DeliverProgress(df int, deltas []ProgressDelta)
}

// Fabric is the pluggable transport beneath a runtime. Workers 0..Workers()-1
// are sharded across processes; this process owns the contiguous range
// [FirstLocal(), FirstLocal()+LocalWorkers()).
type Fabric interface {
	// Workers is the global worker count.
	Workers() int
	// FirstLocal is the index of this process's first worker.
	FirstLocal() int
	// LocalWorkers is the number of workers this process runs.
	LocalWorkers() int
	// Start attaches the receiving side. Must be called exactly once, before
	// any local worker runs; inbound frames before Start are buffered.
	Start(h FabricHost)
	// SendData ships one exchanged data partition to a remote worker. The
	// stamp must be copied or encoded before returning; ownership of the
	// payload passes to the fabric. Delivery is ordered per (df, ch, worker).
	SendData(df, ch, worker int, stamp []lattice.Time, payload []byte)
	// BroadcastProgress ships a pointstamp-delta batch to every peer. Called
	// under the tracker's mutex, so it must not block on peer I/O; batches
	// from this process must be delivered in call order.
	BroadcastProgress(df int, deltas []ProgressDelta)
	// Fail reports an unrecoverable local protocol error discovered by the
	// runtime (an undecodable stashed payload); the fabric surfaces it like
	// a peer failure.
	Fail(err error)
	// Close releases the transport. Idempotent.
	Close() error
}

// localFabric is the single-process fabric: all workers are local, nothing
// is ever sent, and progress broadcasts have no audience.
type localFabric struct{ n int }

// NewLocalFabric returns the in-process fabric for n workers. Execute and
// StartCluster use it implicitly; it exists as a value so fabric-agnostic
// callers (server.NewFabric) can treat both modes uniformly.
func NewLocalFabric(n int) Fabric {
	if n < 1 {
		panic("timely: need at least one worker")
	}
	return localFabric{n}
}

func (f localFabric) Workers() int      { return f.n }
func (f localFabric) FirstLocal() int   { return 0 }
func (f localFabric) LocalWorkers() int { return f.n }
func (f localFabric) Start(FabricHost)  {}
func (f localFabric) SendData(df, ch, worker int, stamp []lattice.Time, payload []byte) {
	panic("timely: local fabric cannot send remote data")
}
func (f localFabric) BroadcastProgress(df int, deltas []ProgressDelta) {}
func (f localFabric) Fail(err error) {
	panic(fmt.Sprintf("timely: local fabric failure: %v", err))
}
func (f localFabric) Close() error { return nil }

// WireCodec serializes exchanged records of one element type for transport
// between processes. Append encodes a partition onto dst; Decode parses one
// partition, erroring (never panicking) on malformed input.
type WireCodec[D any] struct {
	Append func(dst []byte, data []D) []byte
	Decode func(src []byte) ([]D, error)
}

// wireCodecs maps reflect.TypeFor[D]() to its WireCodec[D]. Registration is
// gob.Register-style: internal/mesh registers codecs for the update types
// the system exchanges; applications with custom exchanged types register
// their own before building dataflows.
var wireCodecs sync.Map

// RegisterWireCodec installs the transport codec for exchanged records of
// type D. Later registrations for the same type win (tests override).
func RegisterWireCodec[D any](c WireCodec[D]) {
	wireCodecs.Store(reflect.TypeFor[D](), c)
}

// wireCodecFor looks up the codec for D; ok is false if none is registered.
func wireCodecFor[D any]() (WireCodec[D], bool) {
	v, ok := wireCodecs.Load(reflect.TypeFor[D]())
	if !ok {
		return WireCodec[D]{}, false
	}
	return v.(WireCodec[D]), true
}

// ExecuteFabric is Execute over an explicit fabric: it runs program once per
// local worker (global indices FirstLocal..FirstLocal+LocalWorkers-1) and
// blocks until all return. Every process of the fabric must construct the
// same dataflows in the same order. The fabric is started, not closed: its
// lifecycle belongs to the caller.
func ExecuteFabric(fab Fabric, program func(w *Worker)) {
	rt := newRuntime(fab)
	fab.Start(rt)
	var wg sync.WaitGroup
	wg.Add(rt.nlocal)
	for i := 0; i < rt.nlocal; i++ {
		w := &Worker{index: rt.first + i, rt: rt}
		go func() {
			defer wg.Done()
			program(w)
		}()
	}
	wg.Wait()
}
