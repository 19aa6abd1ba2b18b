package timely

import (
	"fmt"

	"repro/internal/lattice"
)

// Input is a per-worker handle feeding an input operator. Every worker
// receives its own handle for the same logical input; the input's frontier
// is the minimum over all workers' handle epochs, so every worker must
// advance and eventually close its handle (even if it never sends data).
// An input no operator reads (Connected is false) drops what it is sent.
type Input[D any] struct {
	g      *Graph
	op     int
	reg    *outReg[D]
	epoch  uint64
	closed bool
}

// NewInput creates an input operator and returns this worker's handle plus
// the stream of data it produces. The handle starts at epoch 0.
func NewInput[D any](g *Graph) (*Input[D], *Stream[D]) {
	st := newOpState(g, "Input", 0, 1, nil)
	reg := &outReg[D]{}
	g.tracker.registerNode(st.id, nodeSpec{
		name: "Input", inPorts: 0, outPorts: 1,
		initialCaps: []lattice.Frontier{lattice.NewFrontier(lattice.Ts(0))},
	})
	h := &Input[D]{g: g, op: st.id, reg: reg}
	return h, &Stream[D]{g: g, srcOp: st.id, srcPort: 0, depth: 1, reg: reg}
}

// Epoch returns the handle's current epoch.
func (h *Input[D]) Epoch() uint64 { return h.epoch }

// Connected reports whether any operator has attached to the input's
// stream. Until one does, everything sent is dropped, so a caller can skip
// building data nobody reads.
func (h *Input[D]) Connected() bool { return len(h.reg.channels) > 0 }

// SendSlice introduces data at the handle's current epoch. Ownership of the
// slice passes to the runtime.
func (h *Input[D]) SendSlice(data []D) {
	h.SendAtEpoch(h.epoch, data)
}

// Send introduces data at the handle's current epoch.
func (h *Input[D]) Send(data ...D) { h.SendSlice(data) }

// SendAtEpoch introduces data at a specific epoch ≥ the current one.
func (h *Input[D]) SendAtEpoch(epoch uint64, data []D) {
	if h.closed {
		panic("timely: Send on closed input")
	}
	if epoch < h.epoch {
		panic(fmt.Sprintf("timely: SendAtEpoch(%d) behind current epoch %d", epoch, h.epoch))
	}
	if len(data) == 0 {
		return
	}
	stamp := []lattice.Time{lattice.Ts(epoch)}
	for _, ch := range h.reg.channels {
		// Input sends run outside any operator schedule, so staged exchange
		// buffers flush immediately (nil opState).
		ch.stage(nil, stamp, data)
	}
}

// AdvanceTo moves the handle to a later epoch, allowing the epochs below it
// to complete once all workers have advanced.
func (h *Input[D]) AdvanceTo(epoch uint64) {
	if h.closed {
		panic("timely: AdvanceTo on closed input")
	}
	if epoch <= h.epoch {
		if epoch == h.epoch {
			return
		}
		panic(fmt.Sprintf("timely: AdvanceTo(%d) behind current epoch %d", epoch, h.epoch))
	}
	var pb progressBatch
	pb.capPlus(h.op, 0, lattice.Ts(epoch), 1)
	pb.capMinus(h.op, 0, lattice.Ts(h.epoch), 1)
	h.epoch = epoch
	h.g.tracker.apply(&pb)
	h.g.w.rt.wake()
}

// Close retires the handle; once every worker closes, the input is complete.
func (h *Input[D]) Close() {
	if h.closed {
		return
	}
	var pb progressBatch
	pb.capMinus(h.op, 0, lattice.Ts(h.epoch), 1)
	h.closed = true
	h.g.tracker.apply(&pb)
	h.g.w.rt.wake()
}

// Probe observes the frontier at a point in the dataflow; it is the
// mechanism by which user code learns that results for a time are complete.
type Probe struct {
	g    *Graph
	op   int
	port int
}

// NewProbe attaches a probe to a stream.
func NewProbe[D any](s *Stream[D]) *Probe {
	g := s.g
	st := newOpState(g, "Probe", 1, 0, [][]Summary{{}})
	in := attachIn(s, st, 0, nil)
	st.run = func(ctx *Ctx) {
		in.ForEach(func(stamp []lattice.Time, data []D) {})
	}
	st.register()
	return &Probe{g: g, op: st.id, port: 0}
}

// Frontier returns the probe's current input frontier.
func (p *Probe) Frontier() lattice.Frontier {
	return p.g.tracker.frontierAt(p.op, p.port)
}

// Done reports whether the computation can no longer produce output at or
// before t: no frontier element is ≤ t.
func (p *Probe) Done(t lattice.Time) bool {
	return !p.Frontier().LessEqual(t)
}

// Feedback is the loop-forming operator: data sent to it re-emerges with the
// innermost timestamp coordinate incremented. adjust is applied to each
// record on the way around (differential uses it to advance the logical
// times embedded in update triples).
type Feedback[D any] struct {
	st     *opState
	out    *Stream[D]
	adjust func(D) D
}

// NewFeedback creates the loop variable's source stream at the given depth
// (which must be an iteration scope depth ≥ 2).
func NewFeedback[D any](g *Graph, depth int, adjust func(D) D) *Feedback[D] {
	if depth < 2 {
		panic("timely: Feedback requires an iteration scope (depth >= 2)")
	}
	st := newOpState(g, "Feedback", 1, 1, [][]Summary{{SumStep}})
	reg := &outReg[D]{}
	st.register()
	fb := &Feedback[D]{st: st, adjust: adjust}
	fb.out = &Stream[D]{g: g, srcOp: st.id, srcPort: 0, depth: depth, reg: reg}
	return fb
}

// Stream returns the loop variable's stream (the output of the feedback).
func (f *Feedback[D]) Stream() *Stream[D] { return f.out }

// Connect closes the loop: data arriving on s is forwarded with stepped
// timestamps. Must be called exactly once.
func (f *Feedback[D]) Connect(s *Stream[D], exch func(D) uint64) {
	if f.st.run != nil {
		panic("timely: Feedback connected twice")
	}
	if s.depth != f.out.depth {
		panic("timely: Feedback connected across depths")
	}
	in := attachIn(s, f.st, 0, exch)
	out := &Out[D]{o: f.st, port: 0, reg: f.out.reg}
	adjust := f.adjust
	exchanged := exch != nil
	f.st.run = func(ctx *Ctx) {
		in.ForEach(func(stamp []lattice.Time, data []D) {
			stepped := make([]lattice.Time, len(stamp))
			for i, t := range stamp {
				stepped[i] = t.Step()
			}
			if adjust != nil {
				mapped := make([]D, len(data))
				for i, d := range data {
					mapped[i] = adjust(d)
				}
				data = mapped
			} else if exchanged {
				// Exchanged input slices are recycled after this callback;
				// copy before forwarding them around the loop.
				data = append([]D(nil), data...)
			}
			out.SendSlice(stepped, data)
		})
	}
}
