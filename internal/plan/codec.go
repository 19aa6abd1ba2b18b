package plan

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Wire encoding: a flat, topologically ordered node table. Children are
// referenced by index (always below the referencing node, so a decoded plan
// is acyclic by construction), and structurally identical sub-plans are
// hash-consed onto a single table entry — the wire form is the canonical
// DAG, and the decoder re-interns it, so a decoded plan's sub-plan keys are
// ready for registry lookups without renormalization.
//
//	u32 node count (≥1, ≤ MaxNodes), then per node:
//	  u8 op
//	  scan/rec:       string rel
//	  filter:         u8 fop | u64 A | u32 in
//	  project:        u8 c0 | u8 c1 | u32 in
//	  union:          u32 in | u32 right
//	  join:           u8 p0 | u8 p1 | u8 eqvals | u32 in | u32 right
//	  count/distinct: u32 in
//	  fixpoint:       string out | u32 ndefs | ndefs × (string name, u32 body)
//
// The root is the last node.

// ErrDecode reports malformed plan bytes. Decoding never panics.
var ErrDecode = errors.New("plan: decode error")

func decodeErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDecode, fmt.Sprintf(format, args...))
}

// Encode serializes the plan as a hash-consed node table.
func Encode(n *Node) []byte {
	e := &encoder{index: map[string]uint32{}}
	e.visit(n)
	dst := wal.AppendU32(nil, uint32(len(e.nodes)))
	return append(dst, e.body...)
}

type encoder struct {
	index map[string]uint32 // canonical key -> table index
	nodes []uint32          // just for the count; indices are len-driven
	body  []byte
}

func (e *encoder) visit(n *Node) uint32 {
	key := n.Key()
	if i, ok := e.index[key]; ok {
		return i
	}
	var in, right uint32
	if n.In != nil {
		in = e.visit(n.In)
	}
	if n.Right != nil {
		right = e.visit(n.Right)
	}
	bodies := make([]uint32, len(n.Defs))
	for i, d := range n.Defs {
		bodies[i] = e.visit(d.Body)
	}

	dst := append(e.body, byte(n.Op))
	switch n.Op {
	case OpScan, OpRec:
		dst = wal.AppendString(dst, n.Rel)
	case OpFilter:
		dst = append(dst, byte(n.FOp))
		dst = wal.AppendU64(dst, n.A)
		dst = wal.AppendU32(dst, in)
	case OpProject:
		dst = append(dst, byte(n.Cols[0]), byte(n.Cols[1]))
		dst = wal.AppendU32(dst, in)
	case OpUnion:
		dst = wal.AppendU32(dst, in)
		dst = wal.AppendU32(dst, right)
	case OpJoin:
		eq := byte(0)
		if n.EqVals {
			eq = 1
		}
		dst = append(dst, byte(n.Proj[0]), byte(n.Proj[1]), eq)
		dst = wal.AppendU32(dst, in)
		dst = wal.AppendU32(dst, right)
	case OpCount, OpDistinct:
		dst = wal.AppendU32(dst, in)
	case OpFixpoint:
		dst = wal.AppendString(dst, n.Out)
		dst = wal.AppendU32(dst, uint32(len(n.Defs)))
		for i, d := range n.Defs {
			dst = wal.AppendString(dst, d.Name)
			dst = wal.AppendU32(dst, bodies[i])
		}
	}
	e.body = dst
	i := uint32(len(e.nodes))
	e.nodes = append(e.nodes, i)
	e.index[key] = i
	return i
}

// Decode parses and validates plan bytes. Malformed input yields an error
// wrapping ErrDecode (structural) or ErrInvalid (semantic); it never panics.
func Decode(b []byte) (*Node, error) {
	d := wal.NewDec(b)
	count, err := d.U32()
	if err != nil {
		return nil, decodeErrf("node count: %v", err)
	}
	if count == 0 {
		return nil, decodeErrf("empty plan")
	}
	if count > MaxNodes {
		return nil, decodeErrf("%d nodes exceeds limit %d", count, MaxNodes)
	}
	nodes := make([]*Node, 0, count)
	child := func(i int) (*Node, error) {
		idx, err := d.U32()
		if err != nil {
			return nil, decodeErrf("node %d child: %v", i, err)
		}
		if int(idx) >= len(nodes) {
			return nil, decodeErrf("node %d references node %d (only %d decoded)", i, idx, len(nodes))
		}
		return nodes[idx], nil
	}
	for i := 0; i < int(count); i++ {
		op, err := d.U8()
		if err != nil {
			return nil, decodeErrf("node %d op: %v", i, err)
		}
		n := &Node{Op: Op(op)}
		switch n.Op {
		case OpScan, OpRec:
			if n.Rel, err = d.String(); err != nil {
				return nil, decodeErrf("node %d name: %v", i, err)
			}
		case OpFilter:
			fop, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d filter op: %v", i, err)
			}
			n.FOp = FilterOp(fop)
			if n.A, err = d.U64(); err != nil {
				return nil, decodeErrf("node %d operand: %v", i, err)
			}
			if n.In, err = child(i); err != nil {
				return nil, err
			}
		case OpProject:
			c0, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d column: %v", i, err)
			}
			c1, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d column: %v", i, err)
			}
			n.Cols = [2]ColSel{ColSel(c0), ColSel(c1)}
			if n.In, err = child(i); err != nil {
				return nil, err
			}
		case OpUnion:
			if n.In, err = child(i); err != nil {
				return nil, err
			}
			if n.Right, err = child(i); err != nil {
				return nil, err
			}
		case OpJoin:
			p0, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d selector: %v", i, err)
			}
			p1, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d selector: %v", i, err)
			}
			eq, err := d.U8()
			if err != nil {
				return nil, decodeErrf("node %d eqvals: %v", i, err)
			}
			if eq > 1 {
				return nil, decodeErrf("node %d eqvals flag %d", i, eq)
			}
			n.Proj = [2]JoinSel{JoinSel(p0), JoinSel(p1)}
			n.EqVals = eq == 1
			if n.In, err = child(i); err != nil {
				return nil, err
			}
			if n.Right, err = child(i); err != nil {
				return nil, err
			}
		case OpCount, OpDistinct:
			if n.In, err = child(i); err != nil {
				return nil, err
			}
		case OpFixpoint:
			if n.Out, err = d.String(); err != nil {
				return nil, decodeErrf("node %d out: %v", i, err)
			}
			ndefs, err := d.Count("fixpoint definition")
			if err != nil {
				return nil, decodeErrf("node %d defs: %v", i, err)
			}
			if ndefs > MaxNodes {
				return nil, decodeErrf("node %d: %d definitions exceeds limit", i, ndefs)
			}
			n.Defs = make([]Def, 0, ndefs)
			for j := 0; j < ndefs; j++ {
				var def Def
				if def.Name, err = d.String(); err != nil {
					return nil, decodeErrf("node %d def name: %v", i, err)
				}
				if def.Body, err = child(i); err != nil {
					return nil, err
				}
				n.Defs = append(n.Defs, def)
			}
		default:
			return nil, decodeErrf("node %d has unknown op %d", i, op)
		}
		nodes = append(nodes, n)
	}
	if d.Remaining() != 0 {
		return nil, decodeErrf("%d trailing bytes after plan", d.Remaining())
	}
	root := nodes[len(nodes)-1]
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return root, nil
}
