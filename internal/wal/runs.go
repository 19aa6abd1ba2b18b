package wal

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lattice"
)

// Run-chain manifests. A spine checkpoints as its chain of runs: resident
// runs are written into the generation as ordinary batch records, spilled
// runs as block references — the block file already holds the columns, so
// the checkpoint records only its name and framing frontiers. The record
// frontiers are authoritative: a run whose bounds were widened by absorbing
// empty batches keeps its original block file, and the manifest carries the
// widened frontiers.

// BlockRef names one spilled run inside a shard's block directory.
type BlockRef struct {
	// Name is the block file's base name within the shard's blocks
	// directory. Path separators and parent references are rejected on
	// decode, so a corrupt or hostile manifest cannot reference files
	// outside it.
	Name  string
	Lower lattice.Frontier
	Upper lattice.Frontier
	Since lattice.Frontier
}

// Run is one run of a checkpointed trace: exactly one of Batch (resident,
// logged inline) or Ref (spilled, logged by reference) is non-nil.
type Run[K, V any] struct {
	Batch *core.Batch[K, V]
	Ref   *BlockRef
}

// RunUpper returns the run's upper frontier.
func (r Run[K, V]) RunUpper() lattice.Frontier {
	if r.Ref != nil {
		return r.Ref.Upper
	}
	return r.Batch.Upper
}

// validRefName rejects names that could escape the shard's block directory.
func validRefName(name string) error {
	if name == "" {
		return fmt.Errorf("empty block file name")
	}
	if len(name) > 255 {
		return fmt.Errorf("block file name of %d bytes", len(name))
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("block file name %q contains path elements", name)
	}
	return nil
}

// appendBlockRef encodes a block-reference record payload (after the kind
// byte has been appended by the caller).
func appendBlockRef(dst []byte, ref *BlockRef) []byte {
	dst = AppendString(dst, ref.Name)
	dst = AppendFrontier(dst, ref.Lower)
	dst = AppendFrontier(dst, ref.Upper)
	dst = AppendFrontier(dst, ref.Since)
	return dst
}

// decodeBlockRef decodes a block-reference record body.
func decodeBlockRef(d *Dec) (*BlockRef, error) {
	name, err := d.String()
	if err != nil {
		return nil, err
	}
	if err := validRefName(name); err != nil {
		return nil, d.fail("%v", err)
	}
	ref := &BlockRef{Name: name}
	if ref.Lower, err = d.Frontier(); err != nil {
		return nil, err
	}
	if ref.Upper, err = d.Frontier(); err != nil {
		return nil, err
	}
	if ref.Since, err = d.Frontier(); err != nil {
		return nil, err
	}
	if ref.Lower.Empty() {
		return nil, d.fail("block ref with empty lower frontier")
	}
	if ref.Since.Empty() {
		return nil, d.fail("block ref with empty since frontier")
	}
	return ref, nil
}

// RotateRuns checkpoints the log from a run chain: it writes a fresh
// generation holding the given compaction frontier, then the runs — resident
// runs as batch records, spilled runs as block references — atomically
// renames it into place, and deletes the superseded generation. The block
// files themselves are not touched (they are durable already), so checkpoint
// I/O stays proportional to the resident tier. Subsequent appends extend the
// new generation, so the log stays proportional to the trace plus the tail
// sealed since the last checkpoint.
func (l *ShardLog[K, V]) RotateRuns(since lattice.Frontier, runs []Run[K, V]) error {
	data := AppendFrontier(openRecord(nil, recSince), since)
	sealRecord(data)
	for _, r := range runs {
		start := len(data)
		if r.Ref != nil {
			if err := validRefName(r.Ref.Name); err != nil {
				return fmt.Errorf("wal: rotate: %v", err)
			}
			data = appendBlockRef(openRecord(data, recBlockRef), r.Ref)
		} else {
			if r.Batch.Empty() && r.Batch.Upper.Empty() {
				continue
			}
			data = l.bc.encodeBatch(openRecord(data, recBatch), r.Batch)
		}
		sealRecord(data[start:])
	}
	return l.installGeneration(data)
}

// ClampRuns restricts a replayed run chain to the updates at times not in
// advance of cut. Workers seal batches independently, so after a crash the
// shards' log uppers generally differ; recovery clamps every shard to the
// meet of those uppers — the globally consistent prefix. Runs wholly behind
// the cut pass through untouched — a spilled run stays a reference, costing
// no I/O. The run straddling the cut is rebuilt from its updates with upper
// = cut, so a straddling reference is materialized through load (the caller
// opens the block file); everything beyond the cut is dropped. Rebuilding
// is exact only if no run's times were compacted past the cut: a sealed
// batch's since is at most its own lower, and a checkpoint writes only runs
// compacted no further than an epoch below which every shard had logged
// every update (DESIGN.md §Recovery names the one window this leaves). In
// steady state only tail batches — resident by construction — straddle.
func ClampRuns[K, V any](fn core.Funcs[K, V], runs []Run[K, V], cut lattice.Frontier,
	load func(*BlockRef) (*core.Batch[K, V], error)) ([]Run[K, V], error) {

	out := make([]Run[K, V], 0, len(runs))
	for _, r := range runs {
		if r.RunUpper().Dominates(cut) {
			// Upper ≤ cut: the whole run lies behind the consistent prefix.
			out = append(out, r)
			continue
		}
		b := r.Batch
		if r.Ref != nil {
			var err error
			if b, err = load(r.Ref); err != nil {
				return nil, fmt.Errorf("wal: clamping spilled run %s: %w", r.Ref.Name, err)
			}
			// The manifest frontiers are authoritative (they may have been
			// widened since the block was written).
			b.Lower, b.Upper, b.Since = r.Ref.Lower, r.Ref.Upper, r.Ref.Since
		}
		var kept []core.Update[K, V]
		b.ForEach(func(k K, v V, t lattice.Time, d core.Diff) {
			if !cut.LessEqual(t) {
				kept = append(kept, core.Update[K, V]{Key: k, Val: v, Time: t, Diff: d})
			}
		})
		if len(kept) == 0 && b.Lower.Equal(cut) {
			break // chain already ends exactly at the cut
		}
		since := lattice.MeetAll(b.Since, cut)
		out = append(out, Run[K, V]{
			Batch: core.BuildBatch(fn, kept, b.Lower.Clone(), cut.Clone(), since),
		})
		break // later runs lie entirely at or beyond the cut
	}
	return out, nil
}
