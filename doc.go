// Package kpg is the public facade of this repository: a Go reproduction of
// "Shared Arrangements: practical inter-query sharing for streaming
// dataflows" (McSherry, Lattuada, Schwarzkopf; VLDB 2020 — the K-Pg arXiv
// preprint).
//
// The layers, bottom up:
//
//   - internal/lattice — partially ordered timestamps, frontiers, and the
//     compaction function rep_F(t) with the paper's Appendix A theorems.
//   - internal/timely — a timely-dataflow runtime: workers, typed streams,
//     capability-based progress tracking, cyclic graphs. The progress
//     tracker compiles each dataflow's topology into dense port locations
//     with successor lists, keeps pointstamp counts per location, and
//     publishes the closure's frontiers as an immutable table that
//     operators and probes read without a lock. Hash exchange is
//     batched and pooled: senders radix-partition records into
//     per-destination buffers flushed as single mailbox messages per
//     schedule, recycled through sync.Pool arenas so steady-state routing
//     allocates (almost) nothing.
//   - internal/core — shared arrangements: the arrange operator, immutable
//     indexed batches with galloping (exponential) key and value search,
//     LSM-style traces maintained by fueled k-way merges of geometric batch
//     runs (idle-aware budgets keep compaction off the latency-critical
//     path), trace handles with logical/physical compaction frontiers (an
//     arrangement's own handle trails its sealed upper, so every trace
//     stays proportional to its live collection), and cross-dataflow
//     Import: a query arriving late receives the trace's immutable runs by
//     reference, presented as of the compaction frontier (an as-of view
//     over the run's own columns), then the live batches — installing it
//     copies nothing and costs what the query reads, not what the
//     arrangement holds. Batch value storage is pluggable (ValStore):
//     row-major slices by default, or column-major uint64 word columns for
//     types implementing Columnar — merges then compare in place, copy
//     column-by-column only for histories that survive consolidation, and
//     assemble merged batches directly without materializing wide tuples.
//   - internal/dd — differential dataflow operators (map, filter, concat,
//     join, reduce/count/distinct, sum, iterate with mutually recursive
//     Variables) built as thin shells over arrangements; join and reduce
//     gallop over sorted batch and trace runs rather than scanning, join
//     products suspend at value boundaries under fuel (resuming via
//     SeekVal), and reduce accumulates through borrow-free (store, index)
//     cursor views. Sum is the linear aggregate: outside iteration it adds
//     each epoch's updates into the accumulator row its own output trace
//     holds, so an epoch costs its delta, not the group; FlattenKey reads
//     one key of an arrangement with a seek per batch.
//   - internal/wal — durability: per-worker append-only logs of sealed
//     batches (length-prefixed, CRC-checksummed records with
//     lower/upper/since framing, one codec encoding per key and value)
//     plus compaction-frontier advances; checkpoints rotate a log to one compacted snapshot batch, and crash
//     recovery replays the longest consistent prefix, clamped across
//     shards to the meet of their sealed frontiers.
//   - internal/server — live query installation: a registry of named,
//     continuously maintained arrangements and install/uninstall of query
//     dataflows against them while updates stream (the paper's §6.2
//     interactive scenario made operational). Durable sources log through
//     internal/wal; Checkpoint/Restore rebuild every trace from logged
//     batches on restart — no source replay. Shutdown is race-hardened:
//     Close is idempotent and operations racing it fail fast with a typed
//     ErrClosed.
//   - internal/net — the wire-protocol front-end: external clients install
//     and uninstall queries written in Datalog (compiled client-side to
//     a relational plan over registered sources), stream
//     source updates, seal epochs, and subscribe to per-epoch result
//     deltas over TCP. Frames reuse the WAL's CRC32-C record format and
//     codecs; every query's result is an arrangement and a subscription
//     imports it, so a slow subscriber lags only its own stream, never the
//     workers.
//   - workload substrates (internal/tpch, graphs, interactive with its live
//     installation wiring, and datalog and graspan: the paper's programs as
//     Datalog text for internal/plan), which the examples and bench/ drive.
//
// internal/harness carries the operator-oracle property harness:
// randomized multi-epoch insert/delete histories driven through every dd
// operator and cross-checked per epoch against naive recompute oracles
// (also exposed as go test -fuzz targets).
//
// See the examples/ directory for runnable programs (examples/live-queries
// demonstrates queries attaching to a running arrangement in-process,
// examples/remote-queries the same over the network), cmd/kpg for the
// serve and client subcommands (serve -listen hosts the wire protocol,
// client drives it), the bench/ module for the paper's measurements
// (bench/run.sh; scripts/bench_pair.sh compares two commits), and
// DESIGN.md for the system inventory and testing strategy.
package kpg
