// Package mesh is the multi-process worker fabric: a TCP implementation of
// timely.Fabric that lets one logical cluster of W workers run sharded
// across P processes (W/P workers each, global indices assigned by rank).
//
// # Topology and handshake
//
// Every ordered pair of processes shares one unidirectional TCP connection:
// process i dials every j != i and uses that connection for all of its
// frames to j. Each connection opens with a hello frame carrying the
// protocol version, a cluster key (a hash of the workload configuration),
// the sender's rank, and the cluster shape; any disagreement refuses the
// handshake. Connect returns only when all P-1 outbound dials and all P-1
// validated inbound hellos have completed, so it doubles as a cluster-wide
// startup barrier.
//
// # Frames
//
// All frames reuse the WAL's record framing — u32 length, u32 CRC32-C,
// payload — via wal.AppendRecord / wal.ReadRecord, so the transport gets
// corruption detection for free and a damaged frame surfaces as a typed
// *wal.FrameError rather than undefined behavior. Frame payloads are decoded
// with the bounds-checked wal.Dec reader: malformed input of any shape
// yields an error and a disconnect, never a panic (FuzzMeshFrameDecode holds
// this line).
//
// Three frame kinds carry the dataflow: data frames (one exchanged
// partition, addressed by dataflow, channel, and destination worker, with a
// per-(dataflow, channel, worker) sequence number), progress frames (one
// pointstamp-delta batch, with a per-dataflow sequence number), and user
// frames (opaque payloads for driver-level coordination such as result
// gathering). Receivers verify every sequence number; a gap or reordering is
// a protocol violation and tears the connection down.
//
// # Distributed progress protocol
//
// The progress protocol follows Naiad's: each process applies its own
// pointstamp deltas optimistically and broadcasts them, in local application
// order, to every peer. The timely tracker emits increments strictly before
// the decrements they justify, the sender assigns sequence numbers under the
// same mutex hold that applies the batch locally, and TCP plus the receive-
// side sequence check deliver each sender's batches in that order — so a
// replica's counts can dip transiently negative (a message consumed before
// its increment arrives) but can never show work as retired before the work
// it enabled is visible. Frontiers are computed from positive counts only
// and therefore advance only once every peer's deltas have been applied in
// sequence.
//
// # Failure: quiesce, redial, fail-stop
//
// A dropped connection is first treated as transient. The link enters a
// redial loop (capped exponential backoff with jitter, RedialMin..RedialMax)
// while its outbox keeps buffering frames — bounded by ReplayBudget — so a
// blip costs a reconnect, not the cluster. Per-channel sequence numbers are
// preserved across the reconnect: the receiver's hello response reports how
// many countable frames it has received, the sender discards the acked
// prefix and replays the rest, and the receive-side sequence check still
// proves exactly-once, in-order delivery. Sequence violations, version or
// key mismatches, and stale incarnations remain protocol violations and are
// immediately fatal.
//
// Recovery beyond a blip is governed by Options.PeerGrace. With a zero
// grace (the default), peer loss is cluster-fatal: the protocol cannot
// prove progress without every peer's delta stream, so the first connection
// error is wrapped in a *PeerError, reported once through Options.OnFailure,
// and tears the node down. With a non-zero grace the node instead quiesces:
// OnPeerDown fires, outboxes buffer, frontiers hold (no frontier can
// advance without the lost peer's deltas, so holding is safe by
// construction), and only if the link is still down after the grace
// deadline does the *PeerError fail-stop fire as before.
//
// # Incarnations and resync
//
// A process that restarts after a crash comes back with a higher
// incarnation number in its hello. Peers accept the bump (a hello from a
// lower incarnation than one already seen is refused as stale), retire any
// connection state belonging to the predecessor, and gate their outboxes.
// The cluster then agrees on a new generation — the sum of all pinned
// incarnations — and every node calls Resync(gen): each outbox emits a
// barrier frame as the generation's first countable frame, the hello
// response carries (incarnation, received-count, generation) so senders can
// splice their replay queues to exactly the frames the receiver has not
// seen, and acks are generation-tagged so a predecessor's acks cannot
// shrink a successor's replay. No progress state crosses the resync: every
// rank's driver rebuilds its dataflows for the new generation, with fresh
// trackers and traces restored from their logged run chains.
// WaitResynced blocks until every link has spliced past its barrier;
// Options.OnResync tells the driver which generation to rebuild against.
//
// Close, by contrast, drains outboxes (bounded by a write deadline) and
// shuts down without invoking OnFailure.
package mesh
