// Command kpg runs a shared-arrangement server and talks to one.
//
// Usage:
//
//	kpg [flags] serve
//	kpg [flags] client <verb> [args]
//
// Flags go before the subcommand (flag parsing stops at the first
// positional). The paper's measurements live in the separate bench/ module
// (bench/run.sh, compared across commits by scripts/bench_pair.sh).
//
// kpg serve has two modes. With -listen it serves the wire protocol
// (below); otherwise it runs the cluster scenario (internal/cluster): a
// deterministic churn workload (-nodes, -churn, -rounds) streams into a
// shared edges arrangement, a transitive-closure query is installed against
// it, and the run prints a RESULT line. Without -data-dir and -peers that
// run is volatile and in one process.
//
// kpg -workers W -peers a:p0,b:p1,... -process N serve runs one process of
// the cluster scenario: W workers sharded evenly across the listed
// processes, exchanging data partitions and progress deltas over a TCP mesh
// (internal/mesh). Every process runs the same command line apart from its
// -process rank, and rank 0 prints a RESULT line bit-identical to a
// single-process run's (scripts/peer_smoke.sh asserts exactly that). Losing
// a peer exits with status 3 and a "peer loss" error.
//
// kpg serve -data-dir <dir> without -peers is the one-process cluster: the
// edges arrangement logs every sealed batch to a write-ahead log under
// <dir>, checkpointing every -checkpoint-every rounds. Restarted with
// -recover, it rebuilds the arrangement from the logged batches (no source
// replay), resumes the churn from the recovered epoch, and prints a RESULT
// line identical to an uninterrupted run's — after SIGKILL mid-stream, or
// after finishing and being resumed with more rounds
// (scripts/crash_recovery_check.sh asserts both). -max-lag and -spill-bytes
// are one-process flags: a -peers list of several processes rejects them.
//
// kpg serve -listen <addr> serves the wire protocol instead of the
// scenario: external clients drive the "edges" source and attach live
// queries over the network. kpg client (install, uninstall, update,
// advance, sync, list, watch; server chosen with -addr) is the matching
// command-line client; internal/net documents the protocol, and queries are
// Datalog (internal/plan). Combine -listen with -data-dir for a durable
// networked server that checkpoints in the background.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workers = flag.Int("workers", runtime.NumCPU(), "maximum worker count")

func main() {
	flag.Parse()
	switch flag.Arg(0) {
	case "serve":
		serve()
	case "client":
		client()
	case "":
		fmt.Fprintln(os.Stderr, "usage: kpg [flags] serve | kpg [flags] client <verb> [args]")
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want serve or client)\n", flag.Arg(0))
		os.Exit(2)
	}
}

func clampWorkers(w int) int {
	if *workers < w {
		return *workers
	}
	return w
}
