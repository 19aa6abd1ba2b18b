package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/timely"
)

// roundUpdates derives round r's updates from r alone, so a recovered rank
// re-issues exactly the rounds its crash lost and feeds byte-identical
// updates. Every edge stays inside one 16-node component, which keeps the
// transitive closure bounded while the graph churns, and the edges round r
// inserts are retracted at round r+5, so the live collection is a sliding
// window.
func roundUpdates(round, nodes uint64, churn int) []core.Update[uint64, uint64] {
	comps := max(nodes/16, 1)
	edge := func(r uint64, i int) (uint64, uint64) {
		h := core.Mix64(r*1000003 + uint64(i)*13 + 1)
		comp := (h % comps) * 16
		return (comp + (h>>32)%16) % nodes, (comp + (h>>36)%16) % nodes
	}
	upds := make([]core.Update[uint64, uint64], 0, 2*churn)
	for i := 0; i < churn; i++ {
		src, dst := edge(round, i)
		upds = append(upds, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: 1})
	}
	if round >= 5 {
		for i := 0; i < churn; i++ {
			src, dst := edge(round-5, i)
			upds = append(upds, core.Update[uint64, uint64]{Key: src, Val: dst, Diff: -1})
		}
	}
	return upds
}

// readClosure installs the transitive-closure query, datalog.TCSrc compiled,
// against the edges arrangement and reduces this process's shard of its
// output with checksum. The loop enters the import itself: the edges are
// arranged once, by the source.
//
// It reads without sealing anything: a sealed epoch would land in the log
// and shift the round a later recovery resumes from. The snapshot import
// sits at the compaction frontier, the open epoch, and holds epoch 0 until
// it has emitted it; so once the probe has passed the last sealed epoch
// every worker's import has emitted its snapshot, and uninstalling — which
// every rank does, a distributed drain — runs the query to quiescence,
// after which the capture holds all of it.
func readClosure(s *server.Server, edges *server.Source[uint64, uint64]) (int64, uint64, error) {
	prog, err := plan.ParseDatalog(datalog.TCSrc)
	if err != nil {
		return 0, 0, err
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		return 0, 0, err
	}
	captured := &dd.Captured[uint64, uint64]{}
	q, err := s.Install("tc", func(_ *timely.Worker, g *timely.Graph) server.Built {
		imported := edges.ImportInto(g)
		paths, err := plan.Build(root, plan.Env{Source: func(string) (*core.Arranged[uint64, uint64], error) {
			return imported, nil
		}})
		if err != nil {
			panic(err) // a compiled constant over a resolved source: an error is a bug
		}
		dd.Capture(paths, captured)
		return server.Built{Probe: dd.Probe(paths), Teardown: func() { imported.Cancel() }}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("install tc: %w", err)
	}
	if open := edges.Epoch(); open > 0 && !q.WaitDone(lattice.Ts(open-1)) {
		return 0, 0, server.ErrClosed
	}
	q.Uninstall()
	if s.Closed() {
		return 0, 0, server.ErrClosed // the drain was cut short
	}
	count, sum := checksum(captured.Updates())
	return count, sum, nil
}

// checksum reduces updates to an order-independent count and checksum of
// the collection they accumulate to. Partials over disjoint shards add up
// to the whole collection's.
func checksum(upds []core.Update[uint64, uint64]) (int64, uint64) {
	net := make(map[[2]uint64]core.Diff)
	for _, u := range upds {
		k := [2]uint64{u.Key, u.Val}
		if net[k] += u.Diff; net[k] == 0 {
			delete(net, k)
		}
	}
	var count int64
	var sum uint64
	for k, d := range net {
		count += d
		sum += uint64(d) * core.Mix64(core.Mix64(k[0])^k[1])
	}
	return count, sum
}

// clusterKey hashes the parameters every rank must agree on; the mesh
// handshake refuses a peer whose key differs, so mismatched command lines
// fail at connect instead of corrupting a run.
func clusterKey(cfg Config) uint64 {
	k := core.Mix64(0x6b70672d70656572) // "kpg-peer"
	for _, v := range []uint64{cfg.Nodes, uint64(cfg.Churn), cfg.Rounds,
		uint64(cfg.Workers), uint64(max(len(cfg.Peers), 1))} {
		k = core.Mix64(k ^ v)
	}
	return k
}
