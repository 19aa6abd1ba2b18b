// Remote queries: the paper's interactive scenario (§6.2) over the network.
// A server hosts a shared edges arrangement behind the wire-protocol
// front-end (internal/net); clients connect over TCP to stream updates,
// install Datalog queries against the running arrangement,
// and watch per-epoch result deltas. Everything the in-process live-queries
// example does, but from the other side of a socket — which is how an
// external application would actually use `kpg serve -listen`.
//
// Run with: go run ./examples/remote-queries
package main

import (
	"fmt"
	stdnet "net"
	"sort"

	"repro/internal/core"
	knet "repro/internal/net"
	"repro/internal/server"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// drain folds stream events until every watched query's frontier reaches
// epoch, returning the accumulated net collections by query.
func drain(c *knet.Client, queries []string, epoch uint64) map[string]map[[2]uint64]int64 {
	acc := make(map[string]map[[2]uint64]int64, len(queries))
	front := make(map[string]uint64, len(queries))
	for _, q := range queries {
		acc[q] = make(map[[2]uint64]int64)
	}
	behind := func() bool {
		for _, q := range queries {
			if f, ok := front[q]; !ok || f < epoch {
				return true
			}
		}
		return false
	}
	for behind() {
		ev, err := c.Next()
		check(err)
		if ev.Frontier() {
			front[ev.Query] = ev.Epoch
			continue
		}
		m := acc[ev.Query]
		for _, u := range ev.Upds {
			k := [2]uint64{u.Key, u.Val}
			m[k] += u.Diff
			if m[k] == 0 {
				delete(m, k)
			}
		}
	}
	return acc
}

func show(name string, m map[[2]uint64]int64) {
	keys := make([][2]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Printf("  %s:", name)
	for _, k := range keys {
		fmt.Printf(" (%d,%d)x%d", k[0], k[1], m[k])
	}
	fmt.Println()
}

func main() {
	// Server side: a shared edges arrangement behind a TCP front-end. A real
	// deployment runs this as `kpg serve -listen :7071` in its own process.
	srv := server.New(2)
	defer srv.Close()
	edges, err := server.NewSource(srv, "edges", core.U64())
	check(err)
	fe := knet.NewFrontend(srv)
	check(fe.RegisterSource(edges))
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	check(err)
	go fe.Serve(ln)
	defer fe.Close()
	addr := ln.Addr().String()
	fmt.Printf("server up on %s; everything below happens through clients\n", addr)

	// A feeder client streams the graph in and seals the first epoch.
	feeder, err := knet.Dial(addr)
	check(err)
	defer feeder.Close()
	fmt.Println("\nfeeder client loads a small graph and seals epoch 0")
	check(feeder.Update("edges", []knet.Delta{
		{Key: 0, Val: 1, Diff: 1}, {Key: 0, Val: 2, Diff: 1}, {Key: 1, Val: 2, Diff: 1},
		{Key: 2, Val: 3, Diff: 1}, {Key: 3, Val: 4, Diff: 1}, {Key: 1, Val: 4, Diff: 1},
	}))
	_, err = feeder.Advance("edges")
	check(err)
	check(feeder.Sync("edges"))

	// A second client installs queries against the RUNNING arrangement:
	// each attaches by snapshot import, paying for the live collection, not
	// the history.
	ctl, err := knet.Dial(addr)
	check(err)
	defer ctl.Close()
	fmt.Println("installing Datalog queries over the wire:")
	for _, q := range [][2]string{
		{"two-hop", "two(z, y) :- edges(0, y), edges(y, z)."},
		{"degrees", "deg(x, count(y)) :- edges(x, y)."},
	} {
		fmt.Printf("  %s = %s\n", q[0], q[1])
		check(ctl.Install(q[0], q[1]))
	}

	// A watcher subscribes to both; its first events are consolidated
	// snapshots, then per-epoch deltas with explicit frontier announcements.
	// The imported snapshot's times are compacted to the current frontier,
	// so a query installed at epoch 1 answers when epoch 1 completes: seal
	// it (empty) and drain to there.
	watcher, err := knet.Dial(addr)
	check(err)
	defer watcher.Close()
	check(watcher.Subscribe("two-hop", "degrees"))
	sealed, err := feeder.Advance("edges")
	check(err)
	res := drain(watcher, []string{"two-hop", "degrees"}, sealed)
	fmt.Printf("\nfirst complete results (epoch %d):\n", sealed)
	show("two hops from 0 (endpoint, via)", res["two-hop"])
	show("out-degrees (node, degree)", res["degrees"])

	// Churn while the queries stay installed: both result streams update
	// incrementally, and the watcher sees exactly the per-epoch deltas.
	fmt.Println("\nfeeder churns: +1->5, -0->2; next epoch seals")
	check(feeder.Update("edges", []knet.Delta{
		{Key: 1, Val: 5, Diff: 1}, {Key: 0, Val: 2, Diff: -1},
	}))
	sealed, err = feeder.Advance("edges")
	check(err)
	upd := drain(watcher, []string{"two-hop", "degrees"}, sealed)
	for q, m := range upd {
		for k, d := range m {
			res[q][k] += d
			if res[q][k] == 0 {
				delete(res[q], k)
			}
		}
	}
	fmt.Printf("after epoch %d:\n", sealed)
	show("two hops from 0 (endpoint, via)", res["two-hop"])
	show("out-degrees (node, degree)", res["degrees"])

	// Uninstalling a query ends its subscribers' streams with an explicit
	// end-of-stream event; the rest of the server keeps serving.
	fmt.Println("\nuninstalling two-hop; degrees keeps serving")
	check(ctl.Uninstall("two-hop"))
	for {
		ev, err := watcher.Next()
		check(err)
		if ev.End() && ev.Query == "two-hop" {
			fmt.Println("  watcher saw two-hop's end-of-stream event")
			break
		}
	}
	l, err := ctl.List()
	check(err)
	for _, q := range l.Queries {
		fmt.Printf("  still installed: %s = %s\n", q.Name, q.Text)
	}
	fmt.Println("\nclients done; shutting the front-end and server down")
}
