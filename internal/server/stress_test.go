package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// TestInstallUninstallUnderChurn is the race-hardening stress test: a churn
// goroutine streams edge updates and advances epochs while two installer
// goroutines concurrently install, query, and uninstall dataflows against
// the shared arrangement. Run with -race (the CI workflow does); the test
// asserts that every installed query produced results and that the driver
// APIs never wedge.
func TestInstallUninstallUnderChurn(t *testing.T) {
	const (
		workers    = 3
		rounds     = 60 // churn epochs
		installers = 2
		cycles     = 8 // install/uninstall cycles per installer
		nodes      = 256
	)

	s := New(workers)
	edges, err := NewSource(s, "edges", core.U64())
	if err != nil {
		t.Fatal(err)
	}

	// Seed the graph so early installs have something to snapshot.
	r := rand.New(rand.NewSource(42))
	seed := make([]core.Update[uint64, uint64], 0, 2048)
	for i := 0; i < 2048; i++ {
		seed = append(seed, core.Update[uint64, uint64]{
			Key: uint64(r.Intn(nodes)), Val: uint64(r.Intn(nodes)), Diff: 1,
		})
	}
	edges.Update(seed)
	edges.Advance()
	edges.Sync()

	var (
		churnWg      sync.WaitGroup
		installWg    sync.WaitGroup
		churnDone    = make(chan struct{})
		totalResults atomic.Int64
	)

	// Churn driver: stream updates and advance epochs until the installers
	// finish.
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		r := rand.New(rand.NewSource(7))
		round := 0
		for {
			select {
			case <-churnDone:
				return
			default:
			}
			upds := make([]core.Update[uint64, uint64], 0, 64)
			for i := 0; i < 32; i++ {
				upds = append(upds,
					core.Update[uint64, uint64]{
						Key: uint64(r.Intn(nodes)), Val: uint64(r.Intn(nodes)), Diff: 1},
					core.Update[uint64, uint64]{
						Key: uint64(r.Intn(nodes)), Val: uint64(r.Intn(nodes)), Diff: -1})
			}
			edges.Update(upds)
			edges.Advance()
			if round%8 == 0 {
				edges.Sync()
			}
			round++
			if round > 100*rounds {
				t.Error("churn driver ran away; installers appear wedged")
				return
			}
		}
	}()

	for inst := 0; inst < installers; inst++ {
		installWg.Add(1)
		go func(inst int) {
			defer installWg.Done()
			r := rand.New(rand.NewSource(int64(100 + inst)))
			for cyc := 0; cyc < cycles; cyc++ {
				name := fmt.Sprintf("q-%d-%d", inst, cyc)
				var results atomic.Int64
				qins := make([]*dd.InputCollection[uint64, core.Unit], s.Workers())
				q, err := s.Install(name, func(w *timely.Worker, g *timely.Graph) Built {
					imported := edges.ImportInto(g)
					qi, qc := dd.NewInput[uint64, core.Unit](g)
					qins[w.Index()] = qi
					aQ := dd.DistinctCore(dd.Arrange(qc, core.U64Key(), "q"))
					out := dd.JoinCore(imported, aQ, "onehop",
						func(q, nbr uint64, _ core.Unit) (uint64, uint64) { return q, nbr })
					dd.Inspect(out, func(k, v uint64, ts lattice.Time, d core.Diff) {
						results.Add(d)
					})
					probe := dd.Probe(out)
					return Built{Probe: probe, Teardown: func() {
						qi.Close()
						imported.Cancel()
					}}
				})
				if err != nil {
					t.Errorf("installer %d cycle %d: %v", inst, cyc, err)
					return
				}
				for i := 0; i < 4; i++ {
					qins[0].Insert(uint64(r.Intn(nodes)), core.Unit{})
				}
				for _, qi := range qins {
					qi.AdvanceTo(1 << 20)
				}
				// Wait for results through the last epoch sealed before the
				// install; churn keeps sealing epochs, so this always lands.
				sealed := edges.Epoch()
				if sealed > 0 {
					sealed--
				}
				if !q.WaitDone(lattice.Ts(sealed)) {
					t.Errorf("installer %d cycle %d: server stopped early", inst, cyc)
					return
				}
				totalResults.Add(results.Load())
				q.Uninstall()
			}
		}(inst)
	}

	installWg.Wait()
	close(churnDone)
	churnWg.Wait()

	edges.Sync()
	s.Close()

	if totalResults.Load() == 0 {
		t.Fatal("no query ever produced a result")
	}
}

// TestInstallAgainstCompactedArrangement installs a join and a count against
// a live, already-compacting arrangement immediately after each epoch is
// sealed — no Sync in between, so the arrangement is mid-maintenance when
// the readers attach — a hundred times back to back, and checks every
// query against a brute-force oracle. A reader attaching at the minimum
// frontier used to drag the next merge's compaction frontier back below
// what its inputs were already compacted to, which panicked in the batch
// builder.
func TestInstallAgainstCompactedArrangement(t *testing.T) {
	const (
		nodes    = 48
		installs = 100
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			s := New(workers)
			defer s.Close()
			edges, err := NewSource(s, "edges", core.U64())
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(workers)))
			net := make(map[[2]uint64]core.Diff)
			var live [][2]uint64
			churn := func(ins, del int) {
				upds := make([]core.Update[uint64, uint64], 0, ins+del)
				for i := 0; i < ins; i++ {
					e := [2]uint64{uint64(r.Intn(nodes)), uint64(r.Intn(nodes))}
					upds = append(upds, core.Update[uint64, uint64]{Key: e[0], Val: e[1], Diff: 1})
					live = append(live, e)
				}
				for i := 0; i < del && len(live) > 0; i++ {
					j := r.Intn(len(live))
					e := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					upds = append(upds, core.Update[uint64, uint64]{Key: e[0], Val: e[1], Diff: -1})
				}
				for _, u := range upds {
					k := [2]uint64{u.Key, u.Val}
					net[k] += u.Diff
					if net[k] == 0 {
						delete(net, k)
					}
				}
				if err := edges.Update(upds); err != nil {
					t.Fatal(err)
				}
			}
			queries := []uint64{1, 7, 19, 33}

			type installed struct {
				hop, cnt *Query
				hops     *dd.Captured[uint64, uint64]
				cnts     *dd.Captured[uint64, int64]
			}
			// check waits for the queries to complete the given epoch, compares
			// them with the oracle of everything sent so far, and uninstalls.
			check := func(i int, in installed, sealed uint64) {
				if !in.hop.WaitDone(lattice.Ts(sealed)) || !in.cnt.WaitDone(lattice.Ts(sealed)) {
					t.Fatalf("install %d: server stopped early", i)
				}
				wantHops := make(map[[2]uint64]core.Diff)
				wantCnts := make(map[uint64]core.Diff)
				for e, d := range net {
					wantCnts[e[0]] += d
					for _, q := range queries {
						if e[0] == q {
							wantHops[e] += d
						}
					}
				}
				if got := collect(in.hops); !reflect.DeepEqual(got, wantHops) {
					t.Fatalf("install %d: join = %v, want %v", i, got, wantHops)
				}
				gotCnts := make(map[uint64]core.Diff)
				for _, u := range in.cnts.Updates() {
					gotCnts[u.Key] += core.Diff(u.Val) * u.Diff
					if gotCnts[u.Key] == 0 {
						delete(gotCnts, u.Key)
					}
				}
				if !reflect.DeepEqual(gotCnts, wantCnts) {
					t.Fatalf("install %d: count = %v, want %v", i, gotCnts, wantCnts)
				}
				in.hop.Uninstall()
				in.cnt.Uninstall()
			}

			churn(512, 0)
			var prev *installed
			for i := 0; i <= installs; i++ {
				// A burst of epochs, so the driver's clock runs ahead of what
				// the workers have sealed when the readers attach.
				var sealed uint64
				for b := 0; b < 3; b++ {
					churn(16, 16)
					if sealed, err = edges.Advance(); err != nil {
						t.Fatal(err)
					}
				}
				// The previous iteration's queries hold the arrangement's
				// history from its compaction frontier on, which is at most
				// the epoch just sealed: they are complete now.
				if prev != nil {
					check(i-1, *prev, sealed)
				}
				if i == installs {
					break
				}
				// The count goes in first: a reduce's input handle puts no
				// physical bound on merges, so the arrangement is free to
				// start one while the handle is new.
				in := installed{cnts: &dd.Captured[uint64, int64]{}}
				in.cnt, err = s.Install(fmt.Sprintf("cnt-%d", i), func(w *timely.Worker, g *timely.Graph) Built {
					imported := edges.ImportInto(g)
					out := dd.CountCore(imported)
					dd.Capture(out, in.cnts)
					return Built{Probe: dd.Probe(out), Teardown: imported.Cancel}
				})
				if err != nil {
					t.Fatal(err)
				}
				in.hop, in.hops = installOneHop(t, s, edges, fmt.Sprintf("hop-%d", i), queries)
				prev = &in
			}
			// Every reader is gone again: nothing may be left holding the
			// shared trace's compaction back, so it is the size of the live
			// collection, not of the three hundred epochs behind it.
			if err := edges.Sync(); err != nil {
				t.Fatal(err)
			}
			var held atomic.Int64
			s.c.PostEach(func(w *timely.Worker) {
				held.Add(int64(edges.arr[w.Index()].Agent.Spine().UpdateCount()))
			}).Wait()
			if bound := int64(4*len(live) + 256); held.Load() > bound {
				t.Fatalf("shared trace holds %d updates for %d live records (bound %d)", held.Load(), len(live), bound)
			}
		})
	}
}
