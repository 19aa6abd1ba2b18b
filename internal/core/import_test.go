package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/lattice"
	"repro/internal/timely"
)

// churned is an arrangement fed one record per epoch, each epoch retracting
// the record of the one before, behind a handle that holds every merge back:
// the trace is one unmerged run per sealed epoch.
type churned struct {
	w     *timely.Worker
	input *timely.Input[Update[uint64, uint64]]
	probe *timely.Probe
	arr   *Arranged[uint64, uint64]
	pin   *Handle[uint64, uint64]
	epoch uint64
}

func newChurned(w *timely.Worker, epochs int) *churned {
	c := &churned{w: w}
	w.Dataflow(func(g *timely.Graph) {
		in, s := timely.NewInput[Update[uint64, uint64]](g)
		c.input = in
		c.arr = Arrange(s, U64(), "arrange", ArrangeOptions[uint64, uint64]{})
		c.probe = timely.NewProbe(c.arr.Stream)
	})
	c.pin = c.arr.Agent.NewHandle()
	c.pin.SetPhysical(lattice.MinFrontier(1))
	c.seal(epochs)
	return c
}

// seal feeds and seals n more epochs.
func (c *churned) seal(n int) {
	for ; n > 0; n-- {
		e := c.epoch
		c.input.Send(Update[uint64, uint64]{Key: e % 3, Val: e, Time: lattice.Ts(e), Diff: 1})
		if e > 0 {
			c.input.Send(Update[uint64, uint64]{Key: (e - 1) % 3, Val: e - 1, Time: lattice.Ts(e), Diff: -1})
		}
		c.epoch++
		c.input.AdvanceTo(c.epoch)
		c.w.StepUntil(func() bool { return c.probe.Done(lattice.Ts(e)) })
		c.pin.SetLogical(c.arr.Agent.Upper())
	}
}

// importInto imports arr into a new dataflow on w and steps until the
// history is out, handing every emitted batch to seen.
func importInto(w *timely.Worker, arr *Arranged[uint64, uint64], opt ImportOptions,
	seen func(*Batch[uint64, uint64])) *Arranged[uint64, uint64] {

	var imported *Arranged[uint64, uint64]
	emitted := false
	w.Dataflow(func(g *timely.Graph) {
		imported = ImportOpts(g, arr.Agent, "import", opt)
		timely.Sink(imported.Stream, "seen", nil, func(ctx *timely.Ctx, in *timely.In[*Batch[uint64, uint64]]) {
			in.ForEach(func(stamp []lattice.Time, data []*Batch[uint64, uint64]) {
				emitted = true
				for _, b := range data {
					seen(b)
				}
			})
		})
	})
	w.StepUntil(func() bool { return emitted })
	return imported
}

// TestImportSharesColumns: an import emits the spine's runs by reference. A
// snapshot import emits one view per run whose columns are the run's own
// backing arrays and whose times read as of the compaction frontier; a raw
// import emits the runs themselves.
func TestImportSharesColumns(t *testing.T) {
	const epochs = 6
	for _, snapshot := range []bool{true, false} {
		timely.Execute(1, func(w *timely.Worker) {
			c := newChurned(w, epochs)
			arr := c.arr
			runs := arr.Agent.Runs()
			if len(runs) != epochs {
				t.Fatalf("trace has %d runs, want one per epoch (%d)", len(runs), epochs)
			}
			asOf := arr.Agent.CompactionFrontier()
			var got []*Batch[uint64, uint64]
			importInto(w, arr, ImportOptions{Snapshot: snapshot}, func(b *Batch[uint64, uint64]) {
				got = append(got, b)
			})
			if len(got) != len(runs) {
				t.Fatalf("snapshot=%v: import emitted %d batches for %d runs", snapshot, len(got), len(runs))
			}
			for i, v := range got {
				run := runs[i].(*Batch[uint64, uint64])
				if !snapshot {
					if v != run {
						t.Errorf("raw import: batch %d is not the spine's run", i)
					}
					continue
				}
				if v == run {
					t.Fatalf("snapshot import stamped run %d in place", i)
				}
				if &v.Keys[0] != &run.Keys[0] || &v.Vals[0] != &run.Vals[0] ||
					&v.Diffs[0] != &run.Diffs[0] || &v.KeyOff[0] != &run.KeyOff[0] || &v.ValOff[0] != &run.ValOff[0] {
					t.Errorf("view %d does not alias its run's columns", i)
				}
				if !v.Lower.Equal(run.Lower) || !v.Upper.Equal(run.Upper) {
					t.Errorf("view %d covers [%v, %v), its run [%v, %v)", i, v.Lower, v.Upper, run.Lower, run.Upper)
				}
				if !v.AsOf.Equal(asOf) {
					t.Errorf("view %d is as of %v, want the compaction frontier %v", i, v.AsOf, asOf)
				}
				for ui := range v.Diffs {
					want, _ := lattice.Compact(run.UpdTime(ui), asOf)
					if v.UpdTime(ui) != want {
						t.Errorf("view %d update %d reads at %v, want %v", i, ui, v.UpdTime(ui), want)
					}
				}
				v.ForEach(func(_, _ uint64, tm lattice.Time, _ Diff) {
					if !asOf.LessEqual(tm) {
						t.Errorf("view %d presents time %v behind %v", i, tm, asOf)
					}
				})
				if mins := v.MinTimes(); len(mins) != 1 || mins[0] != asOf.Elements()[0] {
					t.Errorf("view %d minimal times %v, want %v", i, mins, asOf)
				}
			}
			c.input.Close()
			w.Drain()
		})
	}
}

// TestImportReleasesHistory: an installed import does not keep the batches
// it has emitted alive, neither the history it replayed nor the live batches
// that followed. Once merges retire them from the spine they are garbage,
// though the import's source operator lives on.
func TestImportReleasesHistory(t *testing.T) {
	for _, snapshot := range []bool{true, false} {
		timely.Execute(1, func(w *timely.Worker) {
			c := newChurned(w, 8)
			emitted := 0
			importInto(w, c.arr, ImportOptions{Snapshot: snapshot}, func(*Batch[uint64, uint64]) { emitted++ })
			c.seal(3)
			// Weak pointers to the batches themselves: a pointer into a
			// one-update Diffs array could share a tiny-allocator block
			// with objects that are still alive.
			var retired []weak.Pointer[Batch[uint64, uint64]]
			for _, r := range c.arr.Agent.Runs() {
				retired = append(retired, weak.Make(r.(*Batch[uint64, uint64])))
			}
			if emitted != len(retired) {
				t.Fatalf("import emitted %d batches, the trace holds %d runs", emitted, len(retired))
			}

			c.pin.Drop()
			sp := c.arr.Agent.Spine()
			sp.Recompact()
			if n := sp.BatchCount(); n != 1 {
				t.Fatalf("recompacted trace has %d runs, want 1", n)
			}
			runtime.GC()
			runtime.GC()
			for i, p := range retired {
				if p.Value() != nil {
					t.Errorf("snapshot=%v: run %d is still reachable after merges retired it", snapshot, i)
				}
			}
			c.input.Close()
			w.Drain()
		})
	}
}
