package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the measured phase
	Trace    bool
	Sizes    sizes
	// MaxOps, when positive, ends a closed-loop measured phase after that many
	// epochs (per leg) or cycles instead of after Seconds, so that tests get
	// input-derived counts that do not depend on the machine's speed.
	MaxOps int
	OutDir string // traces, goroutine dumps and scratch data directories
}

// result is what one run reports.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Metrics   map[string]float64 // end-to-end names untraced, per-layer names traced
	Counts    map[string]int64   // input-derived counts; equal for equal seeds
	Samples   map[string]int     // sample counts behind the percentiles
	Notes     []string           // failures and invalid-run reasons
	TracePath string
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Notes) == 0 }

// runCtx is the state a workload driver works against.
type runCtx struct {
	cfg config
	tr  *tracer // nil when tracing is off

	mu  sync.Mutex
	res *result
}

func newRunCtx(cfg config) *runCtx {
	rc := &runCtx{cfg: cfg, res: &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Trace,
		Metrics: map[string]float64{}, Counts: map[string]int64{}, Samples: map[string]int{},
	}}
	if cfg.Trace {
		rc.tr = newTracer()
	}
	return rc
}

// workers is the worker count of the closed-loop workloads, whose driver
// waits while the workers work.
func workers() int { return min(2, runtime.NumCPU()) }

// openLoopWorkers is the worker count of the open-loop workloads: one core is
// left to the load generator, the completion waiter or subscriber and (over
// the wire) the front-end's connection goroutines, which must stay on
// schedule whatever the workers do. With the workers taking every core the
// generator and they preempt each other, and a run's latencies settle, for
// the whole run, into one of two regimes a quarter apart.
func openLoopWorkers() int { return max(1, workers()-1) }

// attempt counts n operations tried.
func (rc *runCtx) attempt(n int) {
	rc.mu.Lock()
	rc.res.Attempted += n
	rc.mu.Unlock()
}

// fail counts one failed operation and records why (the first few reasons).
func (rc *runCtx) fail(format string, args ...any) {
	rc.mu.Lock()
	rc.res.Failed++
	if len(rc.res.Notes) < 16 {
		rc.res.Notes = append(rc.res.Notes, fmt.Sprintf(format, args...))
	}
	rc.mu.Unlock()
}

// invalid marks the run as not a measurement (overload, lost events).
func (rc *runCtx) invalid(format string, args ...any) {
	rc.mu.Lock()
	rc.res.Notes = append(rc.res.Notes, "invalid: "+fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

func (rc *runCtx) set(name string, v float64) {
	rc.mu.Lock()
	rc.res.Metrics[name] = v
	rc.mu.Unlock()
}

func (rc *runCtx) count(name string, v int64) {
	rc.mu.Lock()
	rc.res.Counts[name] = v
	rc.mu.Unlock()
}

func (rc *runCtx) samples(name string, n int) {
	rc.mu.Lock()
	rc.res.Samples[name] = n
	rc.mu.Unlock()
}

// distribution is a set of latency samples that can report percentiles.
type distribution interface {
	p(p float64) float64
	n() int
}

// setLatency reports one latency distribution as two percentiles.
func (rc *runCtx) setLatency(prefix string, l distribution, hiName string, hi float64) {
	rc.set(prefix+"_p50_ms", l.p(50))
	rc.set(prefix+"_"+hiName+"_ms", l.p(hi))
	rc.samples(prefix, l.n())
}

// timeSetup runs the set-up reps times, tearing down all but the last with
// discard, and returns the median duration in seconds. Every repetition
// starts from a collected heap whose free pages are back with the operating
// system: set-up is mostly allocation, and whether it lands on pages the
// previous repetition left mapped decided between 0.4 s and 1.3 s for one and
// the same tpch.Generate.
func timeSetup(reps int, setup func(), discard func()) float64 {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard()
		}
		debug.FreeOSMemory()
		start := time.Now()
		setup()
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs)
}

// heapLiveMB forces a collection and returns the live heap in MB. It collects
// twice: what a sync.Pool holds survives one collection in the pool's victim
// cache, and how full the pools are at an instant is not the system's state.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// lastLiveHeapMB returns the live heap as the collector's last finished cycle
// marked it, in MB. It costs a metric read and forces nothing, so a closed
// loop can sample it at every step: collections come every few milliseconds
// under these allocation rates, and the mean of hundreds of such readings is
// the time-averaged live heap — spines mid-merge and between merges in their
// proportions — where a handful of forced collections catch one or the other.
func lastLiveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// memMark snapshots the allocator and collector counters whose deltas over
// the measured phase become the bench.* allocation metrics.
type memMark struct {
	totalAlloc uint64
	pauseNs    uint64
	gcCPU      float64
	totalCPU   float64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	mk := memMark{totalAlloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		mk.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		mk.totalCPU = s[1].Value.Float64()
	}
	return mk
}

// reportMem sets the bench.* allocation metrics from the deltas since from.
func (rc *runCtx) reportMem(from memMark, tuples int64) {
	to := markMem()
	if tuples > 0 {
		rc.set("bench.alloc_bytes_per_tuple", float64(to.totalAlloc-from.totalAlloc)/float64(tuples))
	}
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		rc.set("bench.gc_cpu_frac", (to.gcCPU-from.gcCPU)/cpu)
	}
	rc.set("bench.gc_pause_total_ms", float64(to.pauseNs-from.pauseNs)/1e6)
}

// watchdog gives a run a deadline. On expiry it dumps every goroutine to
// <OutDir>/<workload>.goroutines.txt, reports what was outstanding, and exits
// non-zero: a hang costs minutes and names itself.
func watchdog(rc *runCtx, limit time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(limit):
			path := filepath.Join(rc.cfg.OutDir, rc.cfg.Workload+".goroutines.txt")
			if err := os.MkdirAll(rc.cfg.OutDir, 0o755); err == nil {
				if f, err := os.Create(path); err == nil {
					_ = pprof.Lookup("goroutine").WriteTo(f, 2)
					_ = f.Close()
				}
			}
			rc.mu.Lock()
			att, failed := rc.res.Attempted, rc.res.Failed
			rc.mu.Unlock()
			fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline; %d operations attempted, %d failed, "+
				"everything outstanding counts as failed; goroutines dumped to %s\n",
				rc.cfg.Workload, limit, att, failed, path)
			os.Exit(3)
		}
	}()
	return func() { close(done) }
}

// runDeadline is three times a run's expected length, inside the 180 s the
// benchmark contract allows a run.
func runDeadline(seconds float64) time.Duration {
	d := time.Duration(3 * (seconds + 20) * float64(time.Second))
	return min(d, 170*time.Second)
}

// runWorkload runs one workload once and returns its result.
func runWorkload(cfg config) *result {
	rc := newRunCtx(cfg)
	stop := watchdog(rc, runDeadline(cfg.Seconds))
	defer stop()
	var err error
	switch cfg.Workload {
	case "tpch_stream":
		err = runTPCH(rc)
	case "graph_interactive":
		err = runGraph(rc)
	case "wire_datalog":
		err = runWire(rc)
	case "durable_spill":
		err = runSpill(rc)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		rc.attempt(1)
		rc.fail("%v", err)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
		if path, werr := rc.tr.write(cfg.OutDir, cfg.Workload, cfg.Seed); werr != nil {
			rc.fail("write trace: %v", werr)
		} else {
			rc.res.TracePath = path
		}
	}
	// Every run reports every metric of its list and nothing else; per-layer
	// metrics of layers the workload leaves idle read 0.
	reported := make(map[string]float64, len(defs))
	for _, d := range defs {
		reported[d.Name] = rc.res.Metrics[d.Name]
	}
	rc.res.Metrics = reported
	if rc.res.Attempted == 0 {
		rc.res.Attempted = 1
	}
	return rc.res
}
