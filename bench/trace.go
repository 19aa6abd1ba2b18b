package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed harness call into a layer. Names are "<layer>.<call>";
// Parent is the index of the enclosing span (-1 for a root) and Epoch the
// epoch or operation number the call belongs to (-1 when it has none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  int64  `json:"epoch"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays (almost) nothing for the
// instrumentation points.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end (and as a parent).
func (t *tracer) begin(name string, parent int, epoch int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Epoch: epoch})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0 // children on another goroutine may overlap each other
		}
		out[s.Name] += self
	}
	return out
}

// layerOf maps a span name to its layer (the package name before the dot).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	SelfMsByLayer map[string]float64 `json:"self_ms_by_layer"`
	SelfMsBySpan  map[string]float64 `json:"self_ms_by_span"`
	Spans         []span             `json:"spans"`
}

// write stores the spans and their per-layer self-time summary.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	self := t.selfTimes()
	tf := traceFile{Workload: workload, Seed: seed,
		SelfMsByLayer: map[string]float64{}, SelfMsBySpan: map[string]float64{}}
	for name, ns := range self {
		tf.SelfMsBySpan[name] = float64(ns) / 1e6
		tf.SelfMsByLayer[layerOf(name)] += float64(ns) / 1e6
	}
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// spanCostNs measures what one begin/end pair costs on this machine, so the
// traced run can report its own overhead as (spans × cost) ÷ measured time.
func spanCostNs() float64 {
	t := newTracer()
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.calibrate", -1, int64(i)))
	}
	return float64(time.Since(start)) / n
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// total returns the summed duration in nanoseconds and the number of the
// finished spans so named.
func (t *tracer) total(name string) (ns int64, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// meanUs returns the mean duration, in microseconds, of the spans so named.
func (t *tracer) meanUs(name string) float64 {
	ns, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// totalMs returns the summed duration, in milliseconds, of the spans so named.
func (t *tracer) totalMs(name string) float64 {
	ns, _ := t.total(name)
	return float64(ns) / 1e6
}
