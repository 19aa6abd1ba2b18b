package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of samples with linear
// interpolation between closest ranks. It sorts a copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which the acceptance procedure uses for spreads.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Window sizes for the open-loop workloads' latencies (see windowed): a
// second or half a second of epochs, a third of a query class's arrivals on
// graph_interactive, a tenth of the arrivals on wire_datalog.
const (
	epochWindow        = 50
	graphInstallWindow = 7
	wireInstallWindow  = 25
)

// latencies collects duration samples as milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }
func (l *latencies) n() int              { return len(l.ms) }
func (l *latencies) p(p float64) float64 { return percentile(l.ms, p) }

// windowed is the samples, in arrival order, cut into consecutive windows of
// size samples. Its p-th percentile is the lower quartile, over the windows,
// of each window's p-th percentile: the p-th percentile of the quietest
// quarter of the run. What disturbs a run from outside the program (another
// tenant of the machine) only ever adds latency, and does so for seconds at a
// time: a percentile of the whole run, or the median over the windows, moved
// by a fifth to a third with how much of a run such episodes happened to
// cover, where the lower quartile moves only once three quarters of the run
// are covered. A regression of the program moves every window.
//
// With trend set, a linear trend over the windows is taken out first (the
// Theil-Sen slope: the median of the slopes between all pairs of windows),
// each window being moved along it to the middle of the run. wire_datalog
// needs it: there an epoch's latency grows with the epoch's number, so the
// early windows would always be the "quiet" ones and a disturbance among
// them would have nothing to be compared with.
type windowed struct {
	l     *latencies
	size  int
	trend bool
}

func (w windowed) n() int { return w.l.n() }

func (w windowed) p(p float64) float64 {
	n := len(w.l.ms)
	k := n / max(1, w.size)
	if k < 2 {
		return w.l.p(p)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(w.l.ms[i*n/k:(i+1)*n/k], p)
	}
	if w.trend {
		var slopes []float64
		for i := range per {
			for j := i + 1; j < k; j++ {
				slopes = append(slopes, (per[j]-per[i])/float64(j-i))
			}
		}
		slope, mid := median(slopes), float64(k-1)/2
		for i := range per {
			per[i] -= slope * (float64(i) - mid)
		}
	}
	return percentile(per, 25)
}

// classLatencies keeps latency samples apart by class (query class, TPC-H
// leg). Operations of different classes cost different amounts, so their
// mixture is multi-modal and its percentiles jump between modes from run to
// run; the mean over classes of each class's own percentile does not. With
// window set, a class's percentile is taken as windowed takes it, over
// windows of that many of the class's samples.
type classLatencies struct {
	byClass map[int]*latencies
	window  int
}

func (c *classLatencies) add(class int, d time.Duration) {
	if c.byClass == nil {
		c.byClass = map[int]*latencies{}
	}
	if c.byClass[class] == nil {
		c.byClass[class] = &latencies{}
	}
	c.byClass[class].add(d)
}

func (c *classLatencies) n() int {
	n := 0
	for _, l := range c.byClass {
		n += l.n()
	}
	return n
}

// p is the mean over classes of the class's p-th percentile.
func (c *classLatencies) p(p float64) float64 {
	if len(c.byClass) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range c.byClass {
		if c.window > 0 {
			sum += windowed{l: l, size: c.window}.p(p)
		} else {
			sum += l.p(p)
		}
	}
	return sum / float64(len(c.byClass))
}
