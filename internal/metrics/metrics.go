// Package metrics provides the measurement primitives the evaluation
// harness uses: duration/value histograms with percentiles, atomic
// counters, mean-squared error, and simple time series.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram collects float64 samples and answers order statistics.
// The zero value is ready to use. A Histogram is not safe for concurrent
// use: it belongs to the deterministic simulation thread, so read it from
// the goroutine that drives the simulation.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records a sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// AddDuration records a duration sample in milliseconds.
func (h *Histogram) AddDuration(d time.Duration) {
	h.Add(float64(d) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[nearestRank(p, len(h.samples))]
}

// nearestRank is the index of the p-th percentile among n sorted samples.
func nearestRank(p float64, n int) int {
	switch {
	case p <= 0:
		return 0
	case p >= 100:
		return n - 1
	}
	return max(int(math.Ceil(p/100*float64(n)))-1, 0)
}

// MergedPercentile is Percentile over the samples of every histogram in
// hs taken together — what Percentile answers after Merging them all into
// one — found without the merged copy: each histogram is sorted in place,
// as Percentile does, and a k-way walk over their sorted samples counts
// off the rank from whichever end is nearer. Its memory is one cursor per
// histogram. Nil histograms are skipped.
func MergedPercentile(hs []*Histogram, p float64) float64 {
	n := 0
	for _, h := range hs {
		if h != nil {
			h.sort()
			n += len(h.samples)
		}
	}
	if n == 0 {
		return 0
	}
	rank := nearestRank(p, n)
	if rank < n/2 {
		return walk(hs, rank, false)
	}
	return walk(hs, n-1-rank, true)
}

// walk returns the sample k places from the low end (from the high end
// when down) of the histograms' sorted samples taken together: a binary
// heap of one cursor per histogram, ordered by the sample each points at,
// advanced k times. The order is sort.Float64s', NaN lowest.
func walk(hs []*Histogram, k int, down bool) float64 {
	type cursor struct {
		s []float64
		i int // samples passed, counted from the walk's end
	}
	at := func(c cursor) float64 {
		if down {
			return c.s[len(c.s)-1-c.i]
		}
		return c.s[c.i]
	}
	first := func(a, b cursor) bool { // a's sample comes before b's
		x, y := at(a), at(b)
		if down {
			x, y = y, x
		}
		return x < y || x != x && y == y
	}
	heap := make([]cursor, 0, len(hs))
	for _, h := range hs {
		if h != nil && len(h.samples) > 0 {
			heap = append(heap, cursor{s: h.samples})
		}
	}
	sift := func(i int) {
		for {
			least, l, r := i, 2*i+1, 2*i+2
			if l < len(heap) && first(heap[l], heap[least]) {
				least = l
			}
			if r < len(heap) && first(heap[r], heap[least]) {
				least = r
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for ; k > 0; k-- {
		if heap[0].i++; heap[0].i == len(heap[0].s) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		sift(0)
	}
	return at(heap[0])
}

// StdDev returns the population standard deviation.
func (h *Histogram) StdDev() float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
	h.sum = 0
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Decimate halves the sample set, keeping every second sample of the
// sorted distribution, anchored so the maximum always survives — callers
// feeding unbounded streams use it to cap memory while preserving the
// quantiles and the observed worst case.
func (h *Histogram) Decimate() {
	if len(h.samples) < 2 {
		return
	}
	h.sort()
	kept := h.samples[:0]
	var sum float64
	for i := (len(h.samples) - 1) % 2; i < len(h.samples); i += 2 {
		kept = append(kept, h.samples[i])
		sum += h.samples[i]
	}
	h.samples = kept
	h.sum = sum
}

// Merge folds every sample of other into h (other is left untouched).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	h.samples = append(h.samples, other.samples...)
	h.sorted = false
	h.sum += other.sum
}

// Counter is a monotonically increasing event or byte count. The zero
// value is ready to use. Counters are safe for concurrent use: writers
// live on the simulation thread, but the public API hands counters (and
// the registry that exports them) to callers, who may sample them from
// any goroutine, so the value is an atomic. Counters must not be copied
// after first use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Store overwrites the accumulated count. It exists for state transfer —
// restoring a restarted manager's counters — not for normal accounting.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// MSE returns the mean squared error between observed and expected.
// The slices must have equal nonzero length.
func MSE(observed, expected []float64) float64 {
	if len(observed) != len(expected) || len(observed) == 0 {
		return math.NaN()
	}
	var ss float64
	for i := range observed {
		d := observed[i] - expected[i]
		ss += d * d
	}
	return ss / float64(len(observed))
}

// TimeSeries is a sequence of (virtual time, value) points.
type TimeSeries struct {
	Name   string
	Points []Point
}

// Point is a single time-series observation.
type Point struct {
	At    time.Duration
	Value float64
}

// Add appends a point.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	ts.Points = append(ts.Points, Point{At: at, Value: v})
}

// Mean returns the average of all point values.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range ts.Points {
		sum += p.Value
	}
	return sum / float64(len(ts.Points))
}

// MeanBetween averages values with from <= At <= to.
func (ts *TimeSeries) MeanBetween(from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, p := range ts.Points {
		if p.At >= from && p.At <= to {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Last returns the final value, or 0 when empty.
func (ts *TimeSeries) Last() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	return ts.Points[len(ts.Points)-1].Value
}
