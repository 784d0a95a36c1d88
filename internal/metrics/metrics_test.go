package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("zero-value histogram should return zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v, want 3", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v, want 5", got)
	}
	if got := h.Percentile(1); got != 1 {
		t.Fatalf("P1 = %v, want 1", got)
	}
}

func TestHistogramAddAfterQuery(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Percentile(50)
	h.Add(1) // must re-sort on the next query
	if got := h.Percentile(1); got != 1 {
		t.Fatalf("P1 after late Add = %v, want 1", got)
	}
}

func TestHistogramStdDev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(v)
	}
	if got := h.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.AddDuration(15 * time.Millisecond)
	if got := h.Mean(); got != 15 {
		t.Fatalf("AddDuration mean = %v ms, want 15", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Add(1)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var h Histogram
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Add(v)
			}
		}
		p, q := float64(a%101), float64(b%101)
		if p > q {
			p, q = q, p
		}
		return h.Percentile(p) <= h.Percentile(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSE(t *testing.T) {
	got := MSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if got != 0 {
		t.Fatalf("MSE identical = %v", got)
	}
	got = MSE([]float64{2, 4}, []float64{0, 0})
	if got != 10 {
		t.Fatalf("MSE = %v, want 10", got)
	}
	if !math.IsNaN(MSE([]float64{1}, []float64{1, 2})) {
		t.Fatal("MSE length mismatch should be NaN")
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Fatal("MSE empty should be NaN")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := TimeSeries{Name: "tp"}
	ts.Add(time.Second, 10)
	ts.Add(2*time.Second, 20)
	ts.Add(3*time.Second, 30)
	if got := ts.Mean(); got != 20 {
		t.Fatalf("Mean = %v", got)
	}
	if got := ts.MeanBetween(2*time.Second, 3*time.Second); got != 25 {
		t.Fatalf("MeanBetween = %v, want 25", got)
	}
	if got := ts.MeanBetween(time.Minute, 2*time.Minute); got != 0 {
		t.Fatalf("MeanBetween empty window = %v, want 0", got)
	}
	if got := ts.Last(); got != 30 {
		t.Fatalf("Last = %v", got)
	}
	if (&TimeSeries{}).Last() != 0 || (&TimeSeries{}).Mean() != 0 {
		t.Fatal("empty series should return zeros")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Counter = %d, want 42", c.Value())
	}
}

func TestHistogramDecimateAndMerge(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	p50, p99 := h.Percentile(50), h.Percentile(99)
	h.Decimate()
	if h.Count() != 500 {
		t.Fatalf("Count after Decimate = %d, want 500", h.Count())
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("max after Decimate = %v, want 1000 (max must survive)", h.Percentile(100))
	}
	if got := h.Percentile(50); got < p50-3 || got > p50+3 {
		t.Fatalf("p50 after Decimate = %v, want ~%v", got, p50)
	}
	if got := h.Percentile(99); got < p99-3 || got > p99+3 {
		t.Fatalf("p99 after Decimate = %v, want ~%v", got, p99)
	}
	var other Histogram
	other.Add(5000)
	h.Merge(&other)
	if h.Count() != 501 || h.Percentile(100) != 5000 {
		t.Fatalf("after Merge: count=%d max=%v", h.Count(), h.Percentile(100))
	}
	// Decimating tiny histograms is a no-op.
	var tiny Histogram
	tiny.Add(1)
	tiny.Decimate()
	if tiny.Count() != 1 {
		t.Fatal("Decimate of single sample should keep it")
	}
}

// Decimate and Merge maintain the cached sum incrementally; Mean (which
// divides it by Count) must stay consistent with the surviving samples
// through any interleaving of the two.
func TestHistogramSumConsistency(t *testing.T) {
	recompute := func(h *Histogram) float64 {
		var s float64
		for _, v := range h.samples {
			s += v
		}
		return s
	}
	check := func(h *Histogram, when string) {
		t.Helper()
		if want := recompute(h); math.Abs(h.sum-want) > 1e-9 {
			t.Fatalf("%s: cached sum = %v, samples sum to %v", when, h.sum, want)
		}
		if c := h.Count(); c > 0 {
			if want := recompute(h) / float64(c); math.Abs(h.Mean()-want) > 1e-9 {
				t.Fatalf("%s: Mean = %v, want %v", when, h.Mean(), want)
			}
		}
	}

	var h Histogram
	for i := 0; i < 101; i++ {
		h.Add(float64(i) * 1.5)
	}
	check(&h, "after Add")
	h.Decimate() // odd count exercises the keep-the-max anchoring
	check(&h, "after Decimate(odd)")

	var other Histogram
	for i := 0; i < 32; i++ {
		other.Add(float64(1000 + i))
	}
	other.Decimate()
	h.Merge(&other)
	check(&h, "after Merge of decimated")
	h.Decimate()
	check(&h, "after Decimate of merged")
	// Merging an empty histogram changes nothing.
	h.Merge(&Histogram{})
	h.Merge(nil)
	check(&h, "after empty Merge")
}

// TestMergedPercentileMatchesMerge checks the k-way walk against Merge
// followed by Percentile: random sets of histograms (empty, nil and
// single-sample ones among them, values drawn from a few so ties are
// common, NaN now and then), every rank class from p ≤ 0 to p ≥ 100.
func TestMergedPercentileMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := []float64{-5, 0, 0.1, 1, 25, 49.9, 50, 50.1, 75, 99, 99.9, 100, 150}
	for round := 0; round < 300; round++ {
		hs := make([]*Histogram, rng.Intn(9))
		for i := range hs {
			if rng.Intn(8) == 0 {
				continue // nil
			}
			hs[i] = new(Histogram)
			for j := rng.Intn(40); j > 0; j-- {
				v := float64(rng.Intn(12))
				if rng.Intn(50) == 0 {
					v = math.NaN()
				}
				hs[i].Add(v)
			}
		}
		var merged Histogram
		for _, h := range hs {
			merged.Merge(h)
		}
		for _, p := range ps {
			got, want := MergedPercentile(hs, p), merged.Percentile(p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("round %d, p%v over %d samples: MergedPercentile = %v, Merge then Percentile = %v", round, p, merged.Count(), got, want)
			}
		}
	}
}
