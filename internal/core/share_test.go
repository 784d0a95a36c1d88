package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

// The Figure 8 topology (§5.4). Link ids:
//
//	0..5  access links C1..C6 -> B1/B2 (50, 50, 10, 50, 50, 10 Mb/s)
//	6     B1 -> B2 (50 Mb/s, 10ms)
//	7     B2 -> B3 (100 Mb/s, 10ms)
//	8..13 B3 -> S1..S6 (50 Mb/s, 5ms)
//
// One-way path latencies (ms): C1: 10+10+10+5=35, C2: 5+10+10+5=30,
// C3: 5+10+10+5=30, C4: 10+10+5=25, C5: 5+10+5=20, C6: 5+10+5=20.
func fig8Capacities() map[int]units.Bandwidth {
	caps := map[int]units.Bandwidth{
		0: 50 * units.Mbps, 1: 50 * units.Mbps, 2: 10 * units.Mbps,
		3: 50 * units.Mbps, 4: 50 * units.Mbps, 5: 10 * units.Mbps,
		6: 50 * units.Mbps, 7: 100 * units.Mbps,
	}
	for i := 8; i <= 13; i++ {
		caps[i] = 50 * units.Mbps
	}
	return caps
}

func fig8Flow(i int) FlowDemand {
	// Client i (0-based) to server i.
	lat := []time.Duration{35, 30, 30, 25, 20, 20}[i] * time.Millisecond
	var links []int
	if i < 3 {
		links = []int{i, 6, 7, 8 + i}
	} else {
		links = []int{i, 7, 8 + i}
	}
	return FlowDemand{ID: FlowID(i + 1), Links: links, RTT: 2 * lat}
}

// solvers are the two entry points of the sharing model: the indexed
// allocation-free solver and the seed's reference implementation it is
// differentially tested against. Model-level tests run against both.
var solvers = []struct {
	name string
	f    func(map[int]units.Bandwidth, []FlowDemand) []Allocation
}{
	{"indexed", Allocate},
	{"reference", AllocateReference},
}

func allocMbps(t *testing.T, n int) []float64 {
	t.Helper()
	return allocMbpsVia(t, Allocate, n)
}

func allocMbpsVia(t *testing.T, solver func(map[int]units.Bandwidth, []FlowDemand) []Allocation, n int) []float64 {
	t.Helper()
	flows := make([]FlowDemand, n)
	for i := range flows {
		flows[i] = fig8Flow(i)
	}
	got := solver(fig8Capacities(), flows)
	out := make([]float64, n)
	for i, a := range got {
		out[i] = float64(a.Rate) / float64(units.Mbps)
	}
	return out
}

func checkClose(t *testing.T, got []float64, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("flow %d: got %.3f Mb/s, want %.3f (±%.2f)", i+1, got[i], want[i], tol)
		}
	}
}

// TestFigure8Breakpoints validates the sharing model against every
// break-point the paper publishes in §5.4. Tolerance 0.05 Mb/s covers the
// paper's own rounding (the paper itself reports 16.89/23.74 where the
// model yields 16.93/23.70; the remaining ten published values match to
// two decimals).
func TestFigure8Breakpoints(t *testing.T) {
	for _, solver := range solvers {
		solver := solver
		t.Run(solver.name, func(t *testing.T) {
			t.Run("c1 alone", func(t *testing.T) {
				checkClose(t, allocMbpsVia(t, solver.f, 1), []float64{50}, 0.05)
			})
			t.Run("c1+c2", func(t *testing.T) {
				// Paper: 23.08 and 26.92 on the shared 50Mb/s B1-B2 link.
				checkClose(t, allocMbpsVia(t, solver.f, 2), []float64{23.0769, 26.9231}, 0.05)
			})
			t.Run("c1..c3", func(t *testing.T) {
				// Paper: 18.45, 21.55, 10 (C3 capped by its 10Mb/s access link,
				// surplus redistributed proportionally).
				checkClose(t, allocMbpsVia(t, solver.f, 3), []float64{18.4615, 21.5385, 10}, 0.05)
			})
			t.Run("c1..c4", func(t *testing.T) {
				// Paper: C4 reaches 50 because B2-B3 can fit everyone.
				checkClose(t, allocMbpsVia(t, solver.f, 4), []float64{18.4615, 21.5385, 10, 50}, 0.05)
			})
			t.Run("c1..c5", func(t *testing.T) {
				// Paper: 16.89, 19.75, 10, 23.74, 29.62 — all five competing for
				// the 100Mb/s B2-B3 link. The model's exact fixed point is
				// 16.93/19.75/10/23.70/29.62 (the paper's 16.89/23.74 differ by
				// 0.04, its own rounding); we assert the model's values and that
				// the published ones are within 0.05.
				got := allocMbpsVia(t, solver.f, 5)
				checkClose(t, got, []float64{16.9276, 19.7489, 10, 23.6986, 29.6233}, 0.05)
				sum := 0.0
				for _, v := range got {
					sum += v
				}
				if math.Abs(sum-100) > 0.1 {
					t.Errorf("B2-B3 not fully utilized: Σ=%v", sum)
				}
			})
			t.Run("all six", func(t *testing.T) {
				// Paper: 15.04, 17.55, 10, 21.06, 26.33, 10.
				checkClose(t, allocMbpsVia(t, solver.f, 6), []float64{15.047, 17.555, 10, 21.066, 26.333, 10}, 0.05)
			})
		})
	}
}

func TestFigure8ReverseShutdown(t *testing.T) {
	// The experiment's second half shuts clients down in reverse order;
	// allocations must retrace the same break-points. Equivalent to
	// re-running with fewer flows — the model is memoryless.
	five, three := allocMbps(t, 5), allocMbps(t, 3)
	if five[0] >= three[0] {
		t.Errorf("c1 should gain bandwidth when c4/c5 leave: %v -> %v", five[0], three[0])
	}
}

func TestShareOnLinkFormula(t *testing.T) {
	// Two flows, RTT 70ms and 60ms: shares 6/13 and 7/13 (Figure 8 stage 2).
	rtts := []time.Duration{70 * time.Millisecond, 60 * time.Millisecond}
	s1 := ShareOnLink(rtts[0], rtts)
	s2 := ShareOnLink(rtts[1], rtts)
	if math.Abs(s1-6.0/13.0) > 1e-9 {
		t.Errorf("share(70ms) = %v, want %v", s1, 6.0/13.0)
	}
	if math.Abs(s2-7.0/13.0) > 1e-9 {
		t.Errorf("share(60ms) = %v, want %v", s2, 7.0/13.0)
	}
	if math.Abs(s1+s2-1) > 1e-9 {
		t.Errorf("shares do not sum to 1: %v", s1+s2)
	}
}

func TestShareOnLinkEqualRTT(t *testing.T) {
	rtts := []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond}
	for _, r := range rtts {
		if got := ShareOnLink(r, rtts); math.Abs(got-1.0/3.0) > 1e-9 {
			t.Errorf("equal-RTT share = %v, want 1/3", got)
		}
	}
}

func TestAllocateDemandCap(t *testing.T) {
	// A flow demanding less than its share frees the rest for others.
	caps := map[int]units.Bandwidth{0: 100 * units.Mbps}
	flows := []FlowDemand{
		{ID: 1, Links: []int{0}, RTT: 50 * time.Millisecond, Demand: 10 * units.Mbps},
		{ID: 2, Links: []int{0}, RTT: 50 * time.Millisecond},
	}
	got := Allocate(caps, flows)
	if got[0].Rate != 10*units.Mbps {
		t.Errorf("capped flow = %v, want 10Mbps", got[0].Rate)
	}
	if got[0].Bottleneck != -1 {
		t.Errorf("demand-capped flow should report bottleneck -1, got %d", got[0].Bottleneck)
	}
	if math.Abs(float64(got[1].Rate)-float64(90*units.Mbps)) > 1e5 {
		t.Errorf("greedy flow = %v, want ~90Mbps", got[1].Rate)
	}
	if got[1].Bottleneck != 0 {
		t.Errorf("greedy flow bottleneck = %d, want 0", got[1].Bottleneck)
	}
}

func TestAllocateNoConstraints(t *testing.T) {
	flows := []FlowDemand{{ID: 1, Links: []int{99}, RTT: time.Millisecond}}
	got := Allocate(nil, flows)
	if got[0].Rate <= 0 {
		t.Error("unconstrained flow should get a huge allocation")
	}
}

// TestAllocateSaturatesAtMaxInt64 pins the rate conversion at the top of
// the range: a greedy flow alone on a link declared at math.MaxInt64 b/s
// (2^63 as a float) is allocated math.MaxInt64, not a wrapped negative
// rate, while two flows sharing the link keep the exact 2^62 each.
func TestAllocateSaturatesAtMaxInt64(t *testing.T) {
	caps := map[int]units.Bandwidth{0: math.MaxInt64}
	flow := FlowDemand{Links: []int{0}, RTT: time.Second}
	for _, tc := range []struct {
		flows int
		want  units.Bandwidth
	}{{1, math.MaxInt64}, {2, 1 << 62}} {
		flows := make([]FlowDemand, tc.flows)
		for i := range flows {
			flows[i] = flow
			flows[i].ID = FlowID(i)
		}
		for i, a := range Allocate(caps, flows) {
			if a.Rate != tc.want || a.Bottleneck != 0 {
				t.Errorf("%d flows: flow %d got (rate %d, bottleneck %d), want (rate %d, bottleneck 0)",
					tc.flows, i, a.Rate, a.Bottleneck, tc.want)
			}
		}
	}
}

func TestAllocateEmpty(t *testing.T) {
	if got := Allocate(map[int]units.Bandwidth{0: units.Mbps}, nil); len(got) != 0 {
		t.Errorf("empty flows -> %d allocations", len(got))
	}
}

func TestAllocateZeroRTT(t *testing.T) {
	// Zero RTT must not divide by zero; it is floored.
	caps := map[int]units.Bandwidth{0: 10 * units.Mbps}
	flows := []FlowDemand{
		{ID: 1, Links: []int{0}, RTT: 0},
		{ID: 2, Links: []int{0}, RTT: 0},
	}
	got := Allocate(caps, flows)
	want := 5 * units.Mbps
	for _, a := range got {
		if math.Abs(float64(a.Rate)-float64(want)) > 1e3 {
			t.Errorf("zero-RTT share = %v, want ~5Mbps", a.Rate)
		}
	}
}

func TestAllocateDuplicateLinkInPath(t *testing.T) {
	// A path listing the same link twice (can happen with hairpin routes)
	// must not double-subtract.
	caps := map[int]units.Bandwidth{0: 10 * units.Mbps}
	flows := []FlowDemand{{ID: 1, Links: []int{0, 0}, RTT: time.Millisecond}}
	got := Allocate(caps, flows)
	if math.Abs(float64(got[0].Rate)-float64(10*units.Mbps)) > 1e3 {
		t.Errorf("rate = %v, want 10Mbps", got[0].Rate)
	}
}

// Property tests on the allocator's fairness invariants.

func TestAllocateInvariants(t *testing.T) {
	type tc struct {
		NFlows   uint8
		RTTs     [8]uint16
		Demands  [8]uint16
		Weights  [8]uint8
		CapMbps  [4]uint16
		PathBits [8]uint8 // which of 4 links each flow crosses
	}
	f := func(c tc) bool {
		n := int(c.NFlows%8) + 1
		caps := make(map[int]units.Bandwidth)
		for l := 0; l < 4; l++ {
			caps[l] = units.Bandwidth(int64(c.CapMbps[l]%1000)+1) * units.Mbps
		}
		flows := make([]FlowDemand, n)
		for i := 0; i < n; i++ {
			var links []int
			for l := 0; l < 4; l++ {
				if c.PathBits[i]&(1<<l) != 0 {
					links = append(links, l)
				}
			}
			if len(links) == 0 {
				links = []int{int(c.PathBits[i]) % 4}
			}
			var demand units.Bandwidth
			if c.Demands[i]%3 == 0 {
				demand = units.Bandwidth(int64(c.Demands[i]%500)+1) * units.Mbps
			}
			flows[i] = FlowDemand{
				ID:     FlowID(i),
				Links:  links,
				RTT:    time.Duration(c.RTTs[i]%200+1) * time.Millisecond,
				Demand: demand,
				// Aggregated remote flows arrive as weighted entries.
				Weight: int(c.Weights[i]%8) + 1,
			}
		}
		got := Allocate(caps, flows)
		// Invariant 1: no link oversubscribed (within rounding). Rate is
		// per unit flow, so a Weight-w entry loads its links w times.
		use := make(map[int]float64)
		for i, a := range got {
			seen := map[int]bool{}
			for _, l := range flows[i].Links {
				if !seen[l] {
					seen[l] = true
					use[l] += float64(flows[i].Weight) * float64(a.Rate)
				}
			}
		}
		for l, u := range use {
			if u > float64(caps[l])*1.0001+1000 {
				return false
			}
		}
		// Invariant 2: no flow exceeds its demand.
		for i, a := range got {
			if flows[i].Demand > 0 && a.Rate > flows[i].Demand+1000 {
				return false
			}
		}
		// Invariant 3: all rates non-negative.
		for _, a := range got {
			if a.Rate < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocateWorkConserving(t *testing.T) {
	// Single bottleneck, greedy flows: the link must be fully used.
	f := func(rtts []uint16) bool {
		if len(rtts) == 0 || len(rtts) > 32 {
			return true
		}
		caps := map[int]units.Bandwidth{0: 100 * units.Mbps}
		flows := make([]FlowDemand, len(rtts))
		for i, r := range rtts {
			flows[i] = FlowDemand{ID: FlowID(i), Links: []int{0},
				RTT: time.Duration(r%300+1) * time.Millisecond}
		}
		got := Allocate(caps, flows)
		var sum float64
		for _, a := range got {
			sum += float64(a.Rate)
		}
		return math.Abs(sum-float64(100*units.Mbps)) < 1e4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllocateRTTBias(t *testing.T) {
	// Lower RTT flows receive strictly more on a shared bottleneck.
	caps := map[int]units.Bandwidth{0: 100 * units.Mbps}
	flows := []FlowDemand{
		{ID: 1, Links: []int{0}, RTT: 200 * time.Millisecond},
		{ID: 2, Links: []int{0}, RTT: 20 * time.Millisecond},
	}
	got := Allocate(caps, flows)
	if got[1].Rate <= got[0].Rate {
		t.Errorf("fast flow (%v) should beat slow flow (%v)", got[1].Rate, got[0].Rate)
	}
	// Ratio should be RTT ratio: 10:1.
	ratio := float64(got[1].Rate) / float64(got[0].Rate)
	if math.Abs(ratio-10) > 0.01 {
		t.Errorf("share ratio = %v, want 10", ratio)
	}
}

func BenchmarkAllocateFig8(b *testing.B) {
	caps := fig8Capacities()
	flows := make([]FlowDemand, 6)
	for i := range flows {
		flows[i] = fig8Flow(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Allocate(caps, flows)
	}
}

func BenchmarkAllocateLarge(b *testing.B) {
	// 512 flows over 128 links: the per-EM computation at large scale.
	caps := make(map[int]units.Bandwidth)
	for l := 0; l < 128; l++ {
		caps[l] = 100 * units.Mbps
	}
	flows := make([]FlowDemand, 512)
	for i := range flows {
		flows[i] = FlowDemand{
			ID:    FlowID(i),
			Links: []int{i % 128, (i * 7) % 128, (i * 13) % 128},
			RTT:   time.Duration(10+i%90) * time.Millisecond,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Allocate(caps, flows)
	}
}
