package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
)

// Tests of demandFits, the certificate that lets Manager.enforce skip the
// demand-aware solve: whenever it accepts, Allocate freezes every flow at
// its demand, and fitAllocation's result is Allocate's bit for bit.

// checkDemandFits asks demandFits about flows on s, and, when it accepts,
// demands that Allocate on the same arena return fitAllocation's result:
// the same rate, bottleneck and id for every flow. It returns the verdict.
func checkDemandFits(t *testing.T, label string, s *AllocState, caps []float64, flows []FlowDemand) bool {
	t.Helper()
	if !s.demandFits(caps, flows) {
		return false
	}
	want := fitAllocation(flows, nil)
	got := s.Allocate(caps, flows, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: flow %d: Allocate gives %+v, demandFits certified %+v", label, i, got[i], want[i])
		}
	}
	return true
}

// fitCase draws an instance around demandFits's edges. The table mixes
// finite capacities from 1 b/s to 2^62, NaN (unconstrained), negative
// (tombstoned) and +Inf entries; paths leave the table and repeat links;
// weights run from 0 to 65 535 and RTTs from 0; demands from 1 b/s past
// 2^52. mode then moves the demands:
//
//	0: as drawn;
//	1: scaled so the tightest link's weighted sum sits on its margin;
//	2: scaled as 1, but by unweighted sums, so weights push links over;
//	3: as 1, with one flow made greedy;
//	4: as 1, with one flow's demand raised to fill a link exactly.
func fitCase(rng *rand.Rand, mode int) ([]float64, []FlowDemand) {
	logUniform := func(bits int) int64 { return rng.Int63n(int64(1)<<uint(1+rng.Intn(bits))) + 1 }
	caps := make([]float64, 1+rng.Intn(12))
	for l := range caps {
		switch r := rng.Intn(20); {
		case r < 15:
			caps[l] = float64(logUniform(62))
		case r < 17:
			caps[l] = math.NaN()
		case r < 19:
			caps[l] = math.Inf(1)
		default:
			caps[l] = -float64(rng.Intn(2))
		}
	}
	flows := make([]FlowDemand, 1+rng.Intn(10))
	for i := range flows {
		links := make([]int, 1+rng.Intn(4))
		for j := range links {
			links[j] = rng.Intn(len(caps)+3) - 1 // -1 and past the table: unconstrained
		}
		if len(links) > 1 && rng.Intn(5) == 0 {
			links[len(links)-1] = links[0]
		}
		weight := rng.Intn(3)
		switch rng.Intn(12) {
		case 0:
			weight = 2 + rng.Intn(7)
		case 1:
			weight = 65535
		}
		rtt := time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
		if rng.Intn(6) == 0 {
			rtt = 0
		}
		flows[i] = FlowDemand{ID: FlowID(i), Links: links, RTT: rtt, Weight: weight, Demand: units.Bandwidth(logUniform(62))}
	}
	if mode == 0 {
		return caps, flows
	}
	// sums are each constrained link's demand sums, counted as demandFits
	// counts them: once per flow, weighted unless mode 2.
	sums := func() []float64 {
		sum := make([]float64, len(caps))
		for _, f := range flows {
			seen := map[int]bool{}
			for _, l := range f.Links {
				if l < 0 || l >= len(caps) || math.IsNaN(caps[l]) || seen[l] {
					continue
				}
				seen[l] = true
				m := float64(max(f.Weight, 1))
				if mode == 2 {
					m = 1
				}
				sum[l] += m * float64(f.Demand)
			}
		}
		return sum
	}
	r := math.Inf(1)
	for l, s := range sums() {
		if c := caps[l]; s > 0 && c > 0 && !math.IsInf(c, 1) {
			r = min(r, c*(1-fitMargin)/s)
		}
	}
	if !math.IsInf(r, 1) {
		for i := range flows {
			flows[i].Demand = units.Bandwidth(max(1, min(math.Floor(float64(flows[i].Demand)*r), math.MaxInt64/2)))
		}
	}
	i := rng.Intn(len(flows))
	switch mode {
	case 3:
		flows[i].Demand = 0
	case 4:
		sum := sums()
		for _, l := range flows[i].Links {
			if l >= 0 && l < len(caps) && caps[l] > 0 && !math.IsInf(caps[l], 1) {
				m := float64(max(flows[i].Weight, 1))
				if d := flows[i].Demand + units.Bandwidth((caps[l]-sum[l])/m); d > 0 {
					flows[i].Demand = d
				}
				break
			}
		}
	}
	return caps, flows
}

// TestDemandFitsDerivation is the property over seeded fitCase inputs,
// on one arena shared by every check and the solves between them, as a
// Manager shares it; both verdicts must occur often. A warm arena's check
// allocates nothing.
func TestDemandFitsDerivation(t *testing.T) {
	var s AllocState
	fits, not := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		for mode := 0; mode < 5; mode++ {
			caps, flows := fitCase(rand.New(rand.NewSource(seed)), mode)
			if checkDemandFits(t, "fitCase", &s, caps, flows) {
				fits++
			} else {
				not++
			}
		}
	}
	t.Logf("%d instances fit, %d not", fits, not)
	if fits < 150 || not < 150 {
		t.Fatalf("verdicts: %d fit, %d not; want ≥ 150 of each for the property to bite", fits, not)
	}
	caps, flows := flapSolveShape(42, true)
	if !checkDemandFits(t, "scalefree_flap-shaped", &s, caps, flows) {
		t.Fatal("scalefree_flap-shaped demands do not fit")
	}
	if a := testing.AllocsPerRun(100, func() { s.demandFits(caps, flows) }); a != 0 {
		t.Fatalf("demandFits allocates %.1f objects per call on a warm arena", a)
	}
}

// TestDemandFitsBoundary pins each rule of the certificate. A case that
// must not fit and is marked wrong also shows that certifying it would
// be an error: Allocate's result differs from fitAllocation's.
func TestDemandFitsBoundary(t *testing.T) {
	const rtt = 20 * time.Millisecond
	nan, inf := math.NaN(), math.Inf(1)
	big := float64(1 << 60)
	bound := big * (1 - fitMargin) // ≥ 2^53: an integer, one ulp is 256
	past := math.Nextafter(bound, inf)
	flow := func(d units.Bandwidth, weight int, links ...int) FlowDemand {
		return FlowDemand{Links: links, RTT: rtt, Demand: d, Weight: weight}
	}
	// seventeen flows of Weight w on one ample link: 16·65 535 + w
	// underlying flows.
	crowd := func(w int) []FlowDemand {
		fl := make([]FlowDemand, 17)
		for i := range fl {
			fl[i] = flow(units.Kbps, 65535, 0)
			fl[i].ID = FlowID(i)
		}
		fl[16].Weight = w
		return fl
	}
	for _, tc := range []struct {
		name  string
		caps  []float64
		flows []FlowDemand
		fits  bool
		wrong bool // certifying it would give a result Allocate does not
		rate  units.Bandwidth
	}{
		{name: "sum exactly at the margin", caps: []float64{big},
			flows: []FlowDemand{flow(units.Bandwidth(bound), 1, 0)}, fits: true},
		{name: "sum one ulp past the margin", caps: []float64{big},
			flows: []FlowDemand{flow(units.Bandwidth(past), 1, 0)}},
		{name: "weighted sum exactly at the margin", caps: []float64{big},
			flows: []FlowDemand{flow(units.Bandwidth(bound/2), 2, 0)}, fits: true},
		{name: "weighted sum one ulp past the margin", caps: []float64{big},
			flows: []FlowDemand{flow(units.Bandwidth(past/2), 2, 0)}},
		{name: "sum at capacity: the link ties the demand and wins", caps: []float64{10e6},
			flows: []FlowDemand{flow(10*units.Mbps, 1, 0)}, wrong: true},
		{name: "two sums at capacity", caps: []float64{10e6},
			flows: []FlowDemand{flow(4*units.Mbps, 1, 0), flow(6*units.Mbps, 1, 0)}, wrong: true},
		{name: "negative cap", caps: []float64{-1, 10e6},
			flows: []FlowDemand{flow(units.Mbps, 1, 1, 0)}, wrong: true},
		{name: "zero cap", caps: []float64{0},
			flows: []FlowDemand{flow(units.Mbps, 1, 0)}, wrong: true},
		{name: "NaN caps and out-of-range ids are unconstrained", caps: []float64{nan, 10e6},
			flows: []FlowDemand{flow(5*units.Mbps, 1, 0, 7, -1, 1)}, fits: true},
		{name: "a flow with no constrained link", caps: []float64{nan},
			flows: []FlowDemand{flow(5*units.Mbps, 1, 0, 3)}, fits: true},
		{name: "a link repeated within a flow counts once", caps: []float64{10e6},
			flows: []FlowDemand{flow(6*units.Mbps, 1, 0, 0)}, fits: true},
		{name: "Weight 65535 multiplies the demand", caps: []float64{10e6},
			flows: []FlowDemand{flow(units.Mbps, 65535, 0)}, wrong: true},
		{name: "Weight 65535 within the margin", caps: []float64{big},
			flows: []FlowDemand{flow(units.Bandwidth(bound/65535), 65535, 0)}, fits: true},
		{name: "a single greedy flow", caps: []float64{10e6},
			flows: []FlowDemand{flow(0, 1, 0)}, wrong: true},
		{name: "a greedy flow among capped ones", caps: []float64{10e6, 10e6},
			flows: []FlowDemand{flow(units.Mbps, 1, 0), flow(0, 1, 1), flow(units.Mbps, 1, 0, 1)}, wrong: true},
		{name: "demand at 2^52 + 1 rounds as freeze rounds it", caps: []float64{big},
			flows: []FlowDemand{flow(1<<52+1, 1, 0)}, fits: true, rate: 1<<52 + 2},
		{name: "demand at 2^53 + 1 rounds as freeze rounds it", caps: []float64{big},
			flows: []FlowDemand{flow(1<<53+1, 1, 0)}, fits: true, rate: 1 << 53},
		{name: "demand at 2^63 - 1 saturates", caps: []float64{inf},
			flows: []FlowDemand{flow(math.MaxInt64, 1, 0)}, fits: true, rate: math.MaxInt64},
		{name: "2^20 underlying flows on a link", caps: []float64{big},
			flows: crowd(16), fits: true},
		{name: "2^20 + 1 underlying flows on a link", caps: []float64{big},
			flows: crowd(17)},
	} {
		var s AllocState
		if got := checkDemandFits(t, tc.name, &s, tc.caps, tc.flows); got != tc.fits {
			t.Fatalf("%s: demandFits = %v, want %v", tc.name, got, tc.fits)
		}
		if tc.rate != 0 {
			if got := fitAllocation(tc.flows, nil)[0].Rate; got != tc.rate {
				t.Fatalf("%s: certified rate %d, want %d", tc.name, got, tc.rate)
			}
		}
		if tc.wrong {
			want, got := fitAllocation(tc.flows, nil), s.Allocate(tc.caps, tc.flows, nil)
			same := true
			for i := range got {
				same = same && got[i] == want[i]
			}
			if same {
				t.Fatalf("%s: Allocate agrees with the certificate; the case does not test its rule", tc.name)
			}
		}
	}
}

// FuzzDemandFits explores the certificate beyond the seeded property:
// mode picks fitCase's demand variant.
func FuzzDemandFits(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		caps, flows := fitCase(rand.New(rand.NewSource(seed)), int(mode%5))
		var s AllocState
		checkDemandFits(t, "fuzz", &s, caps, flows)
	})
}
