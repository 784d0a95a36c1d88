package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
)

// Differential tests: the indexed solver (share.go) against the seed's
// map-based reference (share_reference_test.go). The two must agree *exactly* —
// same rounded Rate, same Bottleneck — over randomized topologies, RTTs,
// demands and degenerate inputs (duplicate links in a path, ids outside
// the capacity table, zero RTTs, uncapacitated links). Weighted aggregate
// entries must match their expansion into duplicate flows.

// diffCase builds one randomized allocation instance. Some link ids in
// paths intentionally fall outside the capacitated set (unconstrained) or
// repeat within one path (hairpin routes).
func diffCase(rng *rand.Rand) (map[int]units.Bandwidth, []FlowDemand) {
	nLinks := 1 + rng.Intn(24)
	caps := make(map[int]units.Bandwidth)
	for l := 0; l < nLinks; l++ {
		if rng.Intn(10) < 8 {
			caps[l] = units.Bandwidth(rng.Int63n(int64(1000*units.Mbps)) + int64(100*units.Kbps))
		}
	}
	nFlows := 1 + rng.Intn(20)
	flows := make([]FlowDemand, nFlows)
	for i := range flows {
		k := 1 + rng.Intn(5)
		links := make([]int, k)
		for j := range links {
			links[j] = rng.Intn(nLinks + 3) // occasionally past the table
		}
		if rng.Intn(6) == 0 && k > 1 {
			links[k-1] = links[0] // duplicate link within the path
		}
		var demand units.Bandwidth
		if rng.Intn(2) == 0 {
			demand = units.Bandwidth(rng.Int63n(int64(300*units.Mbps)) + 1)
		}
		rtt := time.Duration(rng.Int63n(int64(250 * time.Millisecond)))
		if rng.Intn(8) == 0 {
			rtt = 0 // exercise the minRTT floor
		}
		flows[i] = FlowDemand{ID: FlowID(i), Links: links, RTT: rtt, Demand: demand}
	}
	return caps, flows
}

func sameAllocations(t *testing.T, label string, got, want []Allocation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Rate != want[i].Rate || got[i].Bottleneck != want[i].Bottleneck {
			t.Fatalf("%s: flow %d diverged: got (rate %d, bottleneck %d), want (rate %d, bottleneck %d)",
				label, i, got[i].Rate, got[i].Bottleneck, want[i].Rate, want[i].Bottleneck)
		}
	}
}

// TestAllocateMatchesReference fuzzes both solvers over seeded random
// instances and demands bit-identical allocations. One AllocState is
// shared across all cases, so the test simultaneously proves that arena
// reuse leaks no state between calls.
func TestAllocateMatchesReference(t *testing.T) {
	var shared AllocState
	var capsBuf []float64
	var outBuf []Allocation
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 40; iter++ {
			caps, flows := diffCase(rng)
			want := AllocateReference(caps, flows)
			got := Allocate(caps, flows)
			sameAllocations(t, "fresh state", got, want)
			capsBuf = DenseCaps(caps, capsBuf)
			outBuf = shared.Allocate(capsBuf, flows, outBuf)
			sameAllocations(t, "reused arena", outBuf, want)
		}
	}
}

// TestAllocateSyntheticMatchesReference pins the benchmark workload
// itself: the inputs measured by BenchmarkAllocate are solved identically
// by both entry points, so the speedup is not bought with drift.
func TestAllocateSyntheticMatchesReference(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		caps, flows := SyntheticAllocation(n, n/2+8, 42)
		sameAllocations(t, "synthetic", Allocate(caps, flows), AllocateReference(caps, flows))
	}
	for _, demands := range []bool{false, true} {
		caps, flows := flapSolveShape(1, demands)
		var s AllocState
		matchesReference(t, fmt.Sprintf("scalefree_flap-shaped demands=%v", demands), &s, caps, flows)
	}
}

// expandWeights turns every Weight-w entry into w duplicate unit entries —
// the representation the reference solver (and the seed's globalFlows)
// used for aggregated remote flows.
func expandWeights(flows []FlowDemand) []FlowDemand {
	var out []FlowDemand
	for _, f := range flows {
		w := f.Weight
		if w < 1 {
			w = 1
		}
		unit := f
		unit.Weight = 0
		for j := 0; j < w; j++ {
			out = append(out, unit)
		}
	}
	return out
}

// TestAllocateWeightedMatchesExpansion proves the native weighted form is
// exactly the duplicate materialization it replaces: a Weight-w entry
// receives the same per-flow rate the w expanded duplicates each receive,
// and the unweighted flows around it are unaffected bit for bit.
func TestAllocateWeightedMatchesExpansion(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 30; iter++ {
			caps, flows := diffCase(rng)
			for i := range flows {
				if rng.Intn(2) == 0 {
					flows[i].Weight = 1 + rng.Intn(5)
				}
			}
			expanded := expandWeights(flows)
			want := Allocate(caps, expanded)
			wantRef := AllocateReference(caps, expanded)
			sameAllocations(t, "expanded vs reference", want, wantRef)
			got := Allocate(caps, flows)
			at := 0
			for i, f := range flows {
				w := f.Weight
				if w < 1 {
					w = 1
				}
				for j := 0; j < w; j++ {
					if got[i].Rate != want[at].Rate {
						t.Fatalf("seed %d: weighted flow %d (unit %d/%d): rate %d, expansion got %d",
							seed, i, j+1, w, got[i].Rate, want[at].Rate)
					}
					at++
				}
				if got[i].Bottleneck != want[at-1].Bottleneck {
					t.Fatalf("seed %d: weighted flow %d bottleneck %d, expansion %d",
						seed, i, got[i].Bottleneck, want[at-1].Bottleneck)
				}
			}
		}
	}
}

// TestAllocateOutBufferReuse checks the out-slice contract: results land
// in the provided storage when it is large enough and are complete either
// way.
func TestAllocateOutBufferReuse(t *testing.T) {
	caps, flows := SyntheticAllocation(32, 16, 7)
	var s AllocState
	dense := DenseCaps(caps, nil)
	first := s.Allocate(dense, flows, nil)
	buf := make([]Allocation, 0, len(flows))
	second := s.Allocate(dense, flows, buf)
	sameAllocations(t, "out reuse", second, first)
	if cap(second) != cap(buf) {
		t.Fatalf("out buffer not reused: cap %d, want %d", cap(second), cap(buf))
	}
}

// greedyLevels solves flows with every Demand zeroed on a fresh arena and
// returns the output with the per-flow fill levels it recorded.
func greedyLevels(caps []float64, flows []FlowDemand) ([]Allocation, []float64) {
	greedy := append([]FlowDemand(nil), flows...)
	for i := range greedy {
		greedy[i].Demand = 0
	}
	var s AllocState
	ent := s.Allocate(caps, greedy, nil)
	return ent, append([]float64(nil), s.level...)
}

// checkDemandSlack asks demandSlack whether flows' demand-aware solve can
// be derived from their greedy solve and, when it says so, demands that
// a fresh demand-aware solve return the greedy output bit for bit. It
// returns the verdict.
func checkDemandSlack(t *testing.T, label string, caps []float64, flows []FlowDemand) bool {
	t.Helper()
	ent, level := greedyLevels(caps, flows)
	if !demandSlack(flows, level) {
		return false
	}
	var s AllocState
	sameAllocations(t, label+": derived demand-aware pass", s.Allocate(caps, flows, nil), ent)
	return true
}

// onLevel moves every demand onto its flow's greedy fill level, rounded
// by round — the boundary where demandSlack's strict < decides. Flows no
// constraint applied to become greedy.
func onLevel(caps []float64, flows []FlowDemand, round func(float64) float64) []FlowDemand {
	_, level := greedyLevels(caps, flows)
	out := append([]FlowDemand(nil), flows...)
	for i := range out {
		if math.IsInf(level[i], 1) {
			out[i].Demand = 0
			continue
		}
		out[i].Demand = units.Bandwidth(round(level[i] * flowWeight(out[i].RTT)))
	}
	return out
}

// demandVariants derives from one drawn instance the demand vectors the
// derivation tests check: as drawn, every demand 4× larger, and demands
// placed on their fill levels rounded up and down.
func demandVariants(caps []float64, flows []FlowDemand) [][]FlowDemand {
	scaled := append([]FlowDemand(nil), flows...)
	for i := range scaled {
		scaled[i].Demand *= 4
	}
	return [][]FlowDemand{flows, scaled, onLevel(caps, flows, math.Ceil), onLevel(caps, flows, math.Floor)}
}

// TestDemandSlackDerivation is the property behind Manager.enforce's
// derived demand-aware pass: whenever demandSlack holds, the demand-aware
// solve equals the greedy solve exactly. Inputs come from both of the
// solver's generators, with demands moved onto and around the fill
// levels so both verdicts occur often.
func TestDemandSlackDerivation(t *testing.T) {
	derived, solved := 0, 0
	count := func(ok bool) {
		if ok {
			derived++
		} else {
			solved++
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 25; iter++ {
			capsMap, flows := diffCase(rng)
			caps := DenseCaps(capsMap, nil)
			for _, v := range demandVariants(caps, flows) {
				count(checkDemandSlack(t, "diffCase", caps, v))
			}
		}
	}
	for _, n := range []int{16, 64, 256} {
		capsMap, flows := SyntheticAllocation(n, n/2+8, int64(n))
		caps := DenseCaps(capsMap, nil)
		for _, v := range demandVariants(caps, flows) {
			count(checkDemandSlack(t, "synthetic", caps, v))
		}
	}
	t.Logf("%d instances derivable, %d not", derived, solved)
	if derived < 100 || solved < 100 {
		t.Fatalf("verdicts: %d derivable, %d not; want ≥ 100 of each for the property to bite", derived, solved)
	}
}

// TestDemandSlackBoundary pins the predicate's edges. A demand exactly
// at its level ties with the link, and the link's strict < win makes the
// passes identical; one ulp below, the demand binds first; and a flow no
// constraint applies to (+Inf level) is capped by any finite demand. The
// last two must not be derived — and the solves really do differ.
func TestDemandSlackBoundary(t *testing.T) {
	const big = units.Bandwidth(1<<53 + 2) // float64 spacing is 2 here
	for _, tc := range []struct {
		name      string
		caps      map[int]units.Bandwidth
		flow      FlowDemand
		derivable bool
	}{
		{"demand at its level", map[int]units.Bandwidth{0: 10 * units.Mbps},
			FlowDemand{Links: []int{0}, RTT: 20 * time.Millisecond, Demand: 10 * units.Mbps}, true},
		{"demand one ulp below its level", map[int]units.Bandwidth{0: big},
			FlowDemand{Links: []int{0}, RTT: time.Second, Demand: big - 2}, false},
		{"unconstrained flow with a finite demand", map[int]units.Bandwidth{0: 10 * units.Mbps},
			FlowDemand{Links: []int{5}, RTT: 20 * time.Millisecond, Demand: 5 * units.Mbps}, false},
	} {
		caps := DenseCaps(tc.caps, nil)
		flows := []FlowDemand{tc.flow}
		if got := checkDemandSlack(t, tc.name, caps, flows); got != tc.derivable {
			t.Fatalf("%s: demandSlack = %v, want %v", tc.name, got, tc.derivable)
		}
		if tc.derivable {
			continue
		}
		ent, _ := greedyLevels(caps, flows)
		var s AllocState
		if wd := s.Allocate(caps, flows, nil); wd[0] == ent[0] {
			t.Fatalf("%s: demand-aware %+v equals greedy; the case does not test the boundary", tc.name, wd[0])
		}
	}
}

// FuzzDemandSlack explores the derivation property beyond the seeded
// test: mode picks the demand variant of the drawn instance.
func FuzzDemandSlack(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		capsMap, flows := diffCase(rand.New(rand.NewSource(seed)))
		caps := DenseCaps(capsMap, nil)
		variants := demandVariants(caps, flows)
		checkDemandSlack(t, "fuzz", caps, variants[int(mode)%len(variants)])
	})
}

// tieTable is tieCase's capacity-table length: sparse, as a large
// topology's link id space is to the links one Manager's flows cross.
const tieTable = 4096

// tieCase draws an instance on which tie-breaks decide. Capacities, RTTs
// and demands each take one of three values, so link–link, demand–demand
// and link–demand ties are common (a demand of c/k on a link shared by k
// equal-RTT flows ties with it exactly). The table is mostly NaN
// (unconstrained); among the links flows cross are +Inf, negative
// (tombstoned) and NaN capacities; paths of 1–10 links repeat links and
// reach past the table; a quarter of the entries aggregate 2–8 flows.
func tieCase(rng *rand.Rand, nFlows int) ([]float64, []FlowDemand) {
	caps := make([]float64, tieTable)
	for i := range caps {
		caps[i] = math.NaN()
	}
	used := make([]int, nFlows/2+8)
	for i := range used {
		l := rng.Intn(tieTable)
		used[i] = l
		switch r := rng.Intn(16); r {
		case 0:
			caps[l] = math.Inf(1)
		case 1:
			caps[l] = -1
		case 2: // unconstrained
		default:
			caps[l] = float64(units.Bandwidth(10<<rng.Intn(3)) * units.Mbps)
		}
	}
	flows := make([]FlowDemand, nFlows)
	for i := range flows {
		links := make([]int, 1+rng.Intn(10))
		for j := range links {
			switch r := rng.Intn(20); {
			case r == 0:
				links[j] = tieTable + rng.Intn(4) // past the table
			case r == 1 && j > 0:
				links[j] = links[rng.Intn(j)] // a repeat
			default:
				links[j] = used[rng.Intn(len(used))]
			}
		}
		var demand units.Bandwidth
		if rng.Intn(2) == 0 {
			demand = units.Bandwidth(5<<rng.Intn(3)) * units.Mbps
		}
		weight := 0
		if rng.Intn(4) == 0 {
			weight = 2 + rng.Intn(7)
		}
		flows[i] = FlowDemand{
			ID:     FlowID(i),
			Links:  links,
			RTT:    time.Duration(10<<rng.Intn(3)) * time.Millisecond,
			Demand: demand,
			Weight: weight,
		}
	}
	return caps, flows
}

// referenceCaps is the reference's view of a dense table: finite
// capacities, tombstones included. NaN and +Inf links are left out —
// +Inf never binds (its theta is +Inf, which no strict < selects) and its
// remaining capacity stays +Inf, so it constrains nothing, exactly like
// an absent link.
func referenceCaps(caps []float64) map[int]units.Bandwidth {
	m := make(map[int]units.Bandwidth)
	for l, c := range caps {
		if !math.IsNaN(c) && !math.IsInf(c, 1) {
			m[l] = units.Bandwidth(c)
		}
	}
	return m
}

// matchesReference solves flows on s and demands that every entry's
// rate and bottleneck equal those the reference gives each of its
// expanded duplicates.
func matchesReference(t *testing.T, label string, s *AllocState, caps []float64, flows []FlowDemand) {
	t.Helper()
	want := AllocateReference(referenceCaps(caps), expandWeights(flows))
	got := s.Allocate(caps, flows, nil)
	at := 0
	for i, f := range flows {
		for j := 0; j < max(f.Weight, 1); j++ {
			if got[i].Rate != want[at].Rate || got[i].Bottleneck != want[at].Bottleneck {
				t.Fatalf("%s: flow %d (unit %d of %d) got (rate %d, bottleneck %d), reference (rate %d, bottleneck %d)",
					label, i, j+1, max(f.Weight, 1), got[i].Rate, got[i].Bottleneck, want[at].Rate, want[at].Bottleneck)
			}
			at++
		}
	}
}

// chainCase draws an instance shaped like a scale-free topology's solve:
// each flow crosses its own run of 1–6 links no other flow crosses (in
// random id order, sometimes one repeated), plus up to three of a few
// links the flows share. Capacities are multiples of 10 Mb/s, three in
// four RTTs are 10 ms and demands are 0, 5, 10 or 20 Mb/s, so a
// single-flow link, a shared link (20 Mb/s over two flows) and a demand
// meet at one theta round after round — the ties the solver's one heap
// orders by theta, then link before demand, then id.
func chainCase(rng *rand.Rand, nFlows int) ([]float64, []FlowDemand) {
	caps := make([]float64, 2*tieTable) // room for 1 024 flows' private runs
	for i := range caps {
		caps[i] = math.NaN()
	}
	ids := rng.Perm(len(caps))
	next := func() int {
		l := ids[0]
		ids = ids[1:]
		caps[l] = float64(units.Bandwidth(10*(1+rng.Intn(4))) * units.Mbps)
		return l
	}
	shared := make([]int, nFlows/8+2)
	for i := range shared {
		shared[i] = next()
	}
	flows := make([]FlowDemand, nFlows)
	for i := range flows {
		var links []int
		for k := 1 + rng.Intn(6); k > 0; k-- {
			links = append(links, next())
		}
		for k := rng.Intn(4); k > 0; k-- {
			links = append(links, shared[rng.Intn(len(shared))])
		}
		if rng.Intn(8) == 0 {
			links = append(links, links[rng.Intn(len(links))])
		}
		rng.Shuffle(len(links), func(a, b int) { links[a], links[b] = links[b], links[a] })
		rtt := 10 * time.Millisecond
		if rng.Intn(4) == 0 {
			rtt = 20 * time.Millisecond
		}
		var demand units.Bandwidth
		if r := rng.Intn(4); r > 0 {
			demand = units.Bandwidth(5<<(r-1)) * units.Mbps
		}
		weight := 0
		if rng.Intn(8) == 0 {
			weight = 2
		}
		flows[i] = FlowDemand{ID: FlowID(i), Links: links, RTT: rtt, Demand: demand, Weight: weight}
	}
	return caps, flows
}

// TestAllocateTiesMatchReference holds the solver to the reference where
// the order in which equal constraints are taken decides the outcome, on
// one shared arena, from single flows up to 1 024 over the sparse table:
// tieCase's instances and chainCase's, whose single-flow links the heap
// keys through their flows.
func TestAllocateTiesMatchReference(t *testing.T) {
	var s AllocState
	rng := rand.New(rand.NewSource(38))
	for _, gen := range []struct {
		name string
		draw func(*rand.Rand, int) ([]float64, []FlowDemand)
	}{{"tie", tieCase}, {"chain", chainCase}} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144} {
			for iter := 0; iter < 20; iter++ {
				caps, flows := gen.draw(rng, n)
				matchesReference(t, fmt.Sprintf("%s N=%d #%d", gen.name, n, iter), &s, caps, flows)
			}
		}
		for _, n := range []int{256, 1024} {
			caps, flows := gen.draw(rng, n)
			matchesReference(t, fmt.Sprintf("%s N=%d", gen.name, n), &s, caps, flows)
		}
	}
}

// TestAllocateSelectionTies pins the heap's two tie rules on inputs where
// a second round decides (round 1 takes flow 0's 5 Mb/s link): a flow's
// single-flow link beats its own demand at an equal theta, and of a flow's
// single-flow links at one theta the one with the smaller id binds.
func TestAllocateSelectionTies(t *testing.T) {
	rtt := 10 * time.Millisecond
	first := FlowDemand{ID: 0, Links: []int{1}, RTT: rtt}
	for _, tc := range []struct {
		name string
		flow FlowDemand
	}{
		{"link before demand", FlowDemand{ID: 1, Links: []int{2}, RTT: rtt, Demand: 10 * units.Mbps}},
		{"single-flow links by id", FlowDemand{ID: 1, Links: []int{3, 2}, RTT: rtt}},
	} {
		caps := DenseCaps(map[int]units.Bandwidth{1: 5 * units.Mbps, 2: 10 * units.Mbps, 3: 10 * units.Mbps}, nil)
		var s AllocState
		matchesReference(t, tc.name, &s, caps, []FlowDemand{first, tc.flow})
		if got := s.Allocate(caps, []FlowDemand{first, tc.flow}, nil)[1].Bottleneck; got != 2 {
			t.Fatalf("%s: bottleneck %d, want link 2", tc.name, got)
		}
	}
}

// FuzzAllocateMatchesReference explores tieCase and chainCase beyond the
// seeded test: size picks 1–1 024 flows, and both generators draw from
// the seed.
func FuzzAllocateMatchesReference(f *testing.F) {
	for _, n := range []uint16{0, 7, 63, 1023} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		var s AllocState
		caps, flows := tieCase(rand.New(rand.NewSource(seed)), 1+int(size)%1024)
		matchesReference(t, "fuzz tie", &s, caps, flows)
		caps, flows = chainCase(rand.New(rand.NewSource(seed)), 1+int(size)%1024)
		matchesReference(t, "fuzz chain", &s, caps, flows)
	})
}
