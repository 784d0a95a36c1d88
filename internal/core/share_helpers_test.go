package core

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/units"
)

// DenseCaps converts a link-id-keyed capacity map into the dense table
// AllocState.Allocate consumes, appending into buf's storage. Absent ids
// become NaN (unconstrained).
func DenseCaps(capacities map[int]units.Bandwidth, buf []float64) []float64 {
	maxID := -1
	for id := range capacities {
		if id > maxID {
			maxID = id
		}
	}
	buf = grow(buf, maxID+1)
	nan := math.NaN()
	for i := range buf {
		buf[i] = nan
	}
	for id, c := range capacities {
		if id >= 0 {
			buf[id] = float64(c)
		}
	}
	return buf
}

// Allocate computes the RTT-aware min-max allocation for the given flows
// over links with the given capacities. Links not present in capacities
// are treated as unconstrained. The returned slice is ordered like flows.
//
// This is the tests' map-keyed convenience entry point; the emulation
// loop holds a persistent AllocState and calls its Allocate with a dense
// capacity table to stay allocation-free.
func Allocate(capacities map[int]units.Bandwidth, flows []FlowDemand) []Allocation {
	var s AllocState
	return s.Allocate(DenseCaps(capacities, nil), flows, nil)
}

// ShareOnLink computes the paper's closed-form single-link share for flow f
// among flows on one link: Share(f) = (RTT(f) · Σ 1/RTT(fi))⁻¹, as a
// fraction of the link capacity. The tests check Allocate, which
// generalizes it across whole paths, against it.
func ShareOnLink(f time.Duration, all []time.Duration) float64 {
	if f < minRTT {
		f = minRTT
	}
	var sum float64
	for _, r := range all {
		if r < minRTT {
			r = minRTT
		}
		sum += 1 / r.Seconds()
	}
	if sum == 0 {
		return 0
	}
	return 1 / (f.Seconds() * sum)
}

// SyntheticAllocation builds a deterministic allocator workload: nLinks
// capacitated links and nFlows flows crossing 2–5 of them with varied RTTs,
// about a third demand-capped. Shared by the microbenchmarks, the
// differential tests and TestAllocateAllocatesNothing so all of them
// measure the same input distribution.
func SyntheticAllocation(nFlows, nLinks int, seed int64) (map[int]units.Bandwidth, []FlowDemand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make(map[int]units.Bandwidth, nLinks)
	for l := 0; l < nLinks; l++ {
		caps[l] = units.Bandwidth(10+rng.Intn(990)) * units.Mbps
	}
	flows := make([]FlowDemand, nFlows)
	for i := range flows {
		k := 2 + rng.Intn(4)
		links := make([]int, k)
		for j := range links {
			links[j] = rng.Intn(nLinks)
		}
		var demand units.Bandwidth
		if rng.Intn(3) == 0 {
			demand = units.Bandwidth(1+rng.Intn(200)) * units.Mbps
		}
		flows[i] = FlowDemand{
			ID:     FlowID(i),
			Links:  links,
			RTT:    time.Duration(1+rng.Intn(200)) * time.Millisecond,
			Demand: demand,
		}
	}
	return caps, flows
}
