package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/units"
)

// Microbenchmarks of the §4.1 control-plane hot path. BenchmarkAllocate /
// BenchmarkAllocateReference measure the indexed solver against the
// seed's map-based one over identical inputs (SyntheticAllocation, also
// pinned equal by TestAllocateSyntheticMatchesReference). They are
// evidence for the solver layer only; TestAllocateAllocatesNothing holds
// the property the indexed form exists for on every `go test`.

var allocBenchSizes = []int{16, 64, 256, 1024}

// TestAllocateAllocatesNothing holds the indexed solver to 0 allocs/op
// once its arena has grown to the working set: on the benchmark inputs at
// every size, on weighted aggregate entries (Weight 1–8), whose
// per-underlying-flow loops are a separate path, on a many-round solve
// over shared links (sharedPathAllocation), which re-keys its heap every
// round, and on scalefree_flap's chain-shaped solve (flapSolveShape),
// greedy and demand-aware, whose flows key their single-flow links.
func TestAllocateAllocatesNothing(t *testing.T) {
	type input struct {
		name  string
		caps  []float64
		flows []FlowDemand
	}
	var inputs []input
	for _, n := range allocBenchSizes {
		capsMap, flows := SyntheticAllocation(n, n/2+8, 42)
		inputs = append(inputs, input{fmt.Sprintf("N=%d", n), DenseCaps(capsMap, nil), flows})
	}
	capsMap, flows := SyntheticAllocation(256, 136, 42)
	for i := range flows {
		flows[i].Weight = 1 + i%8
	}
	inputs = append(inputs, input{"weighted N=256", DenseCaps(capsMap, nil), flows})
	caps, flows := sharedPathAllocation(42)
	inputs = append(inputs, input{"10-link shared paths", caps, flows})
	for _, demands := range []bool{false, true} {
		caps, flows := flapSolveShape(42, demands)
		inputs = append(inputs, input{fmt.Sprintf("scalefree_flap-shaped demands=%v", demands), caps, flows})
	}

	for _, in := range inputs {
		var s AllocState
		out := s.Allocate(in.caps, in.flows, nil)
		allocs := testing.AllocsPerRun(100, func() {
			out = s.Allocate(in.caps, in.flows, out)
		})
		if allocs != 0 {
			t.Errorf("%s: Allocate made %v allocs/op on a warm arena, want 0", in.name, allocs)
		}
	}
}

// TestAllocateArenasGrowGeometrically solves 10, 11, …, 53 flows on one
// AllocState, a Manager's flow count climbing one flow per period: each
// arena, and the output, must reallocate a few times, not once per new
// maximum.
func TestAllocateArenasGrowGeometrically(t *testing.T) {
	capsMap, flows := SyntheticAllocation(53, 40, 42)
	caps := DenseCaps(capsMap, nil)
	var s AllocState
	var out []Allocation
	arenas := []struct {
		name string
		cap  func() int
	}{
		{"fl", func() int { return cap(s.fl) }},
		{"level", func() int { return cap(s.level) }},
		{"lk", func() int { return cap(s.lk) }},
		{"heap", func() int { return cap(s.heap.e) }},
		{"csr", func() int { return cap(s.csr) }},
		{"out", func() int { return cap(out) }},
	}
	grown := make([]int, len(arenas))
	last := make([]int, len(arenas))
	for n := 10; n <= len(flows); n++ {
		out = s.Allocate(caps, flows[:n], out)
		for i, a := range arenas {
			if c := a.cap(); c != last[i] {
				grown[i]++
				last[i] = c
			}
		}
	}
	for i, a := range arenas {
		if grown[i] > 4 {
			t.Errorf("%s: allocated %d times while the flow count climbed from 10 to %d, want at most 4", a.name, grown[i], len(flows))
		}
	}
}

// sharedPathAllocation is a many-round solve over mostly shared links: a
// sparse table of 4 096 links, of which the flows cross about 240, and 50
// demand-capped flows on 10-link paths, so nearly every flow freezes in a
// round of its own.
func sharedPathAllocation(seed int64) ([]float64, []FlowDemand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, 4096)
	for i := range caps {
		caps[i] = math.NaN()
	}
	used := make([]int, 240)
	for i := range used {
		used[i] = rng.Intn(len(caps))
		caps[used[i]] = float64(units.Bandwidth(10+rng.Intn(990)) * units.Mbps)
	}
	flows := make([]FlowDemand, 50)
	for i := range flows {
		links := make([]int, 10)
		for j := range links {
			links[j] = used[rng.Intn(len(used))]
		}
		flows[i] = FlowDemand{
			ID:     FlowID(i),
			Links:  links,
			RTT:    time.Duration(1+rng.Intn(200)) * time.Millisecond,
			Demand: units.Bandwidth(1+rng.Intn(200)) * units.Mbps,
		}
	}
	return caps, flows
}

// flapSolveShape is one scalefree_flap solve in shape: at seed 1 that
// workload's solve crosses about 235 links, 93 % of them single-flow,
// through 253 link→flow entries. Here 49 ping flows on a sparse table of
// 4 096 links each cross a run of 4–5 links no other flow crosses, and 18
// links are shared by two flows (seed 1: 239 links, 221 single-flow, 257
// entries). With demands, every flow is capped at the pings' 20 kb/s,
// far below any link's fill level.
func flapSolveShape(seed int64, demands bool) ([]float64, []FlowDemand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, 4096)
	for i := range caps {
		caps[i] = math.NaN()
	}
	ids := rng.Perm(len(caps))
	link := func() int {
		l := ids[0]
		ids = ids[1:]
		caps[l] = float64(units.Bandwidth(10+rng.Intn(990)) * units.Mbps)
		return l
	}
	flows := make([]FlowDemand, 49)
	for i := range flows {
		links := make([]int, 4+rng.Intn(2))
		for j := range links {
			links[j] = link()
		}
		flows[i] = FlowDemand{ID: FlowID(i), Links: links, RTT: time.Duration(1+rng.Intn(200)) * time.Millisecond}
		if demands {
			flows[i].Demand = 20 * units.Kbps
		}
	}
	for k := 0; k < 18; k++ {
		l, a := link(), rng.Intn(len(flows))
		b := (a + 1 + rng.Intn(len(flows)-1)) % len(flows)
		flows[a].Links = append(flows[a].Links, l)
		flows[b].Links = append(flows[b].Links, l)
	}
	return caps, flows
}

func BenchmarkAllocate(b *testing.B) {
	for _, n := range allocBenchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			capsMap, flows := SyntheticAllocation(n, n/2+8, 42)
			var s AllocState
			caps := DenseCaps(capsMap, nil)
			var out []Allocation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = s.Allocate(caps, flows, out)
			}
			_ = out
		})
	}
	for _, demands := range []bool{false, true} {
		name := "scalefree_flap/greedy"
		if demands {
			name = "scalefree_flap/demand-aware"
		}
		b.Run(name, func(b *testing.B) {
			caps, flows := flapSolveShape(1, demands)
			var s AllocState
			var out []Allocation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = s.Allocate(caps, flows, out)
			}
		})
	}
}

func BenchmarkAllocateReference(b *testing.B) {
	for _, n := range allocBenchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			capsMap, flows := SyntheticAllocation(n, n/2+8, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AllocateReference(capsMap, flows)
			}
		})
	}
}

// BenchmarkIterate measures one Emulation Manager loop pass — collect
// local state, merge the remote view, enforce — in the Table-4 regime:
// few local containers, a remote view carrying hundreds of flows. The
// view is static, so the entitlement pass comes from the memo and the
// demand-aware pass (its demands bind) is solved every time. Dissemination itself (pure transport) is excluded so the
// engine's event queue stays empty across b.N. Steady state must not
// allocate.
//
// BenchmarkIterateTraced runs the identical pass with the flight recorder
// enabled (both carry the deployment's metrics registry): the CI bench job
// gates BenchmarkIterate at 0 allocs/op and the traced variant at ≤10%
// ns/op overhead (cmd/benchcheck -iterate).
func BenchmarkIterate(b *testing.B) { benchIterate(b, Options{}) }
func BenchmarkIterateTraced(b *testing.B) {
	benchIterate(b, Options{Tracer: obs.NewTracer(1 << 13)})
}

func benchIterate(b *testing.B, opts Options) {
	const remoteFlows = 256
	rt := buildRuntime(b, fig8YAML, 2, opts)
	m := rt.managers[0]
	// Install every local→peer path so the collect scan walks a realistic
	// (idle) destination set.
	for _, c := range m.locals {
		for _, d := range rt.containers {
			if d != c {
				rt.point(c, d.IP)
			}
		}
	}
	// Feed the manager a peer report with remoteFlows entries over the
	// live link id space.
	nLinks := rt.State().Graph.NumLinks()
	msg := &metadata.Message{Host: 1}
	for i := 0; i < remoteFlows; i++ {
		msg.Flows = append(msg.Flows, metadata.FlowRecord{
			BPS: uint32(1_000_000 + i*7919),
			Links: []uint16{
				uint16(i % nLinks), uint16((i * 5) % nLinks), uint16((i * 11) % nLinks),
			},
		})
	}
	m.node.Receive(rt.Eng.Now(), newPeer(b, m).seal(msg))

	period := rt.opts.Period
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows := m.collectLocal(period)
		all := m.globalFlows(flows)
		m.enforce(flows, all)
	}
}
