package core

import (
	"fmt"
	"testing"

	"repro/internal/metadata"
	"repro/internal/obs"
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
// every size, and on weighted aggregate entries (Weight 1–8), whose
// per-underlying-flow loops are a separate path.
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
// BenchmarkIterateTraced runs the identical pass with the observability
// plane enabled (flight recorder + metrics registry): the CI bench job
// gates BenchmarkIterate at 0 allocs/op and the traced variant at ≤10%
// ns/op overhead (cmd/benchcheck -iterate).
func BenchmarkIterate(b *testing.B) { benchIterate(b, Options{}) }
func BenchmarkIterateTraced(b *testing.B) {
	benchIterate(b, Options{Tracer: obs.NewTracer(1 << 13), Registry: obs.NewRegistry()})
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
				rt.installPath(c, d.IP)
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
