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
// pinned equal by TestAllocateSyntheticMatchesReference); kollaps-bench
// -exp alloc runs the same pair via testing.Benchmark and records the
// before/after trajectory in BENCH_allocator.json, which the CI bench job
// gates with cmd/benchcheck.

var allocBenchSizes = []int{16, 64, 256, 1024}

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
