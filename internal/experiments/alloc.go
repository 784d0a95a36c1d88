// The allocator microbenchmark: the repo's first perf-gated experiment.
// Unlike the paper experiments in this package, it measures the
// reproduction's own control plane — the §4.1 RTT-aware min-max solver —
// rather than a published figure: the indexed allocation-free solver
// (core.AllocState) against the seed's map-based reference
// (core.AllocateReference) over identical synthetic workloads. The two
// solvers are proven bit-identical by core's differential tests, so the
// deltas here are pure representation cost.
//
// Results are written to BENCH_allocator.json; the committed copy is the
// baseline CI compares fresh runs against (cmd/benchcheck fails the build
// on a >2× allocs/op regression of the indexed solver).
package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// AllocBenchSizes are the flow counts the allocator is measured at.
var AllocBenchSizes = []int{16, 64, 256, 1024}

// AllocBenchEntry is one measured (solver, size) point.
type AllocBenchEntry struct {
	// Name matches the `go test -bench` id, e.g. "Allocate/N=256" or
	// "AllocateReference/N=256".
	Name        string  `json:"name"`
	Flows       int     `json:"flows"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// AllocBenchReport is the BENCH_allocator.json schema.
type AllocBenchReport struct {
	// Workload documents the input generator so baselines are only ever
	// compared against the same distribution.
	Workload string            `json:"workload"`
	Entries  []AllocBenchEntry `json:"entries"`
}

// RunAllocBench benchmarks the indexed solver against the seed reference
// at every size, writes the JSON report to path (skipped when path is
// empty) and returns the printable table with its speedup column.
func RunAllocBench(path string) (*Table, *AllocBenchReport, error) {
	report := &AllocBenchReport{
		Workload: "core.SyntheticAllocation(n, n/2+8, seed 42)",
	}
	table := &Table{
		Title:   "allocator: indexed solver vs seed reference (bit-identical outputs)",
		Columns: []string{"indexed ns/op", "ref ns/op", "speedup", "indexed allocs/op", "ref allocs/op"},
	}
	for _, n := range AllocBenchSizes {
		capsMap, flows := core.SyntheticAllocation(n, n/2+8, 42)
		caps := core.DenseCaps(capsMap, nil)

		var s core.AllocState
		var out []core.Allocation
		indexed := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = s.Allocate(caps, flows, out)
			}
		})
		ref := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.AllocateReference(capsMap, flows)
			}
		})

		report.Entries = append(report.Entries,
			AllocBenchEntry{
				Name: fmt.Sprintf("Allocate/N=%d", n), Flows: n,
				NsPerOp:    float64(indexed.NsPerOp()),
				BytesPerOp: indexed.AllocedBytesPerOp(), AllocsPerOp: indexed.AllocsPerOp(),
			},
			AllocBenchEntry{
				Name: fmt.Sprintf("AllocateReference/N=%d", n), Flows: n,
				NsPerOp:    float64(ref.NsPerOp()),
				BytesPerOp: ref.AllocedBytesPerOp(), AllocsPerOp: ref.AllocsPerOp(),
			})
		speedup := "n/a"
		if indexed.NsPerOp() > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(ref.NsPerOp())/float64(indexed.NsPerOp()))
		}
		table.Rows = append(table.Rows, Row{
			Label: fmt.Sprintf("N=%d flows", n),
			Values: []string{
				fmt.Sprintf("%d", indexed.NsPerOp()),
				fmt.Sprintf("%d", ref.NsPerOp()),
				speedup,
				fmt.Sprintf("%d", indexed.AllocsPerOp()),
				fmt.Sprintf("%d", ref.AllocsPerOp()),
			},
		})
	}
	return table, report, writeReport(path, report)
}
