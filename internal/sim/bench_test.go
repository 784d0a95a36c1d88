package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEngineHold runs the classic hold model: each op pops the
// earliest event, whose callback schedules a successor a random gap
// later, so the queue keeps its depth. Gaps are exponential on a 10 µs
// grid, so many events share an instant and the seq half of the order
// is exercised. The depths are the mean heap lengths of the ledger's
// tcp_throttle (32) and cbr_mesh64 (900) workloads.
func BenchmarkEngineHold(b *testing.B) {
	const grid = 10 * time.Microsecond
	for _, depth := range []int{32, 900} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			gaps := make([]time.Duration, 1<<12)
			for i := range gaps {
				gaps[i] = grid * time.Duration(r.ExpFloat64()*float64(depth)/4)
			}
			e := NewEngine(1)
			k := 0
			var hold func()
			hold = func() {
				e.At(e.Now()+gaps[k%len(gaps)], hold)
				k++
			}
			for i := 0; i < depth; i++ {
				hold()
			}
			if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
				b.Fatalf("hold: %v allocs/op, want 0", got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			if e.Pending() != depth {
				b.Fatalf("Pending = %d after the run, want %d", e.Pending(), depth)
			}
		})
	}
}
