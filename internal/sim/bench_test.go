package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
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

// BenchmarkRearm re-arms one event among depth-1 others, the RTO's
// pattern: a Timer by Stop and After into a fresh slot, a Standing by
// one At that re-keys its entry in place. Both draw the same keys, so
// they do the same reordering; the depths are BenchmarkEngineHold's.
func BenchmarkRearm(b *testing.B) {
	for _, depth := range []int{32, 900} {
		r := rand.New(rand.NewSource(1))
		keys := make([]time.Duration, 1<<12)
		for i := range keys {
			keys[i] = time.Duration(r.Int63n(int64(time.Second)))
		}
		// Each variant gets the same population.
		fill := func() *Engine {
			r := rand.New(rand.NewSource(2))
			e := NewEngine(1)
			for i := 0; i < depth-1; i++ {
				e.At(time.Duration(r.Int63n(int64(time.Second))), func() {})
			}
			return e
		}
		b.Run(fmt.Sprintf("timer/depth=%d", depth), func(b *testing.B) {
			e := fill()
			fn := func() {}
			tm := e.At(keys[0], fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Stop()
				tm = e.At(keys[i%len(keys)], fn)
			}
		})
		b.Run(fmt.Sprintf("standing/depth=%d", depth), func(b *testing.B) {
			e := fill()
			st := e.NewStanding(func() {})
			st.At(keys[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.At(keys[i%len(keys)])
			}
		})
	}
}

// BenchmarkLineIdle runs a delay line that empties and refills on every
// event, as most netem stages do: each op fires the line's only event,
// and its callback schedules the next one 10 µs on, behind 32 standing
// events.
func BenchmarkLineIdle(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 32; i++ {
		e.At(time.Hour+time.Duration(i), func() {})
	}
	var l Line
	l.Init(e, func(p *packet.Packet) { l.At(e.Now()+10*time.Microsecond, p) })
	l.At(0, &packet.Packet{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
