package sim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func TestOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.After(5*time.Millisecond, func() {
		at = e.Now()
		e.After(7*time.Millisecond, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10*time.Millisecond, func() { fired++ })
	e.At(20*time.Millisecond, func() { fired++ })
	e.At(30*time.Millisecond, func() { fired++ })
	e.Run(20 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at exactly the bound must run)", fired)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	e.Run(time.Second)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestRunAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.Run(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(time.Millisecond, func() { fired = true })
	tm.Stop()
	tm.Stop() // double-stop is fine
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	var tm Timer
	tm = e.Every(10*time.Millisecond, func() {
		times = append(times, e.Now())
		if len(times) == 3 {
			tm.Stop()
		}
	})
	e.Run(time.Second)
	if len(times) != 3 {
		t.Fatalf("ticks = %d, want 3", len(times))
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tm := e.Every(time.Millisecond, func() { n++ })
	tm.Stop()
	e.Run(10 * time.Millisecond)
	if n != 0 {
		t.Fatalf("stopped periodic timer ticked %d times", n)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Every(time.Millisecond, func() {
		n++
		if n == 5 {
			e.Halt()
		}
	})
	e.Run(time.Second)
	if n != 5 {
		t.Fatalf("ticks after halt: %d, want 5", n)
	}
	if !e.Halted() {
		t.Fatal("Halted() = false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5*time.Millisecond, func() {})
	})
	e.RunAll()
}

func TestPending(t *testing.T) {
	e := NewEngine(1)
	t1 := e.After(time.Millisecond, func() {})
	e.After(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var out []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.After(d, func() { out = append(out, int64(e.Now()), e.Rand().Int63n(1<<30)) })
		}
		e.RunAll()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of the (non-negative) delays scheduled, observed
	// event times are non-decreasing.
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []time.Duration
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() { seen = append(seen, e.Now()) })
		}
		e.RunAll()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStatsCountsOperations scripts every kind of operation and checks
// each counter exactly.
func TestStatsCountsOperations(t *testing.T) {
	e := NewEngine(1)
	p := &packet.Packet{}
	var l Line
	l.Init(e, func(*packet.Packet) {})
	stopped := e.After(5, func() {})
	e.AtPacket(1, func(*packet.Packet) {}, p)
	l.At(2, p) // the line's head: into the heap
	l.At(2, p) // queued behind it
	l.At(3, p) // queued
	ticks := 0
	var tick Timer
	tick = e.Every(1, func() { // ticks at 1, 2, 3; stops itself in the last
		if ticks++; ticks == 3 {
			tick.Stop()
		}
	})
	e.After(10, func() {}).Stop() // the heap's peak: 5 entries
	stopped.Stop()
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5 (3 in the heap, 2 behind the line head)", got)
	}
	e.RunAll()
	want := Stats{Scheduled: 7, Fired: 7, Stopped: 2, Rearmed: 2, Queued: 2, HeapPeak: 5}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestLineRejectsEarlierEvents(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	e := NewEngine(1)
	var l Line
	l.Init(e, func(*packet.Packet) {})
	l.At(5, &packet.Packet{})
	mustPanic("before the line's previous event", func() { l.At(4, &packet.Packet{}) })
	e.Run(7)
	mustPanic("before now", func() { l.At(6, &packet.Packet{}) })
}
