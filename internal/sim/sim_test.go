package sim

import (
	"math"
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
	if !e.halted {
		t.Fatal("halted = false after Halt")
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
	follow := func(*packet.Packet) { e.After(0, func() {}) } // takes the fired root
	e.AtPacket(1, follow, p)
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
	// Replaced: the follow-up and the two re-arms. A line head with more
	// queued hands its root over in advance, not by a push; the line's
	// last event and the stopping tick schedule nothing.
	want := Stats{Scheduled: 8, Fired: 8, Stopped: 2, Rearmed: 2, Queued: 2, Replaced: 3, HeapPeak: 5}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestReentryPanics: Step, Run and RunAll called from a firing callback
// panic, whether or not the callback has scheduled anything yet, and the
// engine goes on once the callback returns.
func TestReentryPanics(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i, reenter := range []func(){
		func() { e.Step() },
		func() { e.Run(e.Now() + 1) },
		func() { e.Run(e.Now() - 1) }, // would fire nothing
		e.RunAll,
	} {
		i, reenter := i, reenter
		e.At(time.Duration(i), func() {
			fired++
			if i%2 == 1 {
				e.After(10, func() {}) // the held root is already handed on
			}
			defer func() {
				if r := recover(); r != "sim: Step re-entered from a callback" {
					t.Errorf("reentry %d: panic %v", i, r)
				}
			}()
			reenter()
		})
	}
	e.RunAll()
	if fired != 4 || e.Pending() != 0 || e.Stats().Fired != 6 {
		t.Fatalf("fired %d callbacks, %d events pending, stats %+v", fired, e.Pending(), e.Stats())
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

// TestBeforeMaskOrder pins the branch-free order to the plain reading of
// (at, seq): lexicographic, at signed, seq unsigned. before is defined
// through beforeMask, and the two are checked against each other too, on
// every pair of a set of boundary keys.
func TestBeforeMaskOrder(t *testing.T) {
	plain := func(a, b entry) bool {
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	}
	const bit63 = 1 << 63
	rows := []struct {
		name string
		a, b entry
		want bool
	}{
		{"equal at, lower seq", entry{at: 5, seq: 1}, entry{at: 5, seq: 2}, true},
		{"equal at, higher seq", entry{at: 5, seq: 2}, entry{at: 5, seq: 1}, false},
		{"equal keys", entry{at: 5, seq: 2}, entry{at: 5, seq: 2}, false},
		{"seq differs in bit 63 only", entry{at: 5, seq: 7}, entry{at: 5, seq: bit63 | 7}, true},
		{"seq differs in bit 63 only, reversed", entry{at: 5, seq: bit63 | 7}, entry{at: 5, seq: 7}, false},
		{"at 0 before MaxInt64", entry{at: 0, seq: math.MaxUint64}, entry{at: math.MaxInt64}, true},
		{"MaxInt64 after at 0", entry{at: math.MaxInt64}, entry{at: 0, seq: math.MaxUint64}, false},
		{"at MaxInt64, equal, seq decides", entry{at: math.MaxInt64, seq: 0}, entry{at: math.MaxInt64, seq: 1}, true},
		{"negative at before 0", entry{at: -1, seq: math.MaxUint64}, entry{at: 0}, true},
	}
	for _, r := range rows {
		if got := beforeMask(r.a, r.b) != 0; got != r.want || plain(r.a, r.b) != r.want {
			t.Errorf("%s: beforeMask says %v, plain order %v, want %v", r.name, got, plain(r.a, r.b), r.want)
		}
	}
	var keys []entry
	for _, at := range []time.Duration{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		for _, seq := range []uint64{0, 1, bit63 - 1, bit63, bit63 | 1, math.MaxUint64} {
			keys = append(keys, entry{at: at, seq: seq})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			m := beforeMask(a, b)
			if m != 0 && m != math.MaxUint64 {
				t.Fatalf("beforeMask(%+v, %+v) = %#x, want all ones or zero", a, b, m)
			}
			if (m != 0) != plain(a, b) || a.before(b) != (m != 0) {
				t.Fatalf("%+v vs %+v: mask %#x, before %v, plain order %v", a, b, m, a.before(b), plain(a, b))
			}
		}
	}
}

// TestEarliestOfFour: every arrangement of four keys, two of them tied on
// at, puts the earliest child's index out of the tournament.
func TestEarliestOfFour(t *testing.T) {
	keys := [4]entry{{at: 3, seq: 9}, {at: 3, seq: 4}, {at: 7, seq: 1}, {at: math.MaxInt64, seq: 0}}
	var permute func(k int, c [4]entry)
	permute = func(k int, c [4]entry) {
		if k == len(c) {
			want := 0
			for i := range c {
				if c[i] == keys[1] {
					want = i
				}
			}
			if got := earliest(&c); got != want {
				t.Errorf("earliest(%v) = %d, want %d", c, got, want)
			}
			return
		}
		for i := k; i < len(c); i++ {
			c[k], c[i] = c[i], c[k]
			permute(k+1, c)
			c[k], c[i] = c[i], c[k]
		}
	}
	permute(0, keys)
}
