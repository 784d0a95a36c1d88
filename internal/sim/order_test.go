package sim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/packet"
)

// sched is the engine surface the order tests drive, with cancellation
// reduced to a stop func so the engine and the reference share a script.
type sched interface {
	Now() time.Duration
	At(at time.Duration, fn func()) (stop func())
	After(d time.Duration, fn func()) (stop func())
	AtPacket(at time.Duration, fn func()) (stop func())
	Every(period time.Duration, fn func()) (stop func())
	// Line schedules fn on delay line k at a time the caller keeps
	// non-decreasing per line; released hands the event a packet that is
	// already back in its pool.
	Line(k int, at time.Duration, released bool, fn func())
	// Standing returns an idle standing event that fires fn.
	Standing(fn func()) standingEvent
	Step() bool
	Run(until time.Duration)
	Halt()
	Pending() int
}

// standingEvent is a Standing's surface: Engine's *Standing, or the
// reference's model of it.
type standingEvent interface {
	At(at time.Duration)
	Stop()
	Free()
}

// numLines is how many delay lines a script can address, and
// numStandings how many standing events.
const (
	numLines     = 2
	numStandings = 2
)

type realSched struct {
	*Engine
	lines  [numLines]Line
	queued [numLines][]lineEvent // each line's events, in scheduling order
}

type lineEvent struct {
	p  *packet.Packet
	fn func()
}

func newRealSched(e *Engine) *realSched {
	r := &realSched{Engine: e}
	for k := range r.lines {
		k := k
		r.lines[k].Init(e, func(got *packet.Packet) {
			ev := r.queued[k][0]
			r.queued[k] = r.queued[k][1:]
			if got != ev.p {
				panic("sim: Line fired out of order")
			}
			ev.fn()
		})
	}
	return r
}

func (r *realSched) At(at time.Duration, fn func()) func()   { return r.Engine.At(at, fn).Stop }
func (r *realSched) After(d time.Duration, fn func()) func() { return r.Engine.After(d, fn).Stop }
func (r *realSched) Every(p time.Duration, fn func()) func() {
	return r.Engine.Every(p, fn).Stop
}
func (r *realSched) Line(k int, at time.Duration, released bool, fn func()) {
	p := &packet.Packet{}
	if released { // a pool of its own, so no later Get revives it
		p = new(packet.Pool).Get()
		p.Release()
	}
	r.queued[k] = append(r.queued[k], lineEvent{p, fn})
	r.lines[k].At(at, p)
}
func (r *realSched) Standing(fn func()) standingEvent {
	s := r.Engine.NewStanding(fn)
	return &s
}
func (r *realSched) AtPacket(at time.Duration, fn func()) func() {
	want := &packet.Packet{}
	return r.Engine.AtPacket(at, func(got *packet.Packet) {
		if got != want {
			panic("sim: AtPacket delivered a different packet")
		}
		fn()
	}, want).Stop
}

// refSched is the specification: pending events in a plain list, the next
// one found by sorting on (at, seq), cancellation by linear scan.
type refSched struct {
	now     time.Duration
	seq     uint64
	pending []*refEvent
	halted  bool
}

type refEvent struct {
	at, period time.Duration
	seq        uint64
	fn         func()
	dead       bool
}

func (r *refSched) Now() time.Duration { return r.now }
func (r *refSched) Pending() int       { return len(r.pending) }
func (r *refSched) Halt()              { r.halted = true }
func (r *refSched) push(ev *refEvent, at time.Duration) {
	ev.at, ev.seq = at, r.seq
	r.seq++
	r.pending = append(r.pending, ev)
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
}
func (r *refSched) add(at, period time.Duration, fn func()) func() {
	ev := &refEvent{period: period, fn: fn}
	r.push(ev, at)
	return func() {
		ev.dead = true
		for i, p := range r.pending {
			if p == ev {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
			}
		}
	}
}
func (r *refSched) At(at time.Duration, fn func()) func()       { return r.add(at, 0, fn) }
func (r *refSched) After(d time.Duration, fn func()) func()     { return r.add(r.now+d, 0, fn) }
func (r *refSched) AtPacket(at time.Duration, fn func()) func() { return r.add(at, 0, fn) }
func (r *refSched) Every(p time.Duration, fn func()) func()     { return r.add(r.now+p, p, fn) }

// Line is AtPacket: a line changes where events wait, never their order.
func (r *refSched) Line(_ int, at time.Duration, released bool, fn func()) {
	if released {
		fn = func() { panic(releasedLinePanic) }
	}
	r.add(at, 0, fn)
}

// Standing is a one-shot re-added on every At: a re-key is a stop and a
// fresh schedule.
func (r *refSched) Standing(fn func()) standingEvent { return &refStanding{r: r, fn: fn} }

type refStanding struct {
	r    *refSched
	fn   func()
	stop func() // non-nil while pending
}

func (s *refStanding) At(at time.Duration) {
	s.Stop()
	s.stop = s.r.add(at, 0, func() {
		s.stop = nil
		s.fn()
	})
}
func (s *refStanding) Stop() {
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}
func (s *refStanding) Free() { s.Stop() }

// releasedLinePanic is what firing a line event on a released packet
// panics with.
const releasedLinePanic = "packet: sim: Line firing of a released packet"

func (r *refSched) Step() bool {
	if len(r.pending) == 0 || r.halted {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	ev.fn()
	if ev.period > 0 && !ev.dead && !r.halted {
		r.push(ev, r.now+ev.period)
	}
	return true
}
func (r *refSched) Run(until time.Duration) {
	for len(r.pending) > 0 && r.pending[0].at <= until && r.Step() {
	}
	if !r.halted && r.now < until {
		r.now = until
	}
}

// Script opcodes. A script is (opcode, argument) byte pairs. The driver
// executes pairs in order; every callback that fires consumes the next pair
// as its own action (so the pairs after an opRun belong to the callbacks
// that Run fires, in firing order, and the driver resumes after them).
// Firing order thus decides who does what, and any divergence between two
// schedulers snowballs into the log.
const (
	opAt       = iota // At(now + arg%8); arg%8 == 0 fires in the current instant
	opAfter           // After(arg%8)
	opEvery           // Every(1 + arg%4)
	opStop            // Stop timer number arg%len: pending, fired, or reused slot
	opStep            // driver: Step — callback: stop own timer, then opAt into the freed slot
	opRun             // driver: Run(now + arg%16) — callback: stop own timer
	opAtPacket        // the typed entry point
	opHalt            // Halt when arg < 32, else nothing
	opLine            // line arg/8%2 at max(now + arg%8, its last); arg >= 240: on a released packet
	opStanding        // standing arg/8%2, created on first use: arg/16%4 is 0 or 1: At(now + arg%8); 2: Stop; 3: Free
	numOps

	nop = 255 // with opHalt: a callback that does nothing
)

type rec struct {
	what    string
	id      int
	now     time.Duration
	pending int
}

type interp struct {
	s         sched
	prog      []byte
	stops     []func()
	lineLast  [numLines]time.Duration
	standings [numStandings]standingEvent // nil until used, and after Free
	log       []rec
}

func (in *interp) note(what string, id int) {
	in.log = append(in.log, rec{what, id, in.s.Now(), in.s.Pending()})
}

func (in *interp) next() (op, arg byte, ok bool) {
	if len(in.prog) < 2 {
		return 0, 0, false
	}
	op, arg, in.prog = in.prog[0]%numOps, in.prog[1], in.prog[2:]
	return op, arg, true
}

// do executes one pair; self is the firing callback's timer, -1 at top level.
func (in *interp) do(op, arg byte, self int) {
	id := len(in.stops)
	cb := func() {
		in.note("fire", id)
		if op, arg, ok := in.next(); ok {
			in.do(op, arg, id)
		}
	}
	switch op {
	case opStep:
		if self < 0 {
			in.s.Step()
			break
		}
		in.stops[self]()
		fallthrough
	case opAt:
		in.stops = append(in.stops, in.s.At(in.s.Now()+time.Duration(arg%8), cb))
	case opAfter:
		in.stops = append(in.stops, in.s.After(time.Duration(arg%8), cb))
	case opAtPacket:
		in.stops = append(in.stops, in.s.AtPacket(in.s.Now()+time.Duration(arg%8), cb))
	case opEvery:
		in.stops = append(in.stops, in.s.Every(time.Duration(1+arg%4), cb))
	case opStop:
		if len(in.stops) > 0 {
			in.stops[int(arg)%len(in.stops)]()
		}
	case opRun:
		if self >= 0 {
			in.stops[self]()
		} else {
			in.s.Run(in.s.Now() + time.Duration(arg%16))
		}
	case opHalt:
		if arg < 32 {
			in.s.Halt()
		}
	case opLine:
		k := int(arg/8) % numLines
		at := max(in.s.Now()+time.Duration(arg%8), in.lineLast[k])
		in.lineLast[k] = at
		in.s.Line(k, at, arg >= 240, cb)
		in.stops = append(in.stops, func() {}) // line events cannot be stopped
	case opStanding:
		k := int(arg/8) % numStandings
		st := in.standings[k]
		if st == nil {
			// One timer number for the event's life: its fires log it,
			// and opStop on it is its Stop.
			id := len(in.stops)
			st = in.s.Standing(func() {
				in.note("fire", id)
				if op, arg, ok := in.next(); ok {
					in.do(op, arg, id)
				}
			})
			in.standings[k] = st
			in.stops = append(in.stops, st.Stop)
		}
		switch arg / 16 % 4 {
		case 0, 1:
			st.At(in.s.Now() + time.Duration(arg%8))
		case 2:
			st.Stop()
		case 3:
			st.Free()
			in.standings[k] = nil
		}
	}
}

// runScript drives s through prog and then a final bounded Run, so armed
// periodic timers keep ticking while the script's tail feeds callbacks. A
// panic ends the log with its message.
func runScript(s sched, prog []byte) (log []rec) {
	in := &interp{s: s, prog: prog}
	defer func() {
		if r := recover(); r != nil {
			in.note(fmt.Sprint("panic: ", r), 0)
			log = in.log
		}
	}()
	for {
		op, arg, ok := in.next()
		if !ok {
			break
		}
		in.do(op, arg, -1)
		in.note("op", int(op))
	}
	s.Run(s.Now() + 64)
	in.note("end", 0)
	return in.log
}

func checkScript(t *testing.T, prog []byte) {
	t.Helper()
	eng := NewEngine(1)
	got := runScript(newRealSched(eng), prog)
	want := runScript(&refSched{}, prog)
	// Every event scheduled or re-armed has fired, been stopped, or waits.
	st := eng.Stats()
	if st.Scheduled+st.Rearmed != st.Fired+st.Stopped+int64(eng.Pending()) {
		t.Fatalf("script %v: stats %+v do not account for %d pending", prog, st, eng.Pending())
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("script %v: record %d: engine %+v, reference %+v", prog, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %v: engine logged %d records, reference %d", prog, len(got), len(want))
	}
}

// orderSeeds are the scenarios the ISSUE names, one script each; they are
// also the committed fuzz corpus. Timer numbers are creation order from 0.
var orderSeeds = [][]byte{
	// Stop before fire, then twice more, once after its time has passed.
	{opAt, 3, opStop, 0, opStop, 0, opRun, 8, opStop, 0},
	// Stop after fire, from the driver.
	{opAfter, 1, opRun, 2, opHalt, nop, opStop, 0},
	// Stop from inside the firing callback (one-shot: nothing to stop).
	{opAt, 1, opRun, 4, opRun, 0},
	// Stop on a timer whose slot has been reused: 0 fires, 1 takes its
	// slot, stopping 0 must leave 1 pending and firing.
	{opAt, 1, opRun, 1, opHalt, nop, opAt, 5, opStop, 0, opRun, 8},
	// The first of two events at one instant stops the second.
	{opAt, 2, opAt, 2, opRun, 4, opStop, 1},
	// Every stopped from its own callback on the third tick.
	{opEvery, 1, opRun, 15, opHalt, nop, opHalt, nop, opRun, 0},
	// Every stopped from its own callback, which then schedules into the
	// slot it just gave up: the series must not re-arm over the newcomer.
	{opEvery, 0, opRun, 9, opStep, 2, opHalt, nop},
	// Every stopped before its first tick; Every stopped from another
	// timer's callback.
	{opEvery, 2, opEvery, 0, opStop, 1, opAt, 2, opRun, 6, opStop, 0},
	// Zero-delay self-rescheduling: each firing schedules the next at now.
	{opAt, 0, opRun, 0, opAfter, 0, opAtPacket, 0, opAt, 0, opHalt, nop},
	// Halt mid-run from a callback with events left behind; scheduling,
	// stepping and running afterwards fire nothing and leave the clock.
	{opEvery, 0, opAt, 2, opAt, 2, opAt, 1, opRun, 12, opHalt, nop, opHalt, 0, opAt, 1, opStep, 0},
	// Halt from inside an Every tick drops the series.
	{opEvery, 0, opRun, 3, opHalt, 0},
	// Run(until) boundaries: the event exactly at until runs and the one
	// after does not; Run(now) runs what is queued for the current instant;
	// an empty Run still moves the clock.
	{opAt, 4, opAt, 5, opRun, 4, opHalt, nop, opAt, 0, opRun, 0, opHalt, nop, opRun, 3, opHalt, nop, opRun, 15},
	// Ties at one instant fire in scheduling order across all three entry
	// points, and removals from the middle of the heap keep the rest.
	{opAt, 2, opAtPacket, 2, opEvery, 1, opAfter, 2, opAt, 1, opAt, 7, opAt, 6, opStop, 3, opStop, 5, opRun, 9},
	// Ties at one instant between line heads, queued line events and At
	// events; callbacks add more at the same instant, behind a line head
	// and on the other line.
	{opLine, 2, opAt, 2, opLine, 2, opAtPacket, 2, opLine, 10, opAt, 2, opRun, 4, opLine, 0, opAt, 0, opLine, 8, opHalt, nop},
	// A line drains and gives its slot up; the At timer firing next frees
	// another; the refilled line takes that one, and the At's stale timer
	// must not touch the new head.
	{opLine, 1, opAt, 1, opRun, 1, opHalt, nop, opHalt, nop, opLine, 2, opLine, 3, opStop, 1, opRun, 8},
	// Halt from a line head's callback with events queued behind it and on
	// the other line; scheduling on the line afterwards still counts.
	{opLine, 1, opLine, 1, opLine, 3, opLine, 9, opRun, 8, opHalt, 0, opLine, 1, opStep, 0},
	// A queued line event whose packet was released panics when it fires.
	{opLine, 1, opLine, 241, opLine, 2, opRun, 4, opHalt, nop},

	// The rest hold a fired root for its callback's first schedule.
	// Pending and Stats read inside callbacks of every kind: one-shots
	// that schedule and ones that do not, an idle line, a line head with
	// an event queued behind it, an Every tick that schedules before its
	// re-arm (TestStatsAccountInsideCallbacks reads Stats at each note).
	{opAt, 1, opAtPacket, 1, opLine, 1, opEvery, 0, opLine, 9, opLine, 9, opRun, 3,
		opAt, 1, opHalt, nop, opLine, 1, opAfter, 0, opHalt, nop, opHalt, nop, opAtPacket, 0, opHalt, nop},
	// Stops of other pending timers, children of the held root among
	// them, before the first schedule: an Every tick stops one and then
	// re-arms into the root; one-shots stop one and schedule nothing.
	{opEvery, 0, opAt, 2, opAt, 3, opAtPacket, 2, opAt, 4, opAt, 5, opAt, 6, opAt, 7, opRun, 1,
		opStop, 2, opRun, 2, opStop, 5, opStop, 4, opStop, 7, opStop, 6, opRun, 8},
	// An Every stops itself and then schedules into the slot it gave up,
	// with same-instant events behind it; the stale handle, stopped
	// afterwards, must spare the newcomer.
	{opEvery, 0, opAt, 1, opAtPacket, 1, opAt, 3, opRun, 1, opStep, 1, opHalt, nop, opHalt, nop,
		opStop, 0, opRun, 4, opHalt, nop, opHalt, nop},
	// Callbacks that schedule nothing, of every kind, over a heap two
	// levels deep; an Every tick stops its own series and is not re-armed.
	{opAt, 1, opAtPacket, 1, opLine, 1, opEvery, 0, opAt, 2, opAt, 3, opAt, 4, opAt, 5, opAt, 6,
		opRun, 2, opHalt, nop, opHalt, nop, opHalt, nop, opHalt, nop, opHalt, nop, opRun, 0, opRun, 8},
	// Halt from an idle line's callback while its root is held, with
	// events left behind; scheduling afterwards, on the line too, counts.
	{opLine, 1, opAt, 1, opAtPacket, 1, opAt, 3, opRun, 4, opHalt, 0, opAt, 0, opLine, 2, opStep, 0, opRun, 3},
	// Idle lines whose callbacks re-arm the same line, later and in the
	// current instant, and one that lets its line go idle.
	{opLine, 1, opAt, 2, opLine, 9, opRun, 6, opLine, 1, opLine, 8, opLine, 9, opHalt, nop,
		opLine, 0, opHalt, nop, opHalt, nop},
	// Several same-instant schedules from one firing: an Every tick
	// schedules at its re-arm's instant and then in the current one, so
	// the newcomer takes the root and the re-arm ties behind it.
	{opEvery, 0, opAt, 2, opRun, 1, opAt, 1, opRun, 2, opAtPacket, 1, opHalt, nop, opAfter, 0,
		opLine, 1, opHalt, nop, opHalt, nop},

	// Standing events (arg: delay arg%8, event arg/8%2, then +32 Stop,
	// +48 Free). At on an idle event, then re-keys of the pending one
	// earlier and later; the last re-key ties with an At scheduled after
	// it and fires first.
	{opStanding, 3, opAt, 3, opStanding, 1, opStanding, 5, opAt, 5, opRun, 8, opHalt, nop, opHalt, nop, opHalt, nop},
	// Stop of a pending event, by the event and by its timer number, each
	// followed by a new At; Free of a pending event; the next use creates
	// a fresh event in the freed slot.
	{opStanding, 2, opStanding, 32, opStanding, 2, opStop, 0, opStanding, 4, opStanding, 48,
		opStanding, 1, opStop, 0, opRun, 8, opHalt, nop},
	// Re-arm from the event's own callback, which takes the held root,
	// then Free from it; a one-shot takes the freed slot and a new
	// standing event arms in the same instant.
	{opStanding, 1, opAt, 1, opRun, 6, opStanding, 2, opHalt, nop, opStanding, 48,
		opAt, 0, opStanding, 8, opRun, 2, opHalt, nop, opHalt, nop},
	// One standing event's callback re-keys the other, which is pending
	// deeper in the heap, while an idle line's head waits at the same
	// instant; the re-keyed one stops the first (idle, so nothing) and
	// re-arms itself in the current instant.
	{opStanding, 1, opStanding, 12, opLine, 1, opAt, 2, opAt, 4, opAt, 6, opAt, 7, opRun, 8,
		opStanding, 10, opHalt, nop, opStanding, 32, opHalt, nop, opStanding, 8, opStanding, 40, opHalt, nop},
	// Re-keys across a heap two levels deep, both up and down, Stop of a
	// one-shot beside them, and an Every ticking through; both events
	// are freed from the driver at the end, one pending, one idle.
	{opAt, 1, opAt, 2, opAt, 3, opAt, 4, opAt, 5, opAt, 6, opAt, 7, opEvery, 1, opStanding, 7,
		opStanding, 0, opStanding, 14, opStanding, 8, opStop, 3, opStanding, 6, opRun, 4,
		opHalt, nop, opStanding, 15, opHalt, nop, opHalt, nop, opHalt, nop, opStanding, 58, opStanding, 48},
}

func TestEngineOrderScenarios(t *testing.T) {
	for _, prog := range orderSeeds {
		checkScript(t, prog)
	}
}

// auditSched is a realSched whose every Pending read also checks that
// Stats accounts for the count, so the check runs inside firing callbacks
// as well as between them.
type auditSched struct {
	*realSched
	t *testing.T
}

func (a auditSched) Pending() int {
	n := a.realSched.Pending()
	if st := a.Stats(); st.Scheduled+st.Rearmed != st.Fired+st.Stopped+int64(n) {
		a.t.Fatalf("at %v: stats %+v do not account for %d pending", a.Now(), st, n)
	}
	return n
}

// TestStatsAccountInsideCallbacks: on every scenario, Stats read at each
// record, inside firing callbacks too (while a fired root is held),
// accounts for Pending. TestEngineOrderScenarios compares the records
// themselves with the reference.
func TestStatsAccountInsideCallbacks(t *testing.T) {
	for _, prog := range orderSeeds {
		runScript(auditSched{newRealSched(NewEngine(1)), t}, prog)
	}
}

// TestEngineMatchesReference runs random scripts long enough to grow the
// heap several levels deep and churn the free list.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(8+r.Intn(400)))
		r.Read(prog)
		checkScript(t, prog)
	}
}

// TestDeepQueueMatchesReference holds the heap deeper than the scripts
// above ever grow it (they peak near 28 entries, three levels): at least
// 1 000 events pending, as on the ledger's broadcast mesh, on a coarse
// grid so that most instants hold several events and the seq half of the
// order decides. Every series, stops from the driver and from callbacks,
// and both delay lines ride along; fire order, clock and Pending must
// match the reference at every firing.
func TestDeepQueueMatchesReference(t *testing.T) {
	const (
		grid   = 10   // ns between the instants an event may land on
		spread = 64   // instants ahead of now a new event may land
		fill   = 1200 // events scheduled before the first Run
		budget = 9000 // events scheduled in all; then the queue drains
		rounds = 40
	)
	run := func(s sched) (log []rec, peak int) {
		r := rand.New(rand.NewSource(1))
		var stops []func()
		var lineLast [numLines]time.Duration
		scheduled := 0
		var add func()
		add = func() {
			id := len(stops)
			cb := func() {
				log = append(log, rec{"fire", id, s.Now(), s.Pending()})
				peak = max(peak, s.Pending())
				if r.Intn(8) == 0 {
					stops[r.Intn(len(stops))]()
				}
				if scheduled < budget {
					add()
				}
			}
			scheduled++
			at := s.Now() + grid*time.Duration(r.Intn(spread))
			switch x := r.Intn(64); {
			case x == 0:
				stops = append(stops, s.Every(grid*time.Duration(1+r.Intn(spread/4)), cb))
			case x < 6:
				k := x % numLines
				at = max(at, lineLast[k])
				lineLast[k] = at
				s.Line(k, at, false, cb)
				stops = append(stops, func() {})
			case x < 24:
				stops = append(stops, s.AtPacket(at, cb))
			default:
				stops = append(stops, s.At(at, cb))
			}
		}
		for i := 0; i < fill; i++ {
			add()
		}
		peak = s.Pending()
		for i := 0; i < rounds; i++ {
			s.Run(s.Now() + grid*spread/4)
			log = append(log, rec{"round", i, s.Now(), s.Pending()})
			for j := 0; j < 8; j++ {
				stops[r.Intn(len(stops))]()
			}
		}
		for _, stop := range stops { // ends the Every series
			stop()
		}
		s.Run(s.Now() + 2*grid*spread)
		log = append(log, rec{"end", 0, s.Now(), s.Pending()})
		return log, peak
	}
	eng := NewEngine(1)
	got, peak := run(newRealSched(eng))
	want, refPeak := run(&refSched{})
	if st := eng.Stats(); st.HeapPeak < 1000 || peak < 1000 {
		t.Fatalf("heap peaked at %d entries, Pending at %d; the test needs at least 1 000", st.HeapPeak, peak)
	}
	if peak != refPeak {
		t.Fatalf("Pending peaked at %d, reference at %d", peak, refPeak)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("record %d: engine %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine logged %d records, reference %d", len(got), len(want))
	}
	if last := got[len(got)-1]; last.pending != 0 {
		t.Fatalf("%d events still pending after the drain", last.pending)
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, prog := range orderSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 { // the reference sorts per push; keep executions fast
			t.Skip()
		}
		checkScript(t, prog)
	})
}

// TestWriteOrderFuzzCorpus pins the committed corpus under
// testdata/fuzz/FuzzEngineOrder/ to orderSeeds, like core's and dissem's
// corpus guards; WRITE_FUZZ_CORPUS=1 regenerates it.
func TestWriteOrderFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEngineOrder")
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	for i, prog := range orderSeeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(prog)) + ")\n"
		if write {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing committed corpus file %s (regenerate with WRITE_FUZZ_CORPUS=1): %v", name, err)
		}
		if string(got) != content {
			t.Errorf("%s is stale vs orderSeeds (regenerate with WRITE_FUZZ_CORPUS=1)", name)
		}
	}
}

// TestRekeyKeepsOneSlot: re-keying a pending standing event, the RTO's
// pattern, keeps one heap entry and one slot and counts a stop and a
// schedule per re-key; Free hands the slot to the next one-shot.
func TestRekeyKeepsOneSlot(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	st := e.NewStanding(func() { fired++ })
	for i := 0; i < 1000; i++ {
		st.At(200*time.Millisecond + time.Duration(i%7))
	}
	if e.Pending() != 1 || len(e.heap) != 1 || len(e.slots) != 1 {
		t.Fatalf("Pending=%d heap=%d slots=%d after 1000 re-keys, want 1 each", e.Pending(), len(e.heap), len(e.slots))
	}
	if s := e.Stats(); s.Scheduled != 1000 || s.Stopped != 999 {
		t.Fatalf("stats %+v, want 1000 scheduled and 999 stopped", s)
	}
	e.RunAll()
	if fired != 1 || e.Now() != 200*time.Millisecond+time.Duration(999%7) || st.Pending() {
		t.Fatalf("fired %d times at %v (pending %v), want once at the last key", fired, e.Now(), st.Pending())
	}
	st.At(e.Now() + 1)
	id := st.slot
	st.Free()
	st.Stop()
	st.Free()
	tm := e.After(1, func() {})
	if e.Pending() != 1 || len(e.slots) != 1 || tm.slot != id {
		t.Fatalf("Pending=%d slots=%d: Free did not stop the event and return its slot", e.Pending(), len(e.slots))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At after Free did not panic")
		}
	}()
	st.At(e.Now() + 1)
}

// TestLineKeepsItsSlot: a line that goes idle and is refilled, from the
// driver or from its own callback, reuses the one slot it took at Init.
func TestLineKeepsItsSlot(t *testing.T) {
	e := NewEngine(1)
	p := &packet.Packet{}
	var l Line
	refills := 0
	l.Init(e, func(p *packet.Packet) {
		if refills < 100 {
			refills++
			l.At(e.Now()+time.Microsecond, p)
		}
	})
	for i := 0; i < 10; i++ {
		l.At(e.Now()+time.Millisecond, p)
		e.RunAll()
	}
	if len(e.slots) != 1 || len(e.free) != 0 || e.Pending() != 0 || refills != 100 {
		t.Fatalf("slots=%d free=%d Pending=%d refills=%d, want one slot kept, nothing pending", len(e.slots), len(e.free), e.Pending(), refills)
	}
	if s := e.Stats(); s.Scheduled != 110 || s.Fired != 110 {
		t.Fatalf("stats %+v, want 110 scheduled and fired", s)
	}
}

// TestStaleTimerSparesSlotReuser pins the generation check directly: the
// second timer provably occupies the first one's slot.
func TestStaleTimerSparesSlotReuser(t *testing.T) {
	e := NewEngine(1)
	first := e.After(1, func() {})
	e.RunAll()
	fired := false
	second := e.After(1, func() { fired = true })
	if first.slot != second.slot || first.gen == second.gen {
		t.Fatalf("slot not recycled under a new generation: %+v then %+v", first, second)
	}
	first.Stop()
	e.RunAll()
	if !fired {
		t.Fatal("stopping a fired timer cancelled the event that reused its slot")
	}
	var zero Timer
	zero.Stop()
}

// TestStopRemovesEagerly: a stop-and-re-arm loop (TCP's RTO pattern) keeps
// one pending event and one slot, however often it runs.
func TestStopRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(200*time.Millisecond, func() {})
	for i := 0; i < 1000; i++ {
		tm.Stop()
		tm = e.After(200*time.Millisecond, func() {})
	}
	if e.Pending() != 1 || len(e.heap) != 1 || len(e.slots) != 1 {
		t.Fatalf("Pending=%d heap=%d slots=%d after 1000 re-arms, want 1 each", e.Pending(), len(e.heap), len(e.slots))
	}
}

// TestReleaseDropsReferences: a fired or stopped event leaves neither its
// callback nor its packet reachable from the slot table.
func TestReleaseDropsReferences(t *testing.T) {
	e := NewEngine(1)
	e.AtPacket(1, func(*packet.Packet) {}, &packet.Packet{})
	e.After(2, func() {}).Stop()
	e.RunAll()
	for i, s := range e.slots {
		if s.fn != nil || s.pfn != nil || s.p != nil {
			t.Fatalf("slot %d still holds %+v", i, s)
		}
	}
}

// The zero-alloc contract: at steady state (slot table and heap grown to
// the working set) scheduling, firing and re-arming allocate nothing.
func TestScheduleAndFireAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	pfn := func(*packet.Packet) {}
	p := &packet.Packet{}
	for i := 0; i < 64; i++ { // a standing population to sift through
		e.After(time.Hour+time.Duration(i), fn)
	}
	check := func(name string, f func()) {
		if got := testing.AllocsPerRun(1000, f); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	check("After+fire", func() { e.After(time.Microsecond, fn); e.Step() })
	check("AtPacket+fire", func() { e.AtPacket(e.Now()+time.Microsecond, pfn, p); e.Step() })
	rto := e.After(200*time.Millisecond, fn)
	check("Stop+After re-arm", func() {
		rto.Stop()
		rto = e.After(200*time.Millisecond, fn)
	})
	rto.Stop()
	st := e.NewStanding(fn)
	st.At(e.Now() + 200*time.Millisecond)
	k := 0
	check("Standing re-key", func() {
		k++
		st.At(e.Now() + 200*time.Millisecond + time.Duration(k%3))
	})
	st.Free()
	var idle Line
	idle.Init(e, pfn)
	check("idle line refill+fire", func() { idle.At(e.Now()+time.Microsecond, p); e.Step() })
	e.Every(time.Microsecond, fn)
	check("Every tick", func() { e.Step() })
	var l Line
	l.Init(e, pfn)
	check("line burst at steady state", func() {
		for i := 0; i < 64; i++ {
			l.At(e.Now()+time.Microsecond, p)
		}
		for i := 0; i < 64; i++ {
			e.Step()
		}
	})
}
