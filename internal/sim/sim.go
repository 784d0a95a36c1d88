// Package sim implements the deterministic discrete-event simulation engine
// that every substrate in this repository runs on.
//
// The original Kollaps runs against the Linux kernel in real time; here the
// kernel, the cluster network, the traffic shaping and the applications are
// all simulated, so the engine provides a virtual clock, an event queue with
// a total deterministic order, timers, and a seeded random number source.
// Two runs with the same seed produce bit-identical results — which is the
// reproducibility property the paper argues for.
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/packet"
)

// Engine is a discrete-event simulator. It is not safe for concurrent use:
// all simulated work happens on the caller's goroutine inside Run/Step.
//
// Pending events live in three tables. heap is a 4-ary min-heap of
// pointer-free entries ordered by (at, seq), so sifting moves plain words
// and never trips a GC write barrier. Which of four children is earliest
// depends on the data, so branching on those comparisons mispredicts; the
// order is one branch-free mask (beforeMask), and siftDown settles a full
// family by mask arithmetic (earliest). slots holds what an entry fires —
// the callback, its heap position (so Stop can remove it in O(log n)) and
// a generation that invalidates Timers once the slot is recycled through
// the free list. nodes holds the events waiting behind a Line's head,
// chained per line and recycled through a free list of their own: only a
// line's head is in the heap. At steady state scheduling and firing
// allocate nothing.
//
// Most events are one-shots: the slot is taken when they are scheduled and
// released when they fire or stop. A standing event (NewStanding, and
// every Line) instead owns its slot from its first arming on: arming it
// again pushes the slot without allocating one, firing or stopping leaves
// it owned, and arming it while pending re-keys its entry in place with
// one sift.
//
// A fired root stays in the heap while its callback runs, as a held
// entry: the first event the callback schedules (At, After, AtPacket,
// an idle Line's or standing event's At, or the Every re-arm) takes its
// place at index 0 with one siftDown, instead of a siftDown to remove the
// root and a siftUp to insert the newcomer. A callback that schedules
// nothing has the root removed when it returns. The order is unchanged:
// sequence numbers are drawn as before, and the held key (now, its seq)
// precedes every live key, so no removal, siftUp or re-key below it
// crosses it. Pending does not count the held entry, and the heap's
// length after each push is what a remove-then-push gives, so HeapPeak
// is unchanged too. The held root
// makes re-entry unsound: Step, and so Run and RunAll, panic when called
// from inside a firing callback; every caller drives them from top level.
//
// The engine also owns the simulation's packet pool (Packets): every
// packet and control frame the substrates carry is drawn from it and
// released back, so reuse follows the deterministic event order.
type Engine struct {
	now       time.Duration
	seq       uint64
	heap      []entry
	slots     []slot
	free      []int32 // recycled slot indices
	nodes     []lineNode
	freeNodes []int32 // recycled node indices
	stats     Stats
	rng       *rand.Rand
	halted    bool
	held      bool // heap[0] is the firing event's spent entry, kept for the next push
	firing    bool // a callback is running: Step must not re-enter
	packets   packet.Pool
}

// Stats counts the engine's operations since it was created.
type Stats struct {
	Scheduled int64 // events scheduled: At, AtPacket, After, Every, Line.At and Standing.At
	Fired     int64 // events whose callback ran, each Every tick included
	Stopped   int64 // pending events Timer.Stop or Standing.Stop removed, and re-keys
	Rearmed   int64 // Every re-arms after a tick
	Queued    int64 // Line events that waited behind their line's head
	Replaced  int64 // fired events whose heap position went straight to the next event scheduled
	HeapPeak  int   // the heap's high-water length
}

// entry is one pending event's key. Events fire ordered by (at, seq) so
// that ties are broken by scheduling order, keeping runs deterministic.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool { return beforeMask(a, b) != 0 }

// beforeMask is the one definition of the order: all ones when a fires
// before b, zero otherwise. It reads (at, seq) as one 128-bit unsigned
// number, at's sign bit flipped so the unsigned order is the signed one,
// subtracts b from a and widens the final borrow to a mask. No branch
// depends on the keys, so siftDown can pick among children without a
// misprediction.
func beforeMask(a, b entry) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return -borrow
}

// slot is the payload of one event: fn(), or pfn(p) for the typed
// packet events the per-packet path schedules without building a closure,
// or line.fn(p) for a Line's head.
type slot struct {
	fn     func()
	pfn    func(*packet.Packet)
	p      *packet.Packet
	line   *Line
	period time.Duration // > 0: an Every timer, re-armed after each tick; standing: a Standing's, never re-armed
	gen    uint64        // bumped on release; a Timer of an older gen is dead
	pos    int32         // index in heap; -1 while an Every tick runs or a standing slot is idle
}

// standing is a Standing's slot.period: the slot is kept across a firing
// like an Every timer's, and never re-armed by the engine.
const standing time.Duration = -1

// NewEngine returns an engine whose clock starts at zero, with the given
// random seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Packets returns the engine's packet and frame pool.
func (e *Engine) Packets() *packet.Pool { return &e.packets }

// Stats returns the operation counters.
func (e *Engine) Stats() Stats { return e.stats }

// Timer identifies a scheduled event and allows cancellation.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Stop cancels the timer, removing its event from the queue at once. It is
// safe to call multiple times, on a timer that already fired, and on the
// zero Timer: the slot's generation no longer matches and nothing happens.
func (t Timer) Stop() {
	e := t.eng
	if e == nil || e.slots[t.slot].gen != t.gen {
		return
	}
	if pos := e.slots[t.slot].pos; pos >= 0 {
		e.remove(int(pos))
		e.stats.Stopped++
	}
	e.release(t.slot)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would violate causality and indicates a bug in the caller.
func (e *Engine) At(at time.Duration, fn func()) Timer {
	return e.schedule(at, slot{fn: fn})
}

// AtPacket schedules fn(p) at absolute virtual time at. It is At for the
// per-packet path: the slot carries the pair, so the caller builds no
// closure to bind p. Firing on a packet released in the meantime panics.
func (e *Engine) AtPacket(at time.Duration, fn func(*packet.Packet), p *packet.Packet) Timer {
	return e.schedule(at, slot{pfn: fn, p: p})
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned timer is stopped or the engine halts.
func (e *Engine) Every(period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	return e.schedule(e.now+period, slot{fn: fn, period: period})
}

func (e *Engine) schedule(at time.Duration, s slot) Timer {
	e.checkAt(at)
	e.stats.Scheduled++
	id := e.alloc()
	s.gen = e.slots[id].gen
	e.slots[id] = s
	e.push(id, at)
	return Timer{eng: e, slot: id, gen: s.gen}
}

// checkAt panics when at precedes now.
func (e *Engine) checkAt(at time.Duration) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
}

// alloc takes a slot index from the free list, or grows the table. The
// caller fills the slot under its current generation.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release recycles a slot: its pointers are dropped so the callback and
// packet become collectable, and outstanding Timers for it go dead.
func (e *Engine) release(id int32) {
	e.slots[id] = slot{gen: e.slots[id].gen + 1}
	e.free = append(e.free, id)
}

// Step runs the single next event. It reports false when the queue is empty
// or the engine was halted. It panics when called from inside a firing
// callback.
func (e *Engine) Step() bool {
	if e.firing {
		panic(reentered)
	}
	if len(e.heap) == 0 || e.halted {
		return false
	}
	top := e.heap[0]
	if top.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = top.at
	e.stats.Fired++
	e.firing = true
	if l := e.slots[top.slot].line; l != nil {
		p := e.slots[top.slot].p
		e.advance(l, top.slot)
		p.AssertLive("sim: Line firing")
		l.fn(p)
	} else if s := e.slots[top.slot]; s.period != 0 {
		// The slot stays owned across the tick so the Timer can stop the
		// series from inside fn; a changed generation afterwards means it
		// did. A standing event's fn re-arms it (into the held root) or
		// frees it itself.
		e.held = true
		e.slots[top.slot].pos = -1
		s.fn()
		switch {
		case s.period == standing:
		case e.slots[top.slot].gen != s.gen:
		case e.halted:
			e.release(top.slot)
		default:
			e.push(top.slot, e.now+s.period)
			e.stats.Rearmed++
		}
	} else {
		e.held = true
		e.release(top.slot)
		if s.pfn != nil {
			s.p.AssertLive("sim: AtPacket firing")
			s.pfn(s.p)
		} else {
			s.fn()
		}
	}
	e.firing = false
	if e.held {
		e.held = false
		e.remove(0)
	}
	return true
}

// reentered is what Step and Run panic with inside a firing callback.
const reentered = "sim: Step re-entered from a callback"

// Run executes events until the virtual clock would pass until, the queue
// empties, or Halt is called. The clock is left at min(until, last event
// time); events at exactly until do run. Like Step, it panics when called
// from inside a firing callback.
func (e *Engine) Run(until time.Duration) {
	if e.firing {
		panic(reentered)
	}
	for len(e.heap) > 0 && e.heap[0].at <= until && e.Step() {
	}
	if !e.halted && e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty or Halt is called.
// Useful for draining simulations with a natural end.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Halt stops the engine: Run/RunAll/Step return immediately afterwards.
func (e *Engine) Halt() { e.halted = true }

// Pending returns the number of live events in the queue, those waiting
// behind a Line's head included.
func (e *Engine) Pending() int {
	n := len(e.heap) + len(e.nodes) - len(e.freeNodes)
	if e.held {
		n--
	}
	return n
}

// push queues slot id at time at under the next sequence number: in the
// held root's place when there is one, else at the bottom.
func (e *Engine) push(id int32, at time.Duration) {
	x := entry{at: at, seq: e.seq, slot: id}
	e.seq++
	if e.held {
		e.held = false
		e.stats.Replaced++
		e.siftDown(0, x)
		return
	}
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, x)
	if len(e.heap) > e.stats.HeapPeak {
		e.stats.HeapPeak = len(e.heap)
	}
}

// remove deletes heap[i], refilling the hole with the last entry. It
// settles the entry itself rather than through fix: remove runs on every
// Stop and after every callback that schedules nothing, and fix is too
// big to inline.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(e.heap[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// fix settles x into the hole at i, up or down as its key requires: a
// pending standing event's new key.
func (e *Engine) fix(i int, x entry) {
	if i > 0 && x.before(e.heap[(i-1)/4]) {
		e.siftUp(i, x)
	} else {
		e.siftDown(i, x)
	}
}

// place writes x at heap[i] and records the position in its slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.slot].pos = int32(i)
}

// siftUp settles x into the hole at i, moving later parents down.
func (e *Engine) siftUp(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(e.heap[parent]) {
			break
		}
		e.place(i, e.heap[parent])
		i = parent
	}
	e.place(i, x)
}

// siftDown settles x into the hole at i, moving the earliest child up.
// A full family of four is settled by earliest; only the partial family
// at the heap's fringe takes the comparison loop.
func (e *Engine) siftDown(i int, x entry) {
	n := len(e.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		var least int
		if first+4 <= n {
			least = first + earliest((*[4]entry)(e.heap[first:first+4]))
		} else {
			least = first
			for c := first + 1; c < n; c++ {
				if e.heap[c].before(e.heap[least]) {
					least = c
				}
			}
		}
		if !e.heap[least].before(x) {
			break
		}
		e.place(i, e.heap[least])
		i = least
	}
	e.place(i, x)
}

// earliest returns the index of the earliest of four children: a
// tournament of two pairs and then their winners, each pick made by
// masking an index with beforeMask. Which child wins is data-dependent,
// so a branch there mispredicts often; the masks cost the same every time.
func earliest(c *[4]entry) int {
	w01 := 1 &^ beforeMask(c[0], c[1])       // 0 when c[0] is earlier, else 1
	w23 := 3 &^ (beforeMask(c[2], c[3]) & 1) // 2 when c[2] is earlier, else 3
	m := beforeMask(c[w01&3], c[w23&3])
	return int(w23 ^ (w01^w23)&m)
}
