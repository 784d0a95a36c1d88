package sim

import (
	"fmt"
	"time"

	"repro/internal/packet"
)

// Line is a delay line: a FIFO of typed packet events whose times never
// decrease, all fired through one callback bound at Init. Only the head
// event sits in the engine's heap; the rest wait in the engine's node
// table, so a stage holding thousands of packets in flight costs the heap
// one entry.
//
// The fire order is exactly the one AtPacket would give. Each event draws
// the engine's next sequence number when scheduled, so a queued key (at,
// seq) is never smaller than its head's: it cannot be the global minimum
// while the head is pending, and it enters the heap as the head leaves.
//
// A line is a standing event: it takes its slot at its first At and keeps
// it for life, so a line that empties and is refilled (most do, one
// packet at a time) pushes its slot again without allocating or
// releasing one. The slot's heap position says whether the line is idle.
//
// A Line is used in place: it must not be copied after Init.
type Line struct {
	eng        *Engine
	fn         func(*packet.Packet)
	last       time.Duration // the latest event's time
	slot       int32         // the head's slot, owned from the first At on; -1 before
	head, tail int32         // queued nodes behind the head; -1 when none
}

// lineNode is one event queued behind a line's head, keyed as it will be
// in the heap.
type lineNode struct {
	at   time.Duration
	seq  uint64
	p    *packet.Packet
	next int32
}

// Init binds the line to eng and to the callback its events fire.
func (l *Line) Init(eng *Engine, fn func(*packet.Packet)) {
	*l = Line{eng: eng, fn: fn, slot: -1, head: -1, tail: -1}
}

// Last returns the time of the line's latest event, 0 before the first.
func (l *Line) Last() time.Duration { return l.last }

// At schedules fn(p) at absolute virtual time at. It panics when at
// precedes now or the line's previous event. Line events cannot be
// stopped; firing on a packet released in the meantime panics.
func (l *Line) At(at time.Duration, p *packet.Packet) {
	e := l.eng
	if at < l.last {
		panic(fmt.Sprintf("sim: line event at %v before the line's previous one at %v", at, l.last))
	}
	l.last = at
	if l.slot < 0 {
		l.slot = e.alloc()
		e.slots[l.slot] = slot{line: l, gen: e.slots[l.slot].gen, pos: -1}
	}
	if s := &e.slots[l.slot]; s.pos < 0 {
		e.checkAt(at)
		e.stats.Scheduled++
		s.p = p
		e.push(l.slot, at)
		return
	}
	var id int32
	if n := len(e.freeNodes); n > 0 {
		id = e.freeNodes[n-1]
		e.freeNodes = e.freeNodes[:n-1]
	} else {
		id = int32(len(e.nodes))
		e.nodes = append(e.nodes, lineNode{})
	}
	e.nodes[id] = lineNode{at: at, seq: e.seq, p: p, next: -1}
	e.seq++
	e.stats.Scheduled++
	e.stats.Queued++
	if l.tail < 0 {
		l.head = id
	} else {
		e.nodes[l.tail].next = id
	}
	l.tail = id
}

// advance moves line l past its head, the heap's root on slot id: the next
// queued event takes over the slot and replaces the root in place, or the
// line goes idle, keeping its slot, and leaves the root held for the
// callback's first push.
func (e *Engine) advance(l *Line, id int32) {
	if l.head < 0 {
		e.held = true
		s := &e.slots[id]
		s.p = nil
		s.pos = -1
		return
	}
	n := e.nodes[l.head]
	e.nodes[l.head] = lineNode{}
	e.freeNodes = append(e.freeNodes, l.head)
	l.head = n.next
	if l.head < 0 {
		l.tail = -1
	}
	e.slots[id].p = n.p
	e.siftDown(0, entry{at: n.at, seq: n.seq, slot: id})
}
