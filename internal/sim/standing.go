package sim

import "time"

// Standing is an event that keeps its engine slot from its first At until
// Free, for a callback a component arms over and over: a retransmission
// timer, a pacer, a shaper's wake-up. Re-arming it allocates no slot and
// firing releases none;
// arming it while it is pending re-keys its entry in place with one sift,
// where Timer.Stop and After take two and a slot round trip (Go's runtime
// timer heap modifies a pending timer the same way).
//
// The order is exactly what a stop and a fresh one-shot would give: At
// draws the next sequence number, and a re-key counts in Stats as one
// stop plus one schedule. The slot is taken at the first At, so an event
// that is never armed (a receiver's retransmission timer, the wake-up of
// a shaper that never backs up) costs the slot table nothing. A Standing
// is used in place: it must not be copied once armed.
type Standing struct {
	eng  *Engine
	fn   func()
	slot int32 // -1 until the first At
}

// NewStanding returns an idle event that fires fn. A Standing is only
// made here: the zero value is not one.
func (e *Engine) NewStanding(fn func()) Standing {
	return Standing{eng: e, fn: fn, slot: -1}
}

// At schedules the event at absolute virtual time at, or re-keys it there
// when it is already pending. Scheduling in the past, or after Free,
// panics.
func (s *Standing) At(at time.Duration) {
	e := s.eng
	if e == nil {
		panic("sim: Standing.At after Free")
	}
	e.checkAt(at)
	e.stats.Scheduled++
	if s.slot < 0 {
		s.slot = e.alloc()
		e.slots[s.slot] = slot{fn: s.fn, period: standing, gen: e.slots[s.slot].gen, pos: -1}
	}
	pos := e.slots[s.slot].pos
	if pos < 0 {
		e.push(s.slot, at)
		return
	}
	e.stats.Stopped++
	x := entry{at: at, seq: e.seq, slot: s.slot}
	e.seq++
	e.fix(int(pos), x)
}

// Pending reports whether the event is scheduled and has not fired.
func (s *Standing) Pending() bool {
	return s.slot >= 0 && s.eng.slots[s.slot].pos >= 0
}

// Stop cancels the pending event, if any; the slot stays owned. Like
// Timer.Stop it removes the entry at once.
func (s *Standing) Stop() {
	e := s.eng
	if s.slot < 0 {
		return
	}
	if pos := e.slots[s.slot].pos; pos >= 0 {
		e.remove(int(pos))
		e.slots[s.slot].pos = -1
		e.stats.Stopped++
	}
}

// Free stops the event and returns its slot to the engine. Later Stops
// and Frees do nothing; a later At panics. The event may free itself from
// its own callback.
func (s *Standing) Free() {
	if s.slot >= 0 {
		s.Stop()
		s.eng.release(s.slot)
	}
	*s = Standing{slot: -1}
}
