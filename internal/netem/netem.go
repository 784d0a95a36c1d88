// Package netem reimplements, in the simulator, the Linux Traffic Control
// queueing disciplines Kollaps drives through its TCAL (§3): the htb
// token-bucket shaper and the netem delay/jitter/loss stage. The u32
// filter that classifies packets by destination address is the TCAL's own
// table (package tcal).
//
// Kollaps chains them per destination: filter → htb (bandwidth) → netem
// (latency, jitter, loss); see Chain. The same Chain also builds every
// link of the "bare-metal" fabric and the baseline emulators, so all
// systems under comparison shape traffic with the same machinery — as
// they do on a real kernel.
//
// Layer ownership: this package models link physics — the impairments a
// real network path inflicts and Kollaps configures (delay, jitter,
// Bernoulli loss, bandwidth). It never duplicates, reorders, or corrupts
// a packet, because the emulated links are configured not to. Adversarial
// faults — duplication, reordering, corruption, delay spikes,
// partitions — are the chaos plane's job (internal/chaos), which injects
// them into the control plane's metadata datagrams, deterministically
// under the experiment seed, without touching these qdiscs.
package netem

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// TokenBucket models the htb qdisc: a rate limiter with a burst allowance
// and a finite FIFO backlog. When the backlog is full further packets are
// dropped (tail drop) — the behaviour of a router queue. The sender that
// owns the qdisc asks Writable first instead, and parks on
// NotifyWritable while the backlog is over tsqLimit, as Linux TCP Small
// Queues does: congestion at its own shaper throttles the socket instead
// of dropping (§3 "Congestion").
type TokenBucket struct {
	eng  *sim.Engine
	next func(*packet.Packet)

	rate   units.Bandwidth
	burst  float64 // bytes
	limit  int     // max queued bytes
	tokens float64 // bytes
	last   time.Duration

	queue    FIFO[*packet.Packet]
	queued   int          // bytes
	draining bool         // wake is pending
	inDrain  bool         // the drain loop is on the stack (reentrancy guard)
	wake     sim.Standing // the future drain: one slot for the shaper's life

	// waiters are TSQ-throttled senders, woken one per drain pass that
	// released a packet, after the drain loop, so a woken sender may
	// enqueue freely.
	waiters FIFO[func()]

	// Counters for the TCAL usage queries and for test assertions.
	SentBytes    int64
	SentPackets  int64
	DroppedBytes int64
	Dropped      int64
}

// tsqLimit is the backlog in bytes above which a sender is throttled,
// emulating Linux TCP Small Queues: "when the htb qdisc queue is full,
// rather than dropping packets, it back-pressures the application" (§3).
// 64 KiB keeps the bufferbloat the kernel would exhibit without letting
// rate changes turn into loss storms. Queues a sender does not consult —
// those at intermediate switches — still tail-drop: that is genuine
// network congestion.
const tsqLimit = 64 * 1024

// NewTokenBucket creates a shaper. A non-positive rate means unlimited
// (packets pass through untouched). Burst defaults to one MTU, limit to
// 100 ms worth of bytes at the configured rate (min 16 KiB).
func NewTokenBucket(eng *sim.Engine, rate units.Bandwidth, next func(*packet.Packet)) *TokenBucket {
	tb := &TokenBucket{eng: eng, next: next}
	tb.wake = eng.NewStanding(func() {
		tb.draining = false
		tb.drain()
	})
	tb.SetRate(rate)
	tb.tokens = tb.burst
	tb.last = eng.Now()
	return tb
}

// SetRate changes the shaping rate at runtime — the operation the
// Emulation Core performs on every loop iteration. Accrued tokens are
// settled at the old rate first. A backlog held when the rate becomes
// unlimited is released at once: no token will ever accrue for it.
func (tb *TokenBucket) SetRate(rate units.Bandwidth) {
	tb.refill()
	tb.rate = rate
	tb.burst = float64(packet.MTU)
	if b := rate.Bps() * 0.002; b > tb.burst { // 2 ms of line rate
		tb.burst = b
	}
	limit := int(rate.Bps() * 0.1)
	if limit < 16*1024 {
		limit = 16 * 1024
	}
	tb.limit = limit
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.queue.Len() > 0 && (!tb.draining || rate <= 0) {
		tb.drain()
	}
}

// Rate returns the current shaping rate.
func (tb *TokenBucket) Rate() units.Bandwidth { return tb.rate }

// SetQueueLimit overrides the backlog limit in bytes (SetRate re-derives a
// default, so call this after SetRate).
func (tb *TokenBucket) SetQueueLimit(bytes int) {
	if bytes > 0 {
		tb.limit = bytes
	}
}

// Backlog returns the queued byte count.
func (tb *TokenBucket) Backlog() int { return tb.queued }

// Writable reports whether a sender may queue n more bytes: true while
// the backlog plus n stays within the TSQ limit.
func (tb *TokenBucket) Writable(n int) bool { return tb.queued+n <= tsqLimit }

// NotifyWritable parks fn until a drain pass leaves room for another
// MSS. Parked senders are woken one per pass, first come first served:
// waking them all would let the first refill the queue and starve the
// rest, whereas the kernel's fq qdisc round-robins flows sharing a NIC.
func (tb *TokenBucket) NotifyWritable(fn func()) { tb.waiters.Push(fn) }

// WakeAll wakes every parked sender in order, for a bucket that is being
// discarded: its drain will no longer be asked about, so a sender left
// parked on it would never be woken.
func (tb *TokenBucket) WakeAll() {
	for tb.waiters.Len() > 0 {
		tb.waiters.Pop()()
	}
}

func (tb *TokenBucket) refill() {
	now := tb.eng.Now()
	if tb.rate > 0 {
		tb.tokens += tb.rate.Bps() * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
}

// Enqueue shapes one packet. A tail-dropped packet is released.
func (tb *TokenBucket) Enqueue(p *packet.Packet) {
	p.AssertLive("netem: Enqueue")
	if tb.rate <= 0 { // unlimited
		tb.SentBytes += int64(p.Size)
		tb.SentPackets++
		tb.next(p)
		return
	}
	if tb.queued+p.Size > tb.limit && tb.queue.Len() > 0 {
		tb.Dropped++
		tb.DroppedBytes += int64(p.Size)
		p.Release()
		return
	}
	tb.queue.Push(p)
	tb.queued += p.Size
	if !tb.draining && !tb.inDrain {
		tb.drain()
	}
}

// drain releases queued packets while tokens last (all of them when the
// rate is unlimited) and schedules its own wake-up for the rest.
func (tb *TokenBucket) drain() {
	tb.inDrain = true
	tb.refill()
	released := false
	for tb.queue.Len() > 0 {
		head := tb.queue.Peek()
		need := float64(head.Size)
		if tb.rate > 0 {
			if tb.tokens < need {
				// Wait until enough tokens accrue for the head packet. The
				// 1µs floor bounds event churn against float rounding.
				wait := time.Duration((need - tb.tokens) / tb.rate.Bps() * float64(time.Second))
				if wait < time.Microsecond {
					wait = time.Microsecond
				}
				if tb.draining {
					panic("netem: a second drain wake-up")
				}
				tb.draining = true
				tb.wake.At(tb.eng.Now() + wait)
				break
			}
			tb.tokens -= need
		}
		tb.queue.Pop()
		tb.queued -= head.Size
		tb.SentBytes += int64(head.Size)
		tb.SentPackets++
		tb.next(head)
		released = true
	}
	tb.inDrain = false
	if released && tb.waiters.Len() > 0 && tb.Writable(packet.MSS) {
		tb.waiters.Pop()()
	}
}

// Netem models the netem qdisc: fixed delay, normally distributed jitter,
// and Bernoulli packet loss. Delivery order is preserved within this
// stage (reordering disabled, as Kollaps configures the real qdisc), so a
// packet's exit time is clamped to be no earlier than that of its
// predecessor. The packets in flight are therefore a sim.Line, which
// relies on exactly this: exits never decrease. That guarantee is about
// link physics and holds only here: experiments that want reordered,
// duplicated, or corrupted control datagrams get them from the chaos
// plane (internal/chaos), one layer up.
//
// A stage may also carry a constant hop: the processing delay of the
// node it delivers to, added to every exit after both clamps (SetHop).
// A constant moves every exit alike, so the line stays FIFO, and the
// next node's work rides the stage's own event instead of one of its own.
type Netem struct {
	eng  *sim.Engine
	line sim.Line // in flight, delivering to next

	delay  time.Duration
	jitter time.Duration
	loss   units.Loss
	hop    time.Duration // added to every exit; not part of Delay

	// Counters.
	SentPackets int64
	LostPackets int64
}

// NewNetem creates a delay/jitter/loss stage.
func NewNetem(eng *sim.Engine, delay, jitter time.Duration, loss units.Loss, next func(*packet.Packet)) *Netem {
	n := &Netem{eng: eng, delay: delay, jitter: jitter, loss: loss.Clamp()}
	n.line.Init(eng, next)
	return n
}

// Set updates all three properties at runtime.
func (n *Netem) Set(delay, jitter time.Duration, loss units.Loss) {
	n.delay, n.jitter, n.loss = delay, jitter, loss.Clamp()
}

// SetHop sets the constant added to every exit after the ordering clamp:
// the per-hop delay of the node the stage delivers to. Call it before the
// first Enqueue; changing it with packets in flight could reorder them.
func (n *Netem) SetHop(d time.Duration) { n.hop = d }

// Delay returns the configured fixed delay, without the hop.
func (n *Netem) Delay() time.Duration { return n.delay }

// Jitter returns the configured jitter standard deviation.
func (n *Netem) Jitter() time.Duration { return n.jitter }

// Loss returns the configured loss probability.
func (n *Netem) Loss() units.Loss { return n.loss }

// Enqueue applies loss, then schedules delivery after delay + jitter
// (plus the hop). A lost packet is released.
func (n *Netem) Enqueue(p *packet.Packet) {
	p.AssertLive("netem: Enqueue")
	if n.loss > 0 && n.eng.Rand().Float64() < float64(n.loss) {
		n.LostPackets++
		p.Release()
		return
	}
	d := n.delay
	if n.jitter > 0 {
		// Normal distribution with mean = delay, sd = jitter (§3: "the
		// link latency follows by default a normal distribution").
		d += time.Duration(n.eng.Rand().NormFloat64() * float64(n.jitter))
		if d < 0 {
			d = 0
		}
	}
	// Preserve ordering: no exit before the previous one. The line's last
	// time already carries the hop, and max(now+d, last-hop)+hop is
	// max(now+d+hop, last), so the hop moves every exit alike.
	n.SentPackets++
	n.line.At(max(n.eng.Now()+d+n.hop, n.line.Last()), p)
}

// Chain is one shaped link: an htb stage (bandwidth) feeding a netem
// stage (latency/jitter/loss). The TCAL installs one per destination and
// the fabric one per link direction. The paper's Linux deployment chains
// netem→htb, with TSQ accounting for skbs across the whole tree;
// modelling the htb first makes its backlog exactly the socket-owned
// queue TSQ throttles on, while the netem stage then plays the network's
// propagation delay — the shaped rate and end-to-end properties are
// identical.
type Chain struct {
	Netem *Netem
	HTB   *TokenBucket
}

// NewChain builds htb → netem → next.
func NewChain(eng *sim.Engine, props ChainProps, next func(*packet.Packet)) *Chain {
	ne := NewNetem(eng, props.Delay, props.Jitter, props.Loss, next)
	htb := NewTokenBucket(eng, props.Rate, ne.Enqueue)
	return &Chain{Netem: ne, HTB: htb}
}

// ChainProps configures a Chain.
type ChainProps struct {
	Delay  time.Duration
	Jitter time.Duration
	Loss   units.Loss
	Rate   units.Bandwidth
}

// Enqueue feeds the chain.
func (c *Chain) Enqueue(p *packet.Packet) { c.HTB.Enqueue(p) }
