// Package tcal reimplements Kollaps' TC Abstraction Layer (§3, §4.1): the
// per-container component that installs, queries and updates the traffic
// shaping for every destination. On Linux this is 2693 lines of C driving
// htb/netem qdiscs over netlink sockets; here the same structure is built
// from the simulator's qdisc primitives.
//
// For each destination container the TCAL installs a netem qdisc (latency,
// jitter, loss) chained into an htb qdisc (bandwidth), reached through a
// u32-style two-level hash filter keyed on the destination address. The
// Emulation Core queries cumulative byte counters ("retrieve bandwidth
// usage") and adjusts rates and loss on every loop iteration — netlink-
// style direct calls, no process spawning.
package tcal

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// PathProps are the end-to-end properties enforced toward one destination
// (the collapsed virtual link of Figure 1).
type PathProps struct {
	Latency   time.Duration
	Jitter    time.Duration
	Loss      units.Loss
	Bandwidth units.Bandwidth
}

// TSQLimit is the per-destination byte threshold above which the TCAL
// backpressures the sender, emulating Linux TCP Small Queues: "when a
// buffer in a router or switch fills up, it drops further incoming
// packets... when the htb qdisc queue is full, rather than dropping
// packets, it back-pressures the application" (§3). 64 KiB keeps the
// bufferbloat the kernel would exhibit without letting rate changes turn
// into loss storms.
const TSQLimit = 64 * 1024

// TCAL shapes one container's egress traffic.
type TCAL struct {
	eng    *sim.Engine
	egress func(*packet.Packet)
	filter *netem.U32Filter
	chains map[packet.IP]*chain

	// dsts caches the installed destinations in ascending IP order so the
	// Emulation Manager's per-period scan does not re-sort (or even
	// re-materialize) an unchanged set; dstsDirty marks it for a lazy
	// rebuild after a path install/remove.
	dsts      []packet.IP
	dstsDirty bool

	// UnmatchedDropped counts packets to destinations with no installed
	// path (unreachable in the current topology state).
	UnmatchedDropped int64
}

type chain struct {
	qdisc *netem.Chain
	props PathProps
	// baseLoss is the topology path loss; injected congestion loss is
	// composed on top and tracked separately so it can be re-derived
	// every EM iteration.
	baseLoss    units.Loss
	lastRead    int64
	lastReadReq int64
	// waiters are TSQ-throttled senders to wake when the htb drains.
	waiters netem.FIFO[func()]
}

// New creates a TCAL whose shaped packets exit through egress (the host
// NIC / physical cluster network).
func New(eng *sim.Engine, egress func(*packet.Packet)) *TCAL {
	t := &TCAL{
		eng:    eng,
		egress: egress,
		chains: make(map[packet.IP]*chain),
	}
	t.filter = netem.NewU32Filter(dropStage{t})
	return t
}

type dropStage struct{ t *TCAL }

func (d dropStage) Enqueue(p *packet.Packet) {
	d.t.UnmatchedDropped++
	p.Release()
}

// InstallPath creates (or replaces) the qdisc chain toward dst.
func (t *TCAL) InstallPath(dst packet.IP, p PathProps) {
	c := &chain{
		qdisc:    netem.NewChain(t.eng, netem.ChainProps{Delay: p.Latency, Jitter: p.Jitter, Loss: p.Loss, Rate: p.Bandwidth}, t.egress),
		props:    p,
		baseLoss: p.Loss,
	}
	c.qdisc.HTB.OnDequeue = func() {
		// One waiter per departure: connections sharing a destination
		// chain take round-robin turns, like fq on a real host.
		if c.waiters.Len() > 0 && c.qdisc.HTB.Backlog()+packet.MSS <= TSQLimit {
			c.waiters.Pop()()
		}
	}
	if _, existed := t.chains[dst]; !existed {
		t.dstsDirty = true
	}
	t.chains[dst] = c
	t.filter.Add(dst, c.qdisc)
}

// Writable implements TSQ backpressure: data toward dst may be emitted
// while the htb backlog stays under TSQLimit. Destinations without an
// installed chain are writable (the path is installed lazily on first
// send).
func (t *TCAL) Writable(dst packet.IP, n int) bool {
	c, ok := t.chains[dst]
	if !ok {
		return true
	}
	return c.qdisc.HTB.Backlog()+n <= TSQLimit
}

// NotifyWritable parks fn until the htb toward dst drains below the TSQ
// threshold. Unknown destinations fire immediately.
func (t *TCAL) NotifyWritable(dst packet.IP, fn func()) {
	c, ok := t.chains[dst]
	if !ok {
		fn()
		return
	}
	c.waiters.Push(fn)
}

// RemovePath removes the chain toward dst; subsequent packets are dropped
// (destination unreachable).
func (t *TCAL) RemovePath(dst packet.IP) {
	if _, existed := t.chains[dst]; existed {
		t.dstsDirty = true
	}
	delete(t.chains, dst)
	t.filter.Remove(dst)
}

// HasPath reports whether dst has an installed chain.
func (t *TCAL) HasPath(dst packet.IP) bool {
	_, ok := t.chains[dst]
	return ok
}

// Destinations returns the installed destinations in ascending IP order.
// The returned slice is owned by the TCAL and reused: it stays valid (and
// unchanged, even across a RemovePath issued mid-iteration) until the
// next Destinations call after a path mutation. Callers must not mutate
// or retain it across periods.
func (t *TCAL) Destinations() []packet.IP {
	// Rebuild only after a path mutation; steady-state periods take the
	// allocation-free cached return below.
	if t.dstsDirty {
		t.dsts = t.dsts[:0]
		for ip := range t.chains {
			t.dsts = append(t.dsts, ip)
		}
		sort.Slice(t.dsts, func(i, j int) bool {
			return bytes.Compare(t.dsts[i][:], t.dsts[j][:]) < 0
		})
		t.dstsDirty = false
	}
	return t.dsts
}

// Send classifies a packet into its destination chain — the container's
// egress hook.
func (t *TCAL) Send(p *packet.Packet) { t.filter.Classify(p) }

// SetBandwidth updates the htb rate toward dst — the enforcement step of
// the emulation loop.
func (t *TCAL) SetBandwidth(dst packet.IP, rate units.Bandwidth) error {
	c, ok := t.chains[dst]
	if !ok {
		return fmt.Errorf("tcal: no path to %v", dst)
	}
	c.props.Bandwidth = rate
	c.qdisc.HTB.SetRate(rate)
	return nil
}

// SetNetem updates delay, jitter and base loss toward dst (topology state
// change).
func (t *TCAL) SetNetem(dst packet.IP, delay, jitter time.Duration, loss units.Loss) error {
	c, ok := t.chains[dst]
	if !ok {
		return fmt.Errorf("tcal: no path to %v", dst)
	}
	c.props.Latency, c.props.Jitter = delay, jitter
	c.baseLoss = loss
	c.qdisc.Netem.Set(delay, jitter, loss)
	return nil
}

// InjectCongestionLoss composes extra packet loss on top of the path's
// base loss — the §3 workaround that exposes oversubscription to
// loss-based congestion control.
func (t *TCAL) InjectCongestionLoss(dst packet.IP, extra units.Loss) error {
	c, ok := t.chains[dst]
	if !ok {
		return fmt.Errorf("tcal: no path to %v", dst)
	}
	c.qdisc.Netem.Set(c.props.Latency, c.props.Jitter, c.baseLoss.Compose(extra))
	return nil
}

// Props returns the currently installed properties toward dst.
func (t *TCAL) Props(dst packet.IP) (PathProps, bool) {
	c, ok := t.chains[dst]
	if !ok {
		return PathProps{}, false
	}
	return c.props, true
}

// Usage returns the bytes sent toward dst since the previous Usage call —
// the emulation loop's "obtain the bandwidth usage" step.
func (t *TCAL) Usage(dst packet.IP) int64 {
	c, ok := t.chains[dst]
	if !ok {
		return 0
	}
	total := c.qdisc.HTB.SentBytes
	delta := total - c.lastRead
	c.lastRead = total
	return delta
}

// Requested returns the bytes the application *offered* toward dst since
// the previous Requested call: bytes shaped through plus bytes tail-dropped
// by the full htb queue. The Emulation Core compares this demand with the
// allocation to decide congestion-loss injection (§3 "Congestion").
func (t *TCAL) Requested(dst packet.IP) int64 {
	c, ok := t.chains[dst]
	if !ok {
		return 0
	}
	total := c.qdisc.HTB.SentBytes + c.qdisc.HTB.DroppedBytes + int64(c.qdisc.HTB.Backlog())
	delta := total - c.lastReadReq
	c.lastReadReq = total
	if delta < 0 {
		delta = 0
	}
	return delta
}

// TotalSent returns the cumulative bytes shaped toward dst.
func (t *TCAL) TotalSent(dst packet.IP) int64 {
	c, ok := t.chains[dst]
	if !ok {
		return 0
	}
	return c.qdisc.HTB.SentBytes
}

// Backlog returns bytes queued in the htb toward dst.
func (t *TCAL) Backlog(dst packet.IP) int {
	c, ok := t.chains[dst]
	if !ok {
		return 0
	}
	return c.qdisc.HTB.Backlog()
}
