// Package tcal reimplements Kollaps' TC Abstraction Layer (§3, §4.1): the
// per-container component that installs, queries and updates the traffic
// shaping for every destination. On Linux this is 2693 lines of C driving
// htb/netem qdiscs over netlink sockets; here the same structure is built
// from the simulator's qdisc primitives.
//
// For each destination container the TCAL installs an htb qdisc
// (bandwidth) chained into a netem qdisc (latency, jitter, loss), a
// netem.Chain, reached through a u32-style two-level filter keyed on the
// destination address. The Emulation Core queries cumulative byte
// counters ("retrieve bandwidth usage") and adjusts rates on every loop
// iteration — netlink-style direct calls, no process spawning.
//
// As on Linux, the qdiscs are the only record of what is enforced: the
// htb holds the rate and the netem stage the delay, jitter and loss, and
// Props reads them back.
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

// TCAL shapes one container's egress traffic.
type TCAL struct {
	eng    *sim.Engine
	egress func(*packet.Packet)
	// chains is the u32 filter of §3: the destination's third octet
	// indexes the first level and its fourth the second, so classifying
	// a packet is two array loads and no hashing. Two destinations that
	// share octets 3–4 cannot both be installed (InstallPath refuses),
	// and a chain answers only for its own full address.
	chains [256]*[256]*chain

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
	dst         packet.IP
	qdisc       *netem.Chain
	lastRead    int64
	lastReadReq int64
}

// New creates a TCAL whose shaped packets exit through egress (the host
// NIC / physical cluster network).
func New(eng *sim.Engine, egress func(*packet.Packet)) *TCAL {
	return &TCAL{eng: eng, egress: egress}
}

// chain returns the chain installed toward dst, or nil.
func (t *TCAL) chain(dst packet.IP) *chain {
	if page := t.chains[dst[2]]; page != nil {
		if c := page[dst[3]]; c != nil && c.dst == dst {
			return c
		}
	}
	return nil
}

// InstallPath creates (or replaces) the qdisc chain toward dst. It fails,
// installing nothing, when another destination sharing dst's last two
// octets is installed: the filter could not tell the two apart. Senders
// parked on a replaced chain are woken in order, and consult the new one.
func (t *TCAL) InstallPath(dst packet.IP, p PathProps) error {
	page := t.chains[dst[2]]
	if page == nil {
		page = new([256]*chain)
		t.chains[dst[2]] = page
	}
	old := page[dst[3]]
	if old != nil && old.dst != dst {
		return fmt.Errorf("tcal: path to %v collides with installed %v on octets 3-4", dst, old.dst)
	}
	page[dst[3]] = &chain{
		dst:   dst,
		qdisc: netem.NewChain(t.eng, netem.ChainProps{Delay: p.Latency, Jitter: p.Jitter, Loss: p.Loss, Rate: p.Bandwidth}, t.egress),
	}
	if old == nil {
		t.dstsDirty = true
	} else {
		old.qdisc.HTB.WakeAll()
	}
	return nil
}

// Writable implements TSQ backpressure: data toward dst may be emitted
// while the htb backlog stays under the TSQ limit. Destinations without
// an installed chain are writable (the path is installed lazily on first
// send).
func (t *TCAL) Writable(dst packet.IP, n int) bool {
	c := t.chain(dst)
	return c == nil || c.qdisc.HTB.Writable(n)
}

// NotifyWritable parks fn until the htb toward dst drains below the TSQ
// threshold. Unknown destinations fire immediately.
func (t *TCAL) NotifyWritable(dst packet.IP, fn func()) {
	c := t.chain(dst)
	if c == nil {
		fn()
		return
	}
	c.qdisc.HTB.NotifyWritable(fn)
}

// RemovePath removes the chain toward dst; subsequent packets are dropped
// (destination unreachable). Senders parked on the chain are woken in
// order, and find dst writable.
func (t *TCAL) RemovePath(dst packet.IP) {
	if c := t.chain(dst); c != nil {
		t.chains[dst[2]][dst[3]] = nil
		t.dstsDirty = true
		c.qdisc.HTB.WakeAll()
	}
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
		for _, page := range t.chains {
			if page == nil {
				continue
			}
			for _, c := range page {
				if c != nil {
					t.dsts = append(t.dsts, c.dst)
				}
			}
		}
		sort.Slice(t.dsts, func(i, j int) bool {
			return bytes.Compare(t.dsts[i][:], t.dsts[j][:]) < 0
		})
		t.dstsDirty = false
	}
	return t.dsts
}

// Send classifies a packet into its destination chain — the container's
// egress hook. A packet toward a destination without a chain is dropped
// and counted in UnmatchedDropped.
func (t *TCAL) Send(p *packet.Packet) {
	if !t.Shape(p) {
		t.UnmatchedDropped++
		p.Release()
	}
}

// Shape classifies p into its destination chain and reports true, or
// reports false and leaves p with the caller when no chain is installed.
func (t *TCAL) Shape(p *packet.Packet) bool {
	c := t.chain(p.Dst)
	if c == nil {
		return false
	}
	c.qdisc.Enqueue(p)
	return true
}

// SetBandwidth updates the htb rate toward dst — the enforcement step of
// the emulation loop.
func (t *TCAL) SetBandwidth(dst packet.IP, rate units.Bandwidth) error {
	c := t.chain(dst)
	if c == nil {
		return fmt.Errorf("tcal: no path to %v", dst)
	}
	c.qdisc.HTB.SetRate(rate)
	return nil
}

// SetNetem updates delay, jitter and loss toward dst (topology state
// change).
func (t *TCAL) SetNetem(dst packet.IP, delay, jitter time.Duration, loss units.Loss) error {
	c := t.chain(dst)
	if c == nil {
		return fmt.Errorf("tcal: no path to %v", dst)
	}
	c.qdisc.Netem.Set(delay, jitter, loss)
	return nil
}

// Props returns the currently installed properties toward dst, read
// back from its qdiscs.
func (t *TCAL) Props(dst packet.IP) (PathProps, bool) {
	c := t.chain(dst)
	if c == nil {
		return PathProps{}, false
	}
	ne := c.qdisc.Netem
	return PathProps{Latency: ne.Delay(), Jitter: ne.Jitter(), Loss: ne.Loss(), Bandwidth: c.qdisc.HTB.Rate()}, true
}

// Usage returns the bytes sent toward dst since the previous Usage call —
// the emulation loop's "obtain the bandwidth usage" step.
func (t *TCAL) Usage(dst packet.IP) int64 {
	c := t.chain(dst)
	if c == nil {
		return 0
	}
	total := c.qdisc.HTB.SentBytes
	delta := total - c.lastRead
	c.lastRead = total
	return delta
}

// Requested returns the bytes the application *offered* toward dst since
// the previous Requested call: bytes shaped through plus bytes tail-dropped
// by the full htb queue: the demand the Emulation Core allocates for.
func (t *TCAL) Requested(dst packet.IP) int64 {
	c := t.chain(dst)
	if c == nil {
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
	c := t.chain(dst)
	if c == nil {
		return 0
	}
	return c.qdisc.HTB.SentBytes
}

// Backlog returns bytes queued in the htb toward dst.
func (t *TCAL) Backlog(dst packet.IP) int {
	c := t.chain(dst)
	if c == nil {
		return 0
	}
	return c.qdisc.HTB.Backlog()
}
