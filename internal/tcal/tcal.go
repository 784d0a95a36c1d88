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
// Props reads them back. Each job has one call: InstallPath creates or
// changes a chain in place (tc qdisc replace), SetBandwidth moves its
// rate, Poll reads its usage, RemovePath discards it, and Send drops and
// counts a packet toward a destination that has none.
package tcal

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// PathProps are the end-to-end properties enforced toward one destination
// (the collapsed virtual link of Figure 1): a collapsed path's LinkProps.
type PathProps = graph.LinkProps

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
	dst   packet.IP
	qdisc *netem.Chain
	// Poll's cursors: sent and offered bytes at the previous Poll.
	lastSent, lastOffered int64
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

// InstallPath creates the qdisc chain toward dst, or changes the
// installed one in place, like tc qdisc replace: the netem stage takes
// p's delay, jitter and loss, then the htb its rate, and the chain keeps
// its backlog, counters and parked senders. It fails, installing
// nothing, when another destination sharing dst's last two octets is
// installed: the filter could not tell the two apart.
func (t *TCAL) InstallPath(dst packet.IP, p PathProps) error {
	page := t.chains[dst[2]]
	if page == nil {
		page = new([256]*chain)
		t.chains[dst[2]] = page
	}
	c := page[dst[3]]
	switch {
	case c == nil:
		page[dst[3]] = &chain{
			dst:   dst,
			qdisc: netem.NewChain(t.eng, netem.ChainProps{Delay: p.Latency, Jitter: p.Jitter, Loss: p.Loss, Rate: p.Bandwidth}, t.egress),
		}
		t.dstsDirty = true
	case c.dst != dst:
		return fmt.Errorf("tcal: path to %v collides with installed %v on octets 3-4", dst, c.dst)
	default:
		c.qdisc.Netem.Set(p.Latency, p.Jitter, p.Loss)
		c.qdisc.HTB.SetRate(p.Bandwidth)
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
// egress hook. A packet toward a destination without a chain (unknown or
// unreachable in the current topology state) is dropped and counted in
// UnmatchedDropped: the TCAL's one drop site.
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

// Poll returns the bytes sent toward dst and the bytes offered toward it
// since the previous Poll — the emulation loop's "obtain the bandwidth
// usage" step. Offered bytes are those shaped through plus those
// tail-dropped by the full htb queue plus the growth of its backlog: the
// demand the Emulation Core allocates for. Offered never reads negative.
func (t *TCAL) Poll(dst packet.IP) (sent, offered int64) {
	c := t.chain(dst)
	if c == nil {
		return 0, 0
	}
	htb := c.qdisc.HTB
	total := htb.SentBytes
	sent, c.lastSent = total-c.lastSent, total
	total += htb.DroppedBytes + int64(htb.Backlog())
	offered, c.lastOffered = max(total-c.lastOffered, 0), total
	return sent, offered
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
