// Package packet defines the wire unit shared by every network substrate in
// the repository: the qdisc layer, the packet fabric, the transport
// protocols and the baseline emulators all move Packets.
package packet

import (
	"fmt"
	"math/bits"
	"time"
)

// IP is an IPv4-style address. Kollaps' u32 filter hashes the third and
// fourth octets (§3), which is why we keep the full 4-byte form.
type IP [4]byte

// MakeIP builds an address 10.h.a.b — the overlay network scheme used by
// the deployment generator (host index in the second octet).
func MakeIP(h, a, b byte) IP { return IP{10, h, a, b} }

// String formats ip in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Proto tags the transport protocol of a packet.
type Proto uint8

// Supported protocols.
const (
	TCP Proto = iota
	UDP
	ICMP
)

// Header sizes in bytes. MSS payloads plus these yield the on-wire size
// accounted by the shapers — which is what produces the characteristic
// ≈ −4/−5 % goodput-vs-line-rate signature of Table 2.
const (
	EthernetOverhead = 38 // preamble + header + FCS + min IFG
	IPHeader         = 20
	TCPHeader        = 32 // incl. timestamp option, as modern stacks use
	UDPHeader        = 8
	MTU              = 1514 // on-wire frame excluding EthernetOverhead extras accounted separately
	MSS              = 1448 // MTU - IP - TCP headers - 14B L2 header
)

// Packet is one simulated datagram/segment. Size is authoritative for all
// byte accounting; the typed fields carry what each protocol needs, so a
// packet is one object whatever it transports.
//
// Ownership: the network owns a Packet, and its Frame bytes, from Send
// until the delivery handler returns or a drop site releases it. A sender
// does not touch a packet after Send; a handler reads it and copies what it
// keeps. Packets drawn from a Pool go back with Release; a hand-built
// packet is never pooled, so releasing it is a no-op.
type Packet struct {
	Src, Dst         IP
	SrcPort, DstPort uint16
	Proto            Proto
	// Size is the on-wire size in bytes including headers.
	Size int
	// TCP is the segment a TCP packet carries.
	TCP Segment
	// Echo is the body of an ICMP echo request or reply.
	Echo Echo
	// Frame is a control datagram's payload (UDP). Release returns it to
	// the pool's frame classes with the packet.
	Frame []byte
	// Payload is an application UDP datagram's opaque payload.
	Payload any

	pool     *Pool
	released bool
	// Route is scratch space for the network that owns the packet: the
	// fabric carries the destination endpoint it resolved at Send here.
	// It is declared last, where it fits in the struct's padding.
	Route int32
}

// Segment is the TCP header state a TCP packet carries. Payload content is
// abstract: Len counts the bytes.
type Segment struct {
	Flags   uint8
	HasEcho bool
	Seq     int64 // first payload byte (or the SYN/FIN sequence slot)
	Len     int   // payload bytes
	Ack     int64 // cumulative acknowledgement
	TS      time.Duration
	TSEcho  time.Duration
	// SACK carries received-but-not-acked ranges; Marks the message
	// boundaries inside this segment's payload. Both keep their capacity
	// across a pooled packet's reuse.
	SACK  [][2]int64
	Marks []Mark
}

// Mark ties application message metadata to the stream offset at which
// the message ends; the receiver fires it once the bytes up to End have
// been delivered in order.
type Mark struct {
	End  int64
	Meta any
}

// Echo is an ICMP echo body: the request id and the requester's clock,
// both returned in the reply.
type Echo struct {
	ID     uint16
	Reply  bool
	SentAt time.Duration
}

// AssertLive panics when p has been released: from then on the pool owns
// it, and any use is a use after release. site names the caller.
func (p *Packet) AssertLive(site string) {
	if p != nil && p.released {
		panic("packet: " + site + " of a released packet")
	}
}

// Release hands p, and its frame, back to the pool it came from. It is a
// no-op for a packet no pool handed out, and panics for one already
// released.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.released {
		panic("packet: Release of a released packet")
	}
	if p.Frame != nil {
		pl.ReleaseFrame(p.Frame)
	}
	// Field by field: assigning a whole Packet compiles to a block copy
	// of a zeroed temporary (runtime.duffcopy), the bulk of a release.
	p.Src, p.Dst = IP{}, IP{}
	p.SrcPort, p.DstPort = 0, 0
	p.Proto = 0
	p.Size = 0
	p.TCP.Flags, p.TCP.HasEcho = 0, false
	p.TCP.Seq, p.TCP.Len, p.TCP.Ack = 0, 0, 0
	p.TCP.TS, p.TCP.TSEcho = 0, 0
	p.TCP.SACK = p.TCP.SACK[:0]
	clear(p.TCP.Marks) // drop the metadata references
	p.TCP.Marks = p.TCP.Marks[:0]
	p.Echo = Echo{}
	p.Frame = nil
	p.Payload = nil
	p.Route = 0
	p.released = true
	pl.free = append(pl.free, p)
	pl.out--
}

// Frame size classes: powers of two from 64 B to 64 KiB.
const (
	minFrameShift = 6
	frameClasses  = 11
)

// Pool is a free list of packets, and of frames by size class. Reuse is
// LIFO, so under a deterministic caller it is deterministic too. The zero
// value is ready to use; it is not safe for concurrent use.
type Pool struct {
	free      []*Packet
	frames    [frameClasses][][]byte
	out       int // packets handed out and not released
	framesOut int // frames handed out and not released
}

// Get returns a zeroed packet; its TCP.SACK and TCP.Marks are empty with
// whatever capacity earlier use gave them.
func (pl *Pool) Get() *Packet {
	pl.out++
	n := len(pl.free)
	if n == 0 {
		return &Packet{pool: pl}
	}
	p := pl.free[n-1]
	pl.free = pl.free[:n-1]
	p.released = false
	return p
}

// Frame returns an empty buffer with capacity at least n. The caller
// gives it back with ReleaseFrame, or by sending it as a pooled packet's
// Frame.
func (pl *Pool) Frame(n int) []byte {
	pl.framesOut++
	c := 0
	if n > 1<<minFrameShift {
		c = bits.Len(uint(n-1)) - minFrameShift
	}
	if c >= frameClasses {
		return make([]byte, 0, n)
	}
	if k := len(pl.frames[c]); k > 0 {
		f := pl.frames[c][k-1]
		pl.frames[c] = pl.frames[c][:k-1]
		return f
	}
	return make([]byte, 0, 1<<(c+minFrameShift))
}

// ReleaseFrame takes back a frame Frame handed out; the caller must not
// use it afterwards.
func (pl *Pool) ReleaseFrame(f []byte) {
	pl.framesOut--
	c := bits.Len(uint(cap(f))) - 1 - minFrameShift
	if c < 0 {
		return
	}
	if c >= frameClasses {
		c = frameClasses - 1
	}
	pl.frames[c] = append(pl.frames[c], f[:0])
}

// Outstanding reports the packets and the frames handed out that have not
// come back. With nothing queued, in flight or scheduled, both are 0
// unless an owner dropped one without releasing it.
func (pl *Pool) Outstanding() (packets, frames int) { return pl.out, pl.framesOut }

// Handler consumes delivered packets.
type Handler func(*Packet)

// Network is the minimal interface transports need: inject a packet and let
// the substrate route and deliver it to the handler registered for the
// destination address.
type Network interface {
	// Send injects p at its source endpoint.
	Send(p *Packet)
	// Register installs the delivery handler for an address.
	Register(ip IP, h Handler)
}

// FlowControl is optionally implemented by networks whose egress queues
// backpressure the sender — the Linux TSQ behaviour (§3 "Congestion"):
// when a qdisc's backlog passes the per-socket limit the kernel throttles
// the socket instead of dropping. Transports consult Writable before
// emitting data segments and park on NotifyWritable when throttled.
type FlowControl interface {
	// Writable reports whether n more bytes from src toward dst fit
	// under the egress queue's throttle threshold.
	Writable(src, dst IP, n int) bool
	// NotifyWritable registers a one-shot callback invoked when the
	// egress from src toward dst drains below the threshold.
	NotifyWritable(src, dst IP, fn func())
}
