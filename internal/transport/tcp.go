// Package transport implements the protocols the evaluation workloads run
// over the simulated networks: a packet-level TCP with Reno and Cubic
// congestion control (the two algorithms compared in §5.3), plus UDP and
// ICMP echo.
//
// The paper's substrate is the Linux kernel TCP; here the congestion-window
// dynamics are reimplemented from the cited papers ([48] Reno, [43] Cubic):
// slow start, congestion avoidance, fast retransmit/fast recovery on three
// duplicate ACKs, and RTO with exponential backoff. Application payloads
// are abstract byte counts — the evaluation only measures throughput and
// latency, never payload content.
package transport

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// CongestionControl selects the sender's congestion avoidance algorithm.
type CongestionControl int

// Supported congestion control algorithms.
const (
	Reno CongestionControl = iota
	Cubic
)

// String returns the algorithm's name as Linux spells it: "reno" or
// "cubic".
func (c CongestionControl) String() string {
	if c == Cubic {
		return "cubic"
	}
	return "reno"
}

const (
	mss            = packet.MSS
	headerBytes    = packet.IPHeader + packet.TCPHeader + 14 // L2 header
	initialCwnd    = 10 * mss
	minRTO         = 200 * time.Millisecond
	initialRTO     = time.Second
	maxRTO         = 60 * time.Second
	cubicC         = 0.4
	cubicBeta      = 0.7
	maxSynAttempts = 6
)

// noEcho marks the absence of a timestamp echo (0 is a valid sim time).
const noEcho = time.Duration(-1)

const (
	flagSYN uint8 = 1 << iota
	flagACK
	flagFIN
)

type addr struct {
	ip   packet.IP
	port uint16
}

type fourTuple struct {
	local, remote addr
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	id    fourTuple
	cc    CongestionControl

	established   bool
	closed        bool
	finSent       bool
	finAcked      bool
	peerFin       bool
	closingWanted bool
	synTries      int

	// Sender state (byte counting; payload content is abstract).
	sndBuf   int64 // bytes the app queued but not yet sent
	sndUna   int64
	sndNext  int64
	cwnd     float64
	ssthresh float64
	inFlight []flight // unacked segments in seq order, a window of flights
	flights  []flight // inFlight's whole array, from its start

	// RTT estimation (RFC 6298).
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	// Recovery state.
	dupAcks    int
	inRecovery bool
	recover    int64
	highSacked int64         // highest byte covered by any SACK block seen
	lastCut    time.Duration // last window reduction (at most one per RTT)
	tsqParked  bool          // throttled by egress backpressure (TSQ)

	// Cubic state ([43]); window quantities in MSS units.
	wMax       float64
	epochStart time.Duration
	cubicK     float64

	// The retransmission timer and the pacing continuation own one
	// engine slot each for the connection's life (freed at teardown), so
	// re-arming the RTO per ACK is one re-key. tsqFn is bound once so
	// that parking on TSQ does not allocate a method value each time.
	rtoTimer, pacer sim.Standing
	tsqFn           func()

	// Receiver state. ooo holds received-but-not-in-order byte ranges,
	// sorted by start and coalesced, so SACK blocks describe large
	// contiguous chunks.
	rcvNxt int64
	ooo    [][2]int64

	// Callbacks (all optional).
	OnConnected func()
	OnData      func(n int)
	// OnMsg fires when a message written with WriteMsg has been fully
	// delivered in order, with the metadata passed by the sender.
	OnMsg   func(meta any)
	OnClose func()

	// Message framing state.
	sndMarks  []packet.Mark  // unacked outgoing marks, ascending End
	totalSent int64          // stream bytes ever queued via Write/WriteMsg
	rcvMarks  map[int64]any  // collected marks awaiting in-order delivery
	rcvFired  map[int64]bool // marks already delivered (dedupe)

	// Stats.
	BytesAcked    int64
	BytesReceived int64
	Retransmits   int64
	RTOs          int64
	FastRecovery  int64
}

type flight struct {
	seq       int64
	length    int
	sentAt    time.Duration
	sacked    bool
	rexmitted bool // retransmitted during the current recovery epoch
}

// Stack is a per-endpoint transport stack: it owns the connections, UDP
// handlers and ICMP responder for one IP address.
type Stack struct {
	eng *sim.Engine
	net packet.Network
	ip  packet.IP

	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	udp       map[uint16]UDPHandler
	frames    map[uint16]FrameHandler
	pings     map[uint16]func(time.Duration)
	nextPort  uint16
	pingSeq   uint16
}

// Listener accepts inbound connections on a port.
type Listener struct {
	// OnAccept is invoked with each newly established connection.
	OnAccept func(*Conn)
	// CC is the congestion control used by accepted connections.
	CC CongestionControl
}

// UDPHandler receives datagrams: source address/port, payload size in
// bytes (excluding headers), and the opaque payload.
type UDPHandler func(src packet.IP, srcPort uint16, size int, payload any)

// FrameHandler receives control datagrams whose payload is a byte frame.
// The frame belongs to the network: it is valid until the handler
// returns, and a handler copies what it keeps.
type FrameHandler func(src packet.IP, frame []byte)

// NewStack creates a transport stack for ip and registers its packet
// handler with the network.
func NewStack(eng *sim.Engine, net packet.Network, ip packet.IP) *Stack {
	s := &Stack{
		eng: eng, net: net, ip: ip,
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		udp:       make(map[uint16]UDPHandler),
		frames:    make(map[uint16]FrameHandler),
		pings:     make(map[uint16]func(time.Duration)),
		nextPort:  10000,
	}
	net.Register(ip, s.receive)
	return s
}

// Listen installs a listener on port.
func (s *Stack) Listen(port uint16, l *Listener) {
	s.listeners[port] = l
}

// Dial opens a connection to dst:port with the given congestion control.
// The returned Conn is usable immediately: writes are buffered until the
// handshake completes.
func (s *Stack) Dial(dst packet.IP, port uint16, cc CongestionControl) *Conn {
	local := addr{ip: s.ip, port: s.allocPort()}
	c := s.newConn(fourTuple{local: local, remote: addr{ip: dst, port: port}}, cc)
	s.conns[c.id] = c
	c.sendSYN()
	return c
}

func (s *Stack) allocPort() uint16 {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < 10000 {
			s.nextPort = 10000
		}
		inUse := false
		for t := range s.conns {
			if t.local.port == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

func (s *Stack) newConn(id fourTuple, cc CongestionControl) *Conn {
	c := &Conn{
		stack:    s,
		id:       id,
		cc:       cc,
		cwnd:     initialCwnd,
		ssthresh: math.MaxFloat64 / 4,
		rto:      initialRTO,
	}
	c.rtoTimer = s.eng.NewStanding(c.onRTO)
	c.pacer = s.eng.NewStanding(c.onPace)
	c.tsqFn = c.onTSQWake
	return c
}

// receive is the stack's packet handler. The network releases p when it
// returns, so nothing here keeps the packet or its segment.
func (s *Stack) receive(p *packet.Packet) {
	switch p.Proto {
	case packet.TCP:
		s.receiveTCP(p)
	case packet.UDP:
		s.receiveUDP(p)
	case packet.ICMP:
		s.receiveICMP(p)
	}
}

func (s *Stack) receiveTCP(p *packet.Packet) {
	seg := &p.TCP
	id := fourTuple{
		local:  addr{ip: s.ip, port: p.DstPort},
		remote: addr{ip: p.Src, port: p.SrcPort},
	}
	c := s.conns[id]
	if c == nil {
		if seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0 {
			if l := s.listeners[p.DstPort]; l != nil {
				c = s.newConn(id, l.CC)
				c.established = true
				s.conns[id] = c
				c.sendFlags(flagSYN|flagACK, 0, seg.TS)
				if l.OnAccept != nil {
					l.OnAccept(c)
				}
			}
		}
		return
	}
	c.receive(seg)
}

// --- Conn sender side ---

// Write queues n application bytes for transmission.
func (c *Conn) Write(n int) {
	if c.closed || c.finSent || c.closingWanted || n <= 0 {
		return
	}
	c.sndBuf += int64(n)
	c.totalSent += int64(n)
	if c.established {
		c.trySend()
	}
}

// WriteMsg queues an n-byte application message and attaches metadata that
// the peer's OnMsg callback receives once all n bytes have arrived in
// order. This is how the RPC-style workloads (key-value stores, state
// machine replication) frame typed messages over the byte-counting stream.
func (c *Conn) WriteMsg(n int, meta any) {
	if c.closed || c.finSent || c.closingWanted || n <= 0 {
		return
	}
	c.sndBuf += int64(n)
	c.totalSent += int64(n)
	c.sndMarks = append(c.sndMarks, packet.Mark{End: c.totalSent, Meta: meta})
	if c.established {
		c.trySend()
	}
}

// Buffered returns the bytes queued but not yet sent.
func (c *Conn) Buffered() int64 { return c.sndBuf }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.established }

// Closed reports whether the connection fully closed.
func (c *Conn) Closed() bool { return c.closed }

// Close requests an orderly shutdown once all buffered data is sent.
func (c *Conn) Close() {
	if c.closed || c.finSent {
		return
	}
	if c.sndBuf == 0 && c.sndNext == c.sndUna {
		c.sendFIN()
		return
	}
	// FIN goes out when the buffer drains (checked in trySend/receive).
	c.closingWanted = true
}

func (c *Conn) sendSYN() {
	c.synTries++
	if c.synTries > maxSynAttempts {
		c.teardown()
		return
	}
	c.sendFlags(flagSYN, 0, noEcho)
	tries := c.synTries
	backoff := initialRTO << (tries - 1)
	c.stack.eng.After(backoff, func() {
		if !c.established && !c.closed && c.synTries == tries {
			c.sendSYN()
		}
	})
}

func (c *Conn) sendFlags(flags uint8, ack int64, echo time.Duration) {
	p := c.segment(flags, headerBytes)
	p.TCP.Ack = ack
	if echo != noEcho {
		p.TCP.TSEcho = echo
		p.TCP.HasEcho = true
	}
	if flags&flagACK != 0 {
		p.TCP.SACK = c.appendSACK(p.TCP.SACK)
	}
	c.stack.net.Send(p)
}

// appendSACK appends the receiver's coalesced out-of-order ranges, lowest
// first, capped at 32 blocks. A real TCP receiver is limited to 3-4 SACK
// blocks per ACK but re-advertises different blocks on every duplicate
// ACK; a generous cap conveys the same information without simulating the
// rotation, while bounding per-ACK work when loss fragments the window.
func (c *Conn) appendSACK(dst [][2]int64) [][2]int64 {
	return append(dst, c.ooo[:min(len(c.ooo), 32)]...)
}

// oooInsert adds [s,e) to the out-of-order set, keeping it sorted and
// coalesced.
func (c *Conn) oooInsert(s, e int64) {
	if e <= s {
		return
	}
	// Find insertion point.
	i := 0
	for i < len(c.ooo) && c.ooo[i][0] < s {
		i++
	}
	c.ooo = append(c.ooo, [2]int64{})
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = [2]int64{s, e}
	// Coalesce around i.
	j := i
	if j > 0 && c.ooo[j-1][1] >= c.ooo[j][0] {
		j--
	}
	for j+1 < len(c.ooo) && c.ooo[j][1] >= c.ooo[j+1][0] {
		if c.ooo[j+1][1] > c.ooo[j][1] {
			c.ooo[j][1] = c.ooo[j+1][1]
		}
		c.ooo = append(c.ooo[:j+1], c.ooo[j+2:]...)
	}
}

// segment draws a packet of size wire bytes from the engine's pool,
// addressed along the connection and carrying a segment with flags,
// timestamped now. The caller fills in the rest and sends it.
func (c *Conn) segment(flags uint8, size int) *packet.Packet {
	p := c.stack.eng.Packets().Get()
	p.Src, p.Dst = c.id.local.ip, c.id.remote.ip
	p.SrcPort, p.DstPort = c.id.local.port, c.id.remote.port
	p.Proto = packet.TCP
	p.Size = size
	p.TCP.Flags = flags
	p.TCP.TS = c.stack.eng.Now()
	return p
}

// pipeEstimate returns the bytes believed to be in the network per the
// RFC 6675 rules: SACKed bytes are out; un-SACKed bytes entirely below the
// highest SACK block are deemed lost (out) unless retransmitted.
func (c *Conn) pipeEstimate() float64 {
	var out int64
	for _, f := range c.inFlight {
		if f.sacked {
			out += int64(f.length)
			continue
		}
		if !f.rexmitted && f.seq+int64(f.length) <= c.highSacked {
			out += int64(f.length) // lost
		}
	}
	return float64(c.sndNext - c.sndUna - out)
}

// maxBurst caps segments emitted per transmission opportunity; remaining
// window is drained by the pacer, keeping the sender ACK-clocked the way
// fq pacing does on a real host.
const maxBurst = 8

// writable consults the network's egress backpressure (TSQ). When the
// qdisc toward the peer is over its threshold the connection parks itself
// and resumes on the drain callback — the kernel behaviour §3 describes:
// congestion at the shaper throttles the socket instead of dropping.
func (c *Conn) writable(n int) bool {
	fc, ok := c.stack.net.(packet.FlowControl)
	if !ok || fc.Writable(c.id.local.ip, c.id.remote.ip, n) {
		return true
	}
	if !c.tsqParked {
		c.tsqParked = true
		fc.NotifyWritable(c.id.local.ip, c.id.remote.ip, c.tsqFn)
	}
	return false
}

func (c *Conn) onTSQWake() {
	c.tsqParked = false
	c.trySend()
}

func (c *Conn) onPace() {
	c.trySend()
}

func (c *Conn) trySend() {
	if !c.established || c.closed {
		return
	}
	if c.inRecovery {
		c.recoveryTransmit()
	} else {
		sent := 0
		for c.sndBuf > 0 && sent < maxBurst && float64(c.sndNext-c.sndUna)+mss <= c.cwnd+mss-1 && c.writable(mss) {
			n := int64(mss)
			if n > c.sndBuf {
				n = c.sndBuf
			}
			c.sendData(c.sndNext, int(n), false)
			c.sndNext += n
			c.sndBuf -= n
			sent++
		}
	}
	// If the window is still open with data waiting, schedule a paced
	// continuation so a large window never turns into an instant burst.
	// Recovery is purely ACK-clocked (with RTO as fallback): pacing there
	// would spin no-op wakeups while the pipe is full. A TSQ-parked
	// connection resumes from the drain callback instead.
	if !c.inRecovery && !c.tsqParked && c.sndBuf > 0 && float64(c.sndNext-c.sndUna)+mss <= c.cwnd && !c.pacer.Pending() {
		c.pacer.At(c.stack.eng.Now() + c.paceDelay())
	}
	if c.sndBuf == 0 && c.closingWanted && !c.finSent && c.sndNext == c.sndUna {
		c.sendFIN()
	}
}

// paceDelay spaces bursts so that cwnd is spread over roughly one RTT:
// delay ≈ srtt · burst/cwnd, clamped to [10µs, 1ms].
func (c *Conn) paceDelay() time.Duration {
	d := 100 * time.Microsecond
	if c.srtt > 0 && c.cwnd > 0 {
		d = time.Duration(float64(c.srtt) * maxBurst * mss / c.cwnd / 2)
	}
	if d < 10*time.Microsecond {
		d = 10 * time.Microsecond
	}
	if d > time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (c *Conn) sendData(seq int64, length int, rexmit bool) {
	now := c.stack.eng.Now()
	p := c.segment(flagACK, length+headerBytes)
	p.TCP.Seq, p.TCP.Len, p.TCP.Ack = seq, length, c.rcvNxt
	// Attach the message marks whose end offset falls inside this
	// segment (retransmissions re-attach; the receiver dedupes).
	end := seq + int64(length)
	for _, mk := range c.sndMarks {
		if mk.End > end {
			break
		}
		if mk.End > seq {
			p.TCP.Marks = append(p.TCP.Marks, mk)
		}
	}
	c.stack.net.Send(p)
	if rexmit {
		c.Retransmits++
		// Replace the flight entry's timestamp so RTT sampling via
		// timestamp echo stays valid (Karn).
		for i := range c.inFlight {
			if c.inFlight[i].seq == seq {
				c.inFlight[i].sentAt = now
				c.inFlight[i].rexmitted = true
			}
		}
	} else {
		c.pushFlight(flight{seq: seq, length: length, sentAt: now})
	}
	c.startRTO()
}

// pushFlight appends f to inFlight. Acked flights are sliced off the
// front, so once the array runs out the live flights slide back to its
// start, unless they fill more than half of it: then it grows. A
// steady window reuses one array however long the transfer runs.
func (c *Conn) pushFlight(f flight) {
	if len(c.inFlight) == cap(c.inFlight) {
		if 2*len(c.inFlight) >= cap(c.flights) {
			c.inFlight = append(c.inFlight, f)
			c.flights = c.inFlight[:0]
			return
		}
		c.inFlight = append(c.flights[:0], c.inFlight...)
	}
	c.inFlight = append(c.inFlight, f)
}

func (c *Conn) sendFIN() {
	c.finSent = true
	seq := c.sndNext
	c.sndNext++ // FIN occupies one sequence slot
	c.pushFlight(flight{seq: seq, length: 0, sentAt: c.stack.eng.Now()})
	c.emitFIN(seq)
	c.startRTO()
}

// emitFIN sends a FIN in sequence slot seq.
func (c *Conn) emitFIN(seq int64) {
	p := c.segment(flagFIN|flagACK, headerBytes)
	p.TCP.Seq, p.TCP.Ack = seq, c.rcvNxt
	c.stack.net.Send(p)
}

// armRTO (re)starts the retransmission timer: one re-key when it is
// already pending. Only an ACK of new data restarts a running timer
// (RFC 6298 §5.3); a transmission starts it (startRTO).
func (c *Conn) armRTO() {
	c.rtoTimer.At(c.stack.eng.Now() + c.rto)
}

// startRTO starts the retransmission timer unless it is running: RFC
// 6298 §5.1, for every segment that occupies sequence space, a
// retransmission included. A running timer already times the oldest
// outstanding segment; restarting it on each send would let SACK
// recovery's new data push a lost retransmission's timeout back for as
// long as the sender has data.
func (c *Conn) startRTO() {
	if !c.rtoTimer.Pending() {
		c.armRTO()
	}
}

func (c *Conn) onRTO() {
	if c.closed || c.sndUna == c.sndNext {
		return
	}
	c.RTOs++
	c.ssthresh = math.Max(c.pipeEstimate()/2, 2*mss)
	c.lastCut = c.stack.eng.Now()
	c.cwnd = mss
	c.epochStart = 0
	c.dupAcks = 0
	c.inRecovery = false
	// Go-back-N: everything unacked returns to the send buffer.
	finPending := c.finSent
	rewound := c.sndNext - c.sndUna
	if finPending {
		rewound-- // the FIN slot is not app data
	}
	c.sndBuf += rewound
	c.sndNext = c.sndUna
	c.inFlight = c.inFlight[:0]
	c.finSent = false
	if finPending {
		c.closingWanted = true
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.trySend()
}

// receive processes one inbound segment on an established (or half-open)
// connection.
func (c *Conn) receive(seg *packet.Segment) {
	if c.closed {
		return
	}
	eng := c.stack.eng

	// Handshake completion (client side).
	if seg.Flags&flagSYN != 0 && seg.Flags&flagACK != 0 && !c.established {
		c.established = true
		if seg.HasEcho {
			c.rttSample(eng.Now() - seg.TSEcho)
		}
		c.sendFlags(flagACK, c.rcvNxt, seg.TS)
		if c.OnConnected != nil {
			c.OnConnected()
		}
		c.trySend()
		return
	}

	// ACK processing.
	if seg.Flags&flagACK != 0 {
		c.processAck(seg)
	}

	// Data.
	if seg.Len > 0 {
		c.processData(seg)
	}

	// FIN.
	if seg.Flags&flagFIN != 0 {
		c.peerFin = true
		c.sendFlags(flagACK, seg.Seq+1, seg.TS)
		if c.OnClose != nil {
			c.OnClose()
		}
		if c.finAcked || (!c.finSent && !c.closingWanted) {
			c.teardown()
		}
	}
}

func (c *Conn) processAck(seg *packet.Segment) {
	ack := seg.Ack
	// Apply SACK information to the scoreboard first: sacked flights are
	// never retransmitted during recovery.
	if len(seg.SACK) > 0 {
		for _, r := range seg.SACK {
			if r[1] > c.highSacked {
				c.highSacked = r[1]
			}
		}
		// Merge-scan: flights are in ascending seq order and so are the
		// SACK ranges, so one pass over each suffices (the scoreboard
		// update must not be O(flights × ranges) — burst loss fragments
		// the window into hundreds of ranges).
		ri := 0
		for i := range c.inFlight {
			f := &c.inFlight[i]
			end := f.seq + int64(f.length)
			for ri < len(seg.SACK) && seg.SACK[ri][1] < end {
				ri++
			}
			if ri == len(seg.SACK) {
				break
			}
			if !f.sacked && f.seq >= seg.SACK[ri][0] && end <= seg.SACK[ri][1] {
				f.sacked = true
			}
		}
	}
	if ack > c.sndUna {
		newly := ack - c.sndUna
		c.sndUna = ack
		if ack > c.sndNext {
			c.takePastGoBackN(ack)
		}
		c.BytesAcked += newly
		c.dupAcks = 0
		// Drop acked message marks.
		mi := 0
		for mi < len(c.sndMarks) && c.sndMarks[mi].End <= ack {
			mi++
		}
		c.sndMarks = c.sndMarks[mi:]
		// Drop acked flights.
		i := 0
		for i < len(c.inFlight) && c.inFlight[i].seq+int64(c.inFlight[i].length) <= ack {
			i++
		}
		c.inFlight = c.inFlight[i:]
		if seg.HasEcho {
			c.rttSample(c.stack.eng.Now() - seg.TSEcho)
		}
		if c.inRecovery {
			if ack >= c.recover {
				c.inRecovery = false
				c.cwnd = c.ssthresh
			}
			// Partial acks fall through to trySend, which drives
			// recoveryTransmit while still in recovery.
		} else {
			c.grow(float64(newly))
		}
		if c.sndUna == c.sndNext {
			c.rtoTimer.Stop()
			c.rto = c.boundedRTO()
			if c.finSent {
				c.finAcked = true
				if c.peerFin {
					c.teardown()
					return
				}
			}
		} else {
			c.armRTO()
		}
		c.trySend()
		return
	}
	// Duplicate ACK — per RFC 5681 only a segment with no payload and no
	// SYN/FIN counts (data-bearing segments from the peer repeat the
	// cumulative ACK legitimately on bidirectional connections).
	if ack == c.sndUna && c.sndNext > c.sndUna &&
		seg.Len == 0 && seg.Flags&(flagSYN|flagFIN) == 0 {
		c.dupAcks++
		if c.inRecovery {
			c.recoveryTransmit()
			return
		}
		if c.dupAcks == 3 {
			c.enterRecovery()
		}
	}
}

// takePastGoBackN takes an ACK beyond sndNext. Only an RTO's go-back-N
// leaves sndNext behind what the receiver holds: the acknowledged bytes
// leave the send buffer instead of being sent again, and an acknowledged
// FIN slot counts as sent and acked, so no second FIN goes out.
func (c *Conn) takePastGoBackN(ack int64) {
	taken := ack - c.sndNext
	if c.closingWanted && taken > c.sndBuf {
		// The receiver holds the FIN the timeout rewound.
		taken = c.sndBuf
		c.closingWanted, c.finSent = false, true
	}
	c.sndBuf -= taken
	c.sndNext = ack
}

// recoveryTransmit performs SACK-based loss recovery: while the pipe
// estimate leaves room under cwnd, retransmit the scoreboard's holes
// (lowest first), then new data. cwnd stays pinned at ssthresh — no
// NewReno window inflation, which melts down under burst loss. Each
// invocation sends at most maxBurst segments so transmission stays
// ACK-clocked instead of dumping a window into the bottleneck queue.
func (c *Conn) recoveryTransmit() {
	pipe := c.pipeEstimate()
	for sent := 0; sent < maxBurst && pipe+mss <= c.cwnd && c.writable(mss); sent++ {
		if c.retransmitNextHole() {
			pipe += mss
			continue
		}
		if c.sndBuf > 0 {
			n := int64(mss)
			if n > c.sndBuf {
				n = c.sndBuf
			}
			c.sendData(c.sndNext, int(n), false)
			c.sndNext += n
			c.sndBuf -= n
			pipe += float64(n)
			continue
		}
		break
	}
}

func (c *Conn) enterRecovery() {
	c.FastRecovery++
	// Reduce the window at most once per RTT (RFC 6582 spirit; PRR does
	// the same): rapid-fire loss events from a single overflow episode
	// must not multiply the reduction.
	now := c.stack.eng.Now()
	if now-c.lastCut >= c.srtt {
		c.lastCut = now
		// Base the new threshold on the pipe estimate — bytes actually
		// in the network — not on snd.nxt-snd.una, which double-counts
		// bytes already lost and would leave cwnd at 100% of path
		// capacity after recovery.
		base := c.pipeEstimate()
		if base < 2*mss {
			base = 2 * mss
		}
		switch c.cc {
		case Cubic:
			c.wMax = base / mss
			c.ssthresh = math.Max(base*cubicBeta, 2*mss)
			c.epochStart = 0
		default: // Reno
			c.ssthresh = math.Max(base/2, 2*mss)
		}
	}
	c.cwnd = c.ssthresh
	c.inRecovery = true
	c.recover = c.sndNext
	for i := range c.inFlight {
		c.inFlight[i].rexmitted = false
	}
	c.retransmitNextHole()
}

// retransmitNextHole resends the earliest flight the scoreboard deems LOST
// (RFC 6675: un-SACKed with later data delivered — i.e. below highSacked),
// not yet retransmitted this epoch. Un-SACKed flights above highSacked may
// simply still be queued in the network; retransmitting those floods the
// receiver with duplicates whose dup-ACKs masquerade as new loss events.
// It reports whether anything was sent.
func (c *Conn) retransmitNextHole() bool {
	for i := range c.inFlight {
		f := &c.inFlight[i]
		if f.seq >= c.recover {
			return false
		}
		if f.sacked || f.rexmitted {
			continue
		}
		if f.seq+int64(f.length) > c.highSacked && f.length > 0 {
			// Not provably lost yet; wait for more SACK evidence.
			return false
		}
		if f.length == 0 { // FIN
			f.rexmitted = true
			c.emitFIN(f.seq)
			c.Retransmits++
			c.startRTO()
			return true
		}
		c.sendData(f.seq, f.length, true)
		return true
	}
	return false
}

// grow applies slow start or congestion avoidance for newly acked bytes.
func (c *Conn) grow(acked float64) {
	if c.cwnd < c.ssthresh {
		// Slow start: exponential per RTT, at most 2 SMSS per ACK
		// (RFC 3465, L = 2), however much one ACK covers.
		c.cwnd += math.Min(acked, 2*mss)
		if c.cwnd > c.ssthresh && c.cc == Cubic {
			c.epochStart = 0
		}
		return
	}
	switch c.cc {
	case Cubic:
		c.growCubic(acked)
	default:
		// Reno additive increase: one MSS per cwnd of acked data.
		c.cwnd += mss * mss / c.cwnd * (acked / mss)
	}
}

func (c *Conn) growCubic(acked float64) {
	now := c.stack.eng.Now()
	if c.epochStart == 0 {
		c.epochStart = now
		wc := c.cwnd / mss
		if c.wMax < wc {
			c.wMax = wc
		}
		c.cubicK = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	}
	t := (now - c.epochStart + c.srtt).Seconds()
	target := cubicC*math.Pow(t-c.cubicK, 3) + c.wMax // in MSS
	cwndMSS := c.cwnd / mss
	if target > cwndMSS {
		// Approach the cubic target proportionally to acked data.
		c.cwnd += mss * (target - cwndMSS) / cwndMSS * (acked / mss)
	} else {
		// In the TCP-friendly / plateau region grow slowly.
		c.cwnd += 0.01 * mss * (acked / mss)
	}
}

func (c *Conn) rttSample(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.boundedRTO()
}

func (c *Conn) boundedRTO() time.Duration {
	// Floor the variance term: with a perfectly steady RTT, rttvar decays
	// toward zero and RTO would converge onto SRTT itself, firing
	// spuriously on any sub-millisecond processing delay at the peer
	// (kernels floor this the same way).
	slack := 4 * c.rttvar
	if slack < c.srtt/8 {
		slack = c.srtt / 8
	}
	if slack < 10*time.Millisecond {
		slack = 10 * time.Millisecond
	}
	r := c.srtt + slack
	if r < minRTO {
		r = minRTO
	}
	if r > maxRTO {
		r = maxRTO
	}
	if r == 0 {
		r = initialRTO
	}
	return r
}

func (c *Conn) processData(seg *packet.Segment) {
	// Collect message marks; they fire once the stream is in-order past
	// their end offset (duplicates from retransmissions are deduped).
	if len(seg.Marks) > 0 {
		if c.rcvMarks == nil {
			c.rcvMarks = make(map[int64]any)
			c.rcvFired = make(map[int64]bool)
		}
		for _, mk := range seg.Marks {
			if !c.rcvFired[mk.End] {
				c.rcvMarks[mk.End] = mk.Meta
			}
		}
	}
	end := seg.Seq + int64(seg.Len)
	advanced := int64(0)
	if seg.Seq <= c.rcvNxt {
		if end > c.rcvNxt {
			advanced = end - c.rcvNxt
			c.rcvNxt = end
			// Consume coalesced out-of-order ranges now contiguous with
			// (or below) the cumulative point.
			for len(c.ooo) > 0 && c.ooo[0][0] <= c.rcvNxt {
				if c.ooo[0][1] > c.rcvNxt {
					advanced += c.ooo[0][1] - c.rcvNxt
					c.rcvNxt = c.ooo[0][1]
				}
				c.ooo = c.ooo[1:]
			}
		}
	} else {
		// Out of order: stash and dup-ack.
		c.oooInsert(seg.Seq, end)
	}
	// Acknowledge (every segment; no delayed ACKs).
	c.sendFlags(flagACK, c.rcvNxt, seg.TS)
	if advanced > 0 {
		c.BytesReceived += advanced
		if c.OnData != nil {
			c.OnData(int(advanced))
		}
		if len(c.rcvMarks) > 0 && c.OnMsg != nil {
			c.fireMarks()
		}
	}
}

// fireMarks delivers message metadata for all marks at or below the
// in-order point, in stream order.
func (c *Conn) fireMarks() {
	for {
		var best int64 = -1
		for end := range c.rcvMarks {
			if end <= c.rcvNxt && (best < 0 || end < best) {
				best = end
			}
		}
		if best < 0 {
			return
		}
		meta := c.rcvMarks[best]
		delete(c.rcvMarks, best)
		c.rcvFired[best] = true
		c.OnMsg(meta)
	}
}

func (c *Conn) teardown() {
	if c.closed {
		return
	}
	c.closed = true
	c.rtoTimer.Free()
	c.pacer.Free()
	delete(c.stack.conns, c.id)
}
