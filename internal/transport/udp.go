package transport

import (
	"time"

	"repro/internal/packet"
)

// udpWire is the header bytes a UDP datagram adds to its payload on the
// wire: IP, UDP and the L2 header.
const udpWire = packet.IPHeader + packet.UDPHeader + 14

// SendUDP transmits one datagram of size payload bytes (headers are added
// to the wire size; a negative size counts as 0). The payload value
// travels by reference.
func (s *Stack) SendUDP(dst packet.IP, dstPort, srcPort uint16, size int, payload any) {
	if size < 0 {
		size = 0
	}
	p := s.datagram(dst, dstPort, srcPort, size)
	p.Payload = payload
	s.net.Send(p)
}

// FrameDatagram builds, without sending, a UDP datagram whose payload is
// frame. The packet, and frame with it, belong to the network once sent:
// the pool takes both back after delivery or at a drop.
func (s *Stack) FrameDatagram(dst packet.IP, dstPort, srcPort uint16, frame []byte) *packet.Packet {
	p := s.datagram(dst, dstPort, srcPort, len(frame))
	p.Frame = frame
	return p
}

// SendFrame transmits FrameDatagram(dst, dstPort, srcPort, frame).
func (s *Stack) SendFrame(dst packet.IP, dstPort, srcPort uint16, frame []byte) {
	s.net.Send(s.FrameDatagram(dst, dstPort, srcPort, frame))
}

// datagram draws a UDP packet of size payload bytes from the engine's pool.
func (s *Stack) datagram(dst packet.IP, dstPort, srcPort uint16, size int) *packet.Packet {
	p := s.eng.Packets().Get()
	p.Src, p.Dst = s.ip, dst
	p.SrcPort, p.DstPort = srcPort, dstPort
	p.Proto = packet.UDP
	p.Size = size + udpWire
	return p
}

// HandleUDP installs the datagram handler for a port. A nil handler
// removes it.
func (s *Stack) HandleUDP(port uint16, h UDPHandler) {
	if h == nil {
		delete(s.udp, port)
		return
	}
	s.udp[port] = h
}

// HandleFrame installs the frame handler for a port, which then takes
// every datagram to it. A nil handler removes it.
func (s *Stack) HandleFrame(port uint16, h FrameHandler) {
	if h == nil {
		delete(s.frames, port)
		return
	}
	s.frames[port] = h
}

// receiveUDP hands a datagram to its port's frame or datagram handler.
func (s *Stack) receiveUDP(p *packet.Packet) {
	if h := s.frames[p.DstPort]; h != nil {
		h(p.Src, p.Frame)
		return
	}
	if h := s.udp[p.DstPort]; h != nil {
		h(p.Src, p.SrcPort, p.Size-udpWire, p.Payload)
	}
}

// Ping sends one ICMP echo request of the given wire size (minimum 64
// bytes, like ping(8)) and invokes cb with the measured RTT when the reply
// arrives. There is no timeout: a lost ping simply never calls back.
func (s *Stack) Ping(dst packet.IP, size int, cb func(rtt time.Duration)) {
	if size < 64 {
		size = 64
	}
	id := s.pingSeq
	s.pingSeq++
	s.pings[id] = cb
	s.sendEcho(dst, size, packet.Echo{ID: id, SentAt: s.eng.Now()})
}

func (s *Stack) receiveICMP(p *packet.Packet) {
	echo := p.Echo
	if echo.Reply {
		if cb := s.pings[echo.ID]; cb != nil {
			delete(s.pings, echo.ID)
			cb(s.eng.Now() - echo.SentAt)
		}
		return
	}
	// Echo request: reply with the same id and original timestamp.
	echo.Reply = true
	s.sendEcho(p.Src, p.Size, echo)
}

// sendEcho draws an ICMP packet carrying echo from the engine's pool and
// sends it.
func (s *Stack) sendEcho(dst packet.IP, size int, echo packet.Echo) {
	p := s.eng.Packets().Get()
	p.Src, p.Dst = s.ip, dst
	p.Proto = packet.ICMP
	p.Size = size
	p.Echo = echo
	s.net.Send(p)
}
