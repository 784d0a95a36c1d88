package transport

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// The zero-alloc contract of the transport: over the physical-cluster
// star, a warm UDP datagram, an ICMP echo round trip and bulk TCP
// segments with their ACKs allocate nothing. Every packet comes from the
// engine's pool and goes back when the fabric delivers it. The bulk op is
// a window's worth of segments, so a flight list that outgrows its array
// shows within the run count.
func TestSendsAllocateNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw, hosts := fabric.Star(eng, 2, 10*units.Gbps, 50*time.Microsecond)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(1, 0, 1)
	nw.AttachEndpoint(hosts[0], ipA, nil)
	nw.AttachEndpoint(hosts[1], ipB, nil)
	cli, srv := NewStack(eng, nw, ipA), NewStack(eng, nw, ipB)
	settle := func() { eng.Run(eng.Now() + time.Millisecond) }

	datagrams := 0
	srv.HandleUDP(9, func(packet.IP, uint16, int, any) { datagrams++ })
	replies := 0
	pong := func(time.Duration) { replies++ }
	var received int
	srv.Listen(80, &Listener{OnAccept: func(c *Conn) { c.OnData = func(n int) { received += n } }})
	conn := cli.Dial(ipB, 80, Cubic)
	conn.Write(4 << 20) // slow start behind it: cwnd, arrays and the slot table at working size
	eng.Run(time.Second)

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"UDP datagram", func() { cli.SendUDP(ipB, 9, 9, 512, nil); settle() }},
		{"ICMP echo round trip", func() { cli.Ping(ipB, 64, pong); settle() }},
		{"64 bulk TCP segments", func() { conn.Write(64 * packet.MSS); settle() }},
	} {
		tc.op()
		if got := testing.AllocsPerRun(500, tc.op); got != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, got)
		}
	}
	if datagrams != 502 || replies != 502 || received != 4<<20+502*64*packet.MSS {
		t.Fatalf("delivered %d datagrams, %d echo replies, %d TCP bytes", datagrams, replies, received)
	}
	if out, frames := eng.Packets().Outstanding(); out != 0 || frames != 0 {
		t.Fatalf("%d packets and %d frames not back in the pool at rest", out, frames)
	}
}
