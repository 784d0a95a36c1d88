package fabric

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func props(lat time.Duration, bw units.Bandwidth) graph.LinkProps {
	return graph.LinkProps{Latency: lat, Bandwidth: bw}
}

// lineTopology builds a -- s -- b with the given link properties.
func lineTopology(lp graph.LinkProps) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	s := g.MustAddNode("s", graph.Bridge)
	g.AddBiLink(a, s, lp)
	g.AddBiLink(s, b, lp)
	return g, a, b
}

func TestDeliveryAndLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineTopology(props(10*time.Millisecond, 100*units.Mbps))
	nw := New(eng, g, Options{PerHopDelay: 0})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	var gotAt time.Duration
	var got *packet.Packet
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { gotAt, got = eng.Now(), p })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100, Proto: packet.UDP})
	eng.RunAll()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// Two 10ms hops plus two serialization delays (100B at 100Mb/s = 8us).
	want := 20*time.Millisecond + 2*8*time.Microsecond
	if d := gotAt - want; d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("delivered at %v, want ~%v", gotAt, want)
	}
	if nw.Delivered != 1 {
		t.Fatalf("Delivered = %d", nw.Delivered)
	}
}

func TestPerHopDelayAppliesAtBridges(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineTopology(props(0, 0)) // zero-latency infinite links
	nw := New(eng, g, Options{PerHopDelay: 500 * time.Microsecond})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	var gotAt time.Duration
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { gotAt = eng.Now() })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	eng.RunAll()
	// One bridge traversal: 500us.
	if gotAt != 500*time.Microsecond {
		t.Fatalf("delivered at %v, want 500us (one bridge hop)", gotAt)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	h := g.MustAddNode("h", graph.Service)
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	hit := false
	nw.AttachEndpoint(h, ipA, nil)
	nw.AttachEndpoint(h, ipB, func(p *packet.Packet) { hit = true })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	eng.RunAll()
	if !hit {
		t.Fatal("co-located containers must reach each other")
	}
}

func TestNoRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service) // disconnected
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { t.Fatal("impossible delivery") })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	nw.Send(&packet.Packet{Src: packet.MakeIP(9, 9, 9), Dst: ipB, Size: 100})    // unknown src
	nw.Send(&packet.Packet{Src: ipA, Dst: packet.MakeIP(9, 9, 9), Size: 100})    // unknown dst
	nw.Send(&packet.Packet{Src: ipA, Dst: packet.IP{192, 168, 0, 2}, Size: 100}) // outside 10/8
	eng.RunAll()
	if nw.DroppedNoRoute != 4 {
		t.Fatalf("DroppedNoRoute = %d, want 4", nw.DroppedNoRoute)
	}
}

// TestHandlerChangeReachesPacketInFlight: the endpoint a packet carries
// from Send is an index into the endpoint table, so a handler installed
// while the packet is in flight, by Register or by attaching the same IP
// again, is the one that receives it, also after the table has grown.
func TestHandlerChangeReachesPacketInFlight(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineTopology(props(10*time.Millisecond, units.Gbps))
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(*packet.Packet) { t.Error("the replaced handler received a packet") })
	var got []string
	for _, tc := range []struct {
		name    string
		replace func(h packet.Handler)
	}{
		{"Register", func(h packet.Handler) { nw.Register(ipB, h) }},
		{"AttachEndpoint", func(h packet.Handler) { nw.AttachEndpoint(b, ipB, h) }},
	} {
		name, grow := tc.name, len(nw.endpoints)
		nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
		eng.Run(eng.Now() + 5*time.Millisecond)
		for i := 0; i < 2*grow; i++ { // reallocates the table under the packet
			nw.AttachEndpoint(a, packet.MakeIP(1, byte(len(nw.endpoints)/250), byte(len(nw.endpoints)%250)), nil)
		}
		tc.replace(func(*packet.Packet) { got = append(got, name) })
		eng.Run(eng.Now() + 50*time.Millisecond)
		nw.Register(ipB, func(*packet.Packet) { t.Error("a stale handler received a packet") })
	}
	if len(got) != 2 || got[0] != "Register" || got[1] != "AttachEndpoint" || nw.Delivered != 2 {
		t.Fatalf("received by %v, Delivered = %d; want one packet each by Register and AttachEndpoint", got, nw.Delivered)
	}
}

func TestBottleneckContention(t *testing.T) {
	// Two senders share one 10Mb/s link; aggregate goodput must be capped
	// at the link rate, not double it.
	eng := sim.NewEngine(1)
	edge := props(time.Millisecond, 100*units.Mbps)
	shared := props(5*time.Millisecond, 10*units.Mbps)
	g, clients, servers := graph.Dumbbell(2, 2, edge, shared)
	nw := New(eng, g, Options{})
	var rx int64
	for i, c := range clients {
		nw.AttachEndpoint(c, packet.MakeIP(0, 1, byte(i)), nil)
	}
	for i, s := range servers {
		nw.AttachEndpoint(s, packet.MakeIP(0, 2, byte(i)), func(p *packet.Packet) { rx += int64(p.Size) })
	}
	// Each client offers 10Mb/s (sum 20Mb/s) for 2 seconds, paced.
	for i := 0; i < 2; i++ {
		src := packet.MakeIP(0, 1, byte(i))
		dst := packet.MakeIP(0, 2, byte(i))
		for j := 0; j < 1666*2; j++ {
			at := time.Duration(j) * 600 * time.Microsecond
			eng.At(at, func() {
				nw.Send(&packet.Packet{Src: src, Dst: dst, Size: 1250})
			})
		}
	}
	eng.Run(2100 * time.Millisecond)
	// 10Mb/s for ~2s = 2.5MB; allow queue drain slack.
	if rx < 2_200_000 || rx > 2_900_000 {
		t.Fatalf("aggregate rx = %d bytes, want ~2.5MB (shared bottleneck)", rx)
	}
}

func TestLinkLoss(t *testing.T) {
	eng := sim.NewEngine(5)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(a, b, graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps, Loss: 0.5})
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	got := 0
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { got++ })
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		eng.At(at, func() { nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 200}) })
	}
	eng.RunAll()
	if got < 900 || got > 1100 {
		t.Fatalf("delivered %d/2000 at 50%% loss", got)
	}
}

func TestSetLinkProps(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	fwd := g.AddLink(a, b, props(time.Millisecond, units.Gbps))
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	var gotAt time.Duration
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { gotAt = eng.Now() })
	nw.SetLinkProps(fwd, props(50*time.Millisecond, units.Gbps))
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	eng.RunAll()
	if gotAt < 50*time.Millisecond {
		t.Fatalf("delivered at %v, want >= 50ms after SetLinkProps", gotAt)
	}
}

func TestHopHook(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineTopology(props(time.Millisecond, units.Gbps))
	hops := 0
	nw := New(eng, g, Options{Hook: func(node graph.NodeID, p *packet.Packet, forward func()) {
		hops++
		forward()
	}})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	done := false
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { done = true })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	eng.RunAll()
	if !done {
		t.Fatal("not delivered")
	}
	// Hook runs at the bridge and at the destination node arrival.
	if hops != 2 {
		t.Fatalf("hook ran %d times, want 2", hops)
	}
}

func TestHopHookDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineTopology(props(time.Millisecond, units.Gbps))
	nw := New(eng, g, Options{Hook: func(node graph.NodeID, p *packet.Packet, forward func()) {
		// drop everything at the first hop
	}})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) { t.Fatal("hook drop bypassed") })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 100})
	eng.RunAll()
}

func TestStar(t *testing.T) {
	eng := sim.NewEngine(1)
	nw, hosts := Star(eng, 4, 40*units.Gbps, 15*time.Microsecond)
	if len(hosts) != 4 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	var gotAt time.Duration
	ipA, ipB := packet.MakeIP(1, 0, 1), packet.MakeIP(2, 0, 1)
	nw.AttachEndpoint(hosts[0], ipA, nil)
	nw.AttachEndpoint(hosts[1], ipB, func(p *packet.Packet) { gotAt = eng.Now() })
	nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: 1500})
	eng.RunAll()
	// 2×15us propagation + 10us switch + serialization (~0.3us x2).
	if gotAt < 40*time.Microsecond || gotAt > 60*time.Microsecond {
		t.Fatalf("cluster crossing took %v, want ~41us", gotAt)
	}
}

func TestRouteSeedingConsistency(t *testing.T) {
	// Packets from different sources to the same destination must all
	// arrive, exercising the seeded per-node route caches.
	eng := sim.NewEngine(1)
	g := graph.ScaleFree(graph.ScaleFreeOptions{
		Elements:     120,
		EdgesPerNode: 2,
		LinkProps:    props(time.Millisecond, units.Gbps),
	})
	nw := New(eng, g, Options{})
	svcs := g.Services()
	dst := svcs[0]
	ipDst := packet.MakeIP(0, 0, 0)
	got := 0
	nw.AttachEndpoint(dst, ipDst, func(p *packet.Packet) { got++ })
	n := 30
	for i := 1; i <= n; i++ {
		ip := packet.MakeIP(0, 1, byte(i))
		nw.AttachEndpoint(svcs[i], ip, nil)
		nw.Send(&packet.Packet{Src: ip, Dst: ipDst, Size: 100})
	}
	eng.RunAll()
	if got != n {
		t.Fatalf("delivered %d/%d across scale-free fabric", got, n)
	}
}

func BenchmarkFabricForwarding(b *testing.B) {
	eng := sim.NewEngine(1)
	g := graph.ScaleFree(graph.ScaleFreeOptions{
		Elements:     1000,
		EdgesPerNode: 2,
		LinkProps:    props(time.Millisecond, 10*units.Gbps),
	})
	nw := New(eng, g, Options{})
	svcs := g.Services()
	ipDst := packet.MakeIP(0, 0, 0)
	nw.AttachEndpoint(svcs[0], ipDst, func(p *packet.Packet) {})
	ipSrc := packet.MakeIP(0, 1, 1)
	nw.AttachEndpoint(svcs[1], ipSrc, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw.Send(&packet.Packet{Src: ipSrc, Dst: ipDst, Size: 1500})
		if i%256 == 0 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

// The zero-alloc contract of the forwarding path: one packet over a
// three-hop line with default Options (per-hop delay on, no hook) costs
// nothing beyond the caller's packet at steady state.
func TestForwardAllocatesNothingPerPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	lp := props(100*time.Microsecond, 10*units.Gbps)
	a := g.MustAddNode("a", graph.Service)
	s1 := g.MustAddNode("s1", graph.Bridge)
	s2 := g.MustAddNode("s2", graph.Bridge)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(a, s1, lp)
	g.AddBiLink(s1, s2, lp)
	g.AddBiLink(s2, b, lp)
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	delivered := 0
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(*packet.Packet) { delivered++ })
	p := &packet.Packet{Src: ipA, Dst: ipB, Proto: packet.UDP, Size: packet.MTU}
	send := func() {
		nw.Send(p)
		eng.Run(eng.Now() + 2*time.Microsecond)
	}
	for i := 0; i < 500; i++ { // routes cached, the line full of packets
		send()
	}
	if got := testing.AllocsPerRun(500, send); got != 0 {
		t.Fatalf("%v allocs per packet over three hops, want 0", got)
	}
	eng.RunAll()
	if delivered != 1001 {
		t.Fatalf("delivered %d of 1001", delivered)
	}
}

// TestBurstKeepsHeapAtPipes: a burst of packets in flight across a
// two-bridge path is one pending event each, yet the heap holds no more
// than a few entries per pipe, because each netem stage and bridge hop is
// a sim.Line with only its head in the heap.
func TestBurstKeepsHeapAtPipes(t *testing.T) {
	const burst = 1000
	eng := sim.NewEngine(1)
	g := graph.New()
	lp := props(10*time.Millisecond, 10*units.Gbps)
	a := g.MustAddNode("a", graph.Service)
	s1 := g.MustAddNode("s1", graph.Bridge)
	s2 := g.MustAddNode("s2", graph.Bridge)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(a, s1, lp)
	g.AddBiLink(s1, s2, lp)
	g.AddBiLink(s2, b, lp)
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	delivered := 0
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(*packet.Packet) { delivered++ })
	for i := 0; i < burst; i++ {
		p := eng.Packets().Get()
		*p = packet.Packet{Src: ipA, Dst: ipB, Proto: packet.UDP, Size: packet.MTU}
		nw.Send(p)
	}
	peak := 0
	for eng.Step() {
		peak = max(peak, eng.Pending())
	}
	if delivered != burst {
		t.Fatalf("delivered %d of %d", delivered, burst)
	}
	heap := eng.Stats().HeapPeak
	t.Logf("pending peak %d, heap peak %d, %d pipes", peak, heap, len(nw.pipes))
	if peak < burst-10 {
		t.Errorf("Pending peaked at %d, want about %d: the burst was never in flight at once", peak, burst)
	}
	if limit := len(nw.pipes) + 4; heap > limit {
		t.Errorf("heap peaked at %d entries, want at most %d (pipes + 4)", heap, limit)
	}
}

// TestZeroBandwidthReleasesBacklog: SetLinkProps with zero (= unlimited)
// bandwidth on a backlogged link lets the queue go instead of stranding it,
// and wakes a sender parked on the first hop.
func TestZeroBandwidthReleasesBacklog(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	// At 20 Mb/s the BDP rule queues the whole 75 kB burst.
	lp := props(time.Millisecond, 20*units.Mbps)
	if q := queueBytes(lp); q < 50*packet.MTU {
		t.Fatalf("setup: queue %d B cannot hold the 50-packet burst", q)
	}
	fwd := g.AddLink(a, b, lp)
	nw := New(eng, g, Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	delivered := 0
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(*packet.Packet) { delivered++ })
	for i := 0; i < 50; i++ {
		nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: packet.MTU})
	}
	if nw.Writable(ipA, ipB, packet.MSS) {
		t.Fatal("setup: first hop still writable with 75 kB queued at 20 Mb/s")
	}
	var woken []int
	for i := 0; i < 3; i++ {
		i := i
		nw.NotifyWritable(ipA, ipB, func() { woken = append(woken, i) })
	}
	nw.SetLinkProps(fwd, props(time.Millisecond, 0))
	eng.Run(eng.Now() + 10*time.Millisecond)
	if delivered != 50 {
		t.Fatalf("delivered %d of 50 within 10 ms of the link becoming unlimited", delivered)
	}
	if len(woken) != 1 || woken[0] != 0 {
		t.Fatalf("woken = %v, want the first waiter only (one per departure batch)", woken)
	}
}
