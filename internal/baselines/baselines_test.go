package baselines

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

func lineGraph(lp graph.LinkProps) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	s := g.MustAddNode("s", graph.Bridge)
	g.AddBiLink(a, s, lp)
	g.AddBiLink(s, b, lp)
	return g, a, b
}

func TestMininetRefusesAboveGigabit(t *testing.T) {
	g, _, _ := lineGraph(graph.LinkProps{Latency: time.Millisecond, Bandwidth: 2 * units.Gbps})
	if _, err := NewMininet(sim.NewEngine(1), g); err == nil {
		t.Fatal("expected >1Gb/s refusal (Table 2 N/A)")
	}
}

func TestMininetRefusesHugeTopologies(t *testing.T) {
	g := graph.ScaleFree(graph.ScaleFreeOptions{Elements: 2000, EdgesPerNode: 1,
		LinkProps: graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps}})
	if _, err := NewMininet(sim.NewEngine(1), g); err == nil {
		t.Fatal("expected single-host scale refusal (Table 4 NA)")
	}
}

func TestMininetForwardsAndChargesCPU(t *testing.T) {
	eng := sim.NewEngine(1)
	g, a, b := lineGraph(graph.LinkProps{Latency: time.Millisecond, Bandwidth: 100 * units.Mbps})
	mn, err := NewMininet(eng, g)
	if err != nil {
		t.Fatal(err)
	}
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	mn.AttachEndpoint(a, ipA, nil)
	mn.AttachEndpoint(b, ipB, nil)
	cli := transport.NewStack(eng, mn.Network, ipA)
	srv := transport.NewStack(eng, mn.Network, ipB)
	var got int64
	srv.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := cli.Dial(ipB, 80, transport.Reno)
	conn.Write(100_000)
	eng.Run(10 * time.Second)
	if got != 100_000 {
		t.Fatalf("transferred %d/100000 through mininet", got)
	}
	if mn.FlowsInstalled == 0 || mn.CPUDelayTotal == 0 {
		t.Fatalf("CPU model idle: flows=%d delay=%v", mn.FlowsInstalled, mn.CPUDelayTotal)
	}
}

func TestMininetShortConnectionDegradation(t *testing.T) {
	// The Figure 6 mechanism: under a storm of new connections the
	// shared CPU serializes flow setups (mininetConnSetupCost each),
	// degrading throughput; a single long connection is barely affected.
	run := func(clients int) float64 {
		eng := sim.NewEngine(2)
		g, a, b := lineGraph(graph.LinkProps{Latency: time.Millisecond, Bandwidth: 100 * units.Mbps})
		mn, err := NewMininet(eng, g)
		if err != nil {
			t.Fatal(err)
		}
		ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
		mn.AttachEndpoint(a, ipA, nil)
		mn.AttachEndpoint(b, ipB, nil)
		cli := transport.NewStack(eng, mn.Network, ipA)
		srv := transport.NewStack(eng, mn.Network, ipB)
		apps.NewHTTPServer(srv, 80, 200, 64*1024)
		var curls []*apps.CurlClient
		for i := 0; i < clients; i++ {
			curls = append(curls, apps.NewCurlClient(eng, cli, ipB, 80, 200, 64*1024, transport.Cubic))
		}
		eng.Run(15 * time.Second)
		var bytes int64
		for _, c := range curls {
			bytes += c.BytesIn
		}
		return float64(bytes) * 8 / 15 / 1e6
	}
	one, eight := run(1), run(8)
	perClient1 := one
	perClient8 := eight / 8
	if perClient8 > 0.8*perClient1 {
		t.Fatalf("no degradation: 1 client %.1f Mb/s, 8 clients %.1f Mb/s each", perClient1, perClient8)
	}
}

func TestMaxinetControllerLatency(t *testing.T) {
	// First packet of a flow pays the controller round trip; subsequent
	// packets (within the idle timeout) do not.
	eng := sim.NewEngine(3)
	g, a, b := lineGraph(graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps})
	mx := NewMaxinet(eng, g)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	mx.AttachEndpoint(a, ipA, nil)
	mx.AttachEndpoint(b, ipB, nil)
	cli := transport.NewStack(eng, mx.Network, ipA)
	transport.NewStack(eng, mx.Network, ipB)
	var rtts []time.Duration
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		eng.At(at, func() {
			cli.Ping(ipB, 64, func(rtt time.Duration) { rtts = append(rtts, rtt) })
		})
	}
	eng.Run(2 * time.Second)
	if len(rtts) != 5 {
		t.Fatalf("replies = %d", len(rtts))
	}
	// The path is four 1ms link traversals. The first ping pays one
	// controller round trip at the switch per direction; later pings
	// ride installed entries.
	if want := 4*time.Millisecond + 2*maxinetControllerRTT; rtts[0] < want {
		t.Fatalf("first RTT %v < %v: did not include controller setup", rtts[0], want)
	}
	if rtts[2] >= rtts[0] {
		t.Fatalf("later RTT %v not faster than first %v", rtts[2], rtts[0])
	}
	if mx.FlowSetups == 0 {
		t.Fatal("no flow setups recorded")
	}
}

func TestMaxinetExpiredEntriesPayAgain(t *testing.T) {
	eng := sim.NewEngine(4)
	g, a, b := lineGraph(graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps})
	mx := NewMaxinet(eng, g)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	mx.AttachEndpoint(a, ipA, nil)
	mx.AttachEndpoint(b, ipB, nil)
	cli := transport.NewStack(eng, mx.Network, ipA)
	transport.NewStack(eng, mx.Network, ipB)
	// Pings at twice the idle timeout: every ping re-installs.
	done := 0
	eng.Every(2*maxinetFlowIdleTimeout, func() {
		cli.Ping(ipB, 64, func(time.Duration) { done++ })
	})
	eng.Run(6 * 2 * maxinetFlowIdleTimeout) // six intervals
	if done < 5 {
		t.Fatalf("replies = %d", done)
	}
	// Each ping triggers setups at the switch for both directions.
	if mx.FlowSetups < int64(done) {
		t.Fatalf("setups = %d for %d expired-entry pings", mx.FlowSetups, done)
	}
}

// TestHookOwnsPerHopCost: a ping across a–s1–s2–b (1ms links) on the
// Mininet and Maxinet models pays the six link traversals plus the CPU
// model's cost at the four switch traversals, and not the fabric's own
// per-hop delay on top.
func TestHookOwnsPerHopCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   func(*sim.Engine, *graph.Graph) *fabric.Network
		hop  time.Duration // the model's cost per switch traversal, entries installed
	}{
		{"mininet", func(eng *sim.Engine, g *graph.Graph) *fabric.Network {
			mn, err := NewMininet(eng, g)
			if err != nil {
				t.Fatal(err)
			}
			return mn.Network
		}, mininetPacketCost},
		{"maxinet", func(eng *sim.Engine, g *graph.Graph) *fabric.Network {
			return NewMaxinet(eng, g).Network
		}, maxinetPacketCost + maxinetTunnelOverhead*(maxinetWorkers-1)/maxinetWorkers},
	} {
		eng := sim.NewEngine(1)
		g := graph.New()
		a := g.MustAddNode("a", graph.Service)
		s1 := g.MustAddNode("s1", graph.Bridge)
		s2 := g.MustAddNode("s2", graph.Bridge)
		b := g.MustAddNode("b", graph.Service)
		lp := graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps}
		g.AddBiLink(a, s1, lp)
		g.AddBiLink(s1, s2, lp)
		g.AddBiLink(s2, b, lp)
		nw := tc.nw(eng, g)
		ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
		nw.AttachEndpoint(a, ipA, nil)
		nw.AttachEndpoint(b, ipB, nil)
		cli := transport.NewStack(eng, nw, ipA)
		transport.NewStack(eng, nw, ipB)
		// The second ping rides the flow entries the first installed.
		var rtts []time.Duration
		for i := 0; i < 2; i++ {
			eng.At(time.Duration(i)*100*time.Millisecond, func() {
				cli.Ping(ipB, 64, func(rtt time.Duration) { rtts = append(rtts, rtt) })
			})
		}
		eng.Run(time.Second)
		if len(rtts) != 2 {
			t.Fatalf("%s: replies = %d", tc.name, len(rtts))
		}
		if want := 6*time.Millisecond + 4*tc.hop; rtts[1] != want {
			t.Errorf("%s: RTT %v, want %v (links plus the model's per-switch cost)", tc.name, rtts[1], want)
		}
	}
}

func TestTrickleDefaultOvershoots(t *testing.T) {
	eng := sim.NewEngine(5)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(a, b, graph.LinkProps{Latency: time.Millisecond, Bandwidth: 10 * units.Gbps})
	nw := newFabric(eng, g)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, nil)
	cli := transport.NewStack(eng, nw, ipA)
	srv := transport.NewStack(eng, nw, ipB)
	var got int64
	srv.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := cli.Dial(ipB, 80, transport.Cubic)
	target := 128 * units.Kbps
	tr := NewTrickle(eng, conn, target, TrickleOptions{Window: 5 * time.Second})
	tr.Write(10 << 20)
	eng.Run(20 * time.Second)
	rate := float64(got) * 8 / 20
	// Default trickle overshoots grossly at low rates (Table 2: +104%).
	if rate < 1.3*float64(target) {
		t.Fatalf("default trickle rate %.0f b/s did not overshoot %v", rate, target)
	}
}

func TestTrickleTunedAccurate(t *testing.T) {
	eng := sim.NewEngine(6)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(a, b, graph.LinkProps{Latency: time.Millisecond, Bandwidth: 10 * units.Gbps})
	nw := newFabric(eng, g)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, nil)
	cli := transport.NewStack(eng, nw, ipA)
	srv := transport.NewStack(eng, nw, ipB)
	var got int64
	srv.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := cli.Dial(ipB, 80, transport.Cubic)
	target := 128 * units.Mbps
	tr := NewTrickle(eng, conn, target, Tuned(target))
	tr.Write(1 << 30)
	eng.Run(20 * time.Second)
	rate := float64(got) * 8 / 20
	dev := rate/float64(target) - 1
	if dev < -0.03 || dev > 0.03 {
		t.Fatalf("tuned trickle deviation %.1f%%, want within ±3%%", dev*100)
	}
}

// newFabric builds a plain fabric for trickle tests (trickle shapes in
// userspace over an unshaped network).
