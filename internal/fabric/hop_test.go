package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// chainTopology builds a -- s1 -- ... -- sk -- b. The first link runs at
// 1 Mb/s, so a burst leaves it spaced by serialization; the rest are
// fast, and each link has a latency of its own.
func chainTopology(k int) (g *graph.Graph, a, b graph.NodeID, latency time.Duration) {
	g = graph.New()
	a = g.MustAddNode("a", graph.Service)
	b = g.MustAddNode("b", graph.Service)
	prev := a
	for i := 0; i <= k; i++ {
		next := b
		if i < k {
			next = g.MustAddNode(fmt.Sprintf("s%d", i+1), graph.Bridge)
		}
		lp := props(time.Duration(i+1)*time.Millisecond+time.Duration(i)*7*time.Microsecond, 100*units.Mbps)
		if i == 0 {
			lp.Bandwidth = units.Mbps
		}
		g.AddBiLink(prev, next, lp)
		latency += lp.Latency
		prev = next
	}
	return g, a, b, latency
}

// deliveries sends a burst of five MTU packets from a to b at time 0 and
// one more at 1 s, when every shaper is idle again, and returns the
// arrival times.
func deliveries(k int, opt Options) (got []time.Duration, latency time.Duration) {
	eng := sim.NewEngine(1)
	g, a, b, latency := chainTopology(k)
	nw := New(eng, g, opt)
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, func(*packet.Packet) { got = append(got, eng.Now()) })
	for i := 0; i < 5; i++ {
		nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: packet.MTU})
	}
	eng.At(time.Second, func() { nw.Send(&packet.Packet{Src: ipA, Dst: ipB, Size: packet.MTU}) })
	eng.RunAll()
	return got, latency
}

// TestBridgeChainArrivals: across a chain of k bridges a packet arrives
// at exactly its latencies, k hops and its serialization. The reference
// is the same chain with a hook that charges no hop: every arrival is
// that one's plus k·PerHopDelay, to the nanosecond, so folding the hop
// into the inbound netem stage moves no queueing; a packet that finds
// every shaper idle pays no serialization at all.
func TestBridgeChainArrivals(t *testing.T) {
	const hop = 20 * time.Microsecond
	for k := 1; k <= 3; k++ {
		got, latency := deliveries(k, Options{PerHopDelay: hop})
		ref, _ := deliveries(k, Options{Hook: func(_ graph.NodeID, _ *packet.Packet, forward func()) { forward() }})
		if len(got) != 6 || len(ref) != 6 {
			t.Fatalf("k=%d: delivered %d packets, reference %d, want 6", k, len(got), len(ref))
		}
		for i := range got {
			if want := ref[i] + time.Duration(k)*hop; got[i] != want {
				t.Errorf("k=%d: packet %d arrived at %v, want %v", k, i, got[i], want)
			}
		}
		if ref[1]-ref[0] < 10*time.Millisecond {
			t.Errorf("k=%d: the burst was not spaced by serialization: %v", k, ref)
		}
		if want := time.Second + latency + time.Duration(k)*hop; got[5] != want {
			t.Errorf("k=%d: the idle-path packet arrived at %v, want %v", k, got[5], want)
		}
	}
}

// TestSameInstantArrivalsAtBridge: packets from several sources that
// reach one bridge at the same instant leave it in the order they had
// when the bridge hop was an event of its own, pinned here as a golden.
// The sources send at staggered times over links whose latencies cancel
// the stagger, and the bridge's outbound link is slow, so the order
// shows as serialization slots at the sink.
func TestSameInstantArrivalsAtBridge(t *testing.T) {
	eng := sim.NewEngine(1)
	g := graph.New()
	s := g.MustAddNode("s", graph.Bridge)
	b := g.MustAddNode("b", graph.Service)
	g.AddBiLink(s, b, props(time.Millisecond, units.Mbps))
	lat := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	src := make([]graph.NodeID, len(lat))
	for i, l := range lat {
		src[i] = g.MustAddNode(fmt.Sprintf("a%d", i), graph.Service)
		g.AddBiLink(src[i], s, props(l, 100*units.Mbps))
	}
	nw := New(eng, g, Options{})
	ipB := packet.MakeIP(0, 0, 100)
	var log []string
	nw.AttachEndpoint(b, ipB, func(p *packet.Packet) {
		log = append(log, fmt.Sprintf("a%d@%v", p.Src[3], eng.Now()))
	})
	for i := range src {
		nw.AttachEndpoint(src[i], packet.MakeIP(0, 0, byte(i)), nil)
	}
	// Two waves reaching s at 3 ms and at 100 ms; in the second, a3
	// sends before a0 at the same instant.
	send := func(i int, at time.Duration) {
		eng.At(at-lat[i], func() {
			nw.Send(&packet.Packet{Src: packet.MakeIP(0, 0, byte(i)), Dst: ipB, Size: packet.MTU})
		})
	}
	for _, i := range []int{0, 3, 2, 1} {
		send(i, 3*time.Millisecond)
	}
	for _, i := range []int{3, 0, 1, 2} {
		send(i, 100*time.Millisecond)
	}
	eng.RunAll()
	got := strings.Join(log, " ")
	const want = "a0@4.02ms a3@16.132ms a2@28.244ms a1@40.356ms a3@101.02ms a0@113.132ms a2@125.244ms a1@137.356ms"
	if got != want {
		t.Fatalf("arrivals at the sink:\n got %s\nwant %s", got, want)
	}
}

// TestAttachEndpointAtHopBridgePanics: an endpoint at a hop-charging
// bridge would receive its packets one hop late, so attaching one
// panics; without the hop (a Hook owns it) a bridge may carry one.
func TestAttachEndpointAtHopBridgePanics(t *testing.T) {
	g, _, _ := lineTopology(props(time.Millisecond, units.Gbps))
	s, _ := g.Lookup("s")
	hooked := New(sim.NewEngine(1), g, Options{Hook: func(_ graph.NodeID, _ *packet.Packet, forward func()) { forward() }})
	hooked.AttachEndpoint(s, packet.MakeIP(0, 0, 9), nil)
	nw := New(sim.NewEngine(1), g, Options{})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "hop-charging bridge") {
			t.Fatalf("AttachEndpoint at a hop-charging bridge: recovered %v, want a panic", r)
		}
	}()
	nw.AttachEndpoint(s, packet.MakeIP(0, 0, 9), nil)
}
