package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcal"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
)

// fig8YAML is the §5.4 decentralized-throttling topology.
const fig8YAML = `
experiment:
  services:
    name: c1
    name: c2
    name: c3
    name: c4
    name: c5
    name: c6
    name: s1
    name: s2
    name: s3
    name: s4
    name: s5
    name: s6
  bridges:
    name: b1
    name: b2
    name: b3
  links:
    orig: c1
    dest: b1
    latency: 10
    up: 50Mbps
    orig: c2
    dest: b1
    latency: 5
    up: 50Mbps
    orig: c3
    dest: b1
    latency: 5
    up: 10Mbps
    orig: c4
    dest: b2
    latency: 10
    up: 50Mbps
    orig: c5
    dest: b2
    latency: 5
    up: 50Mbps
    orig: c6
    dest: b2
    latency: 5
    up: 10Mbps
    orig: b1
    dest: b2
    latency: 10
    up: 50Mbps
    orig: b2
    dest: b3
    latency: 10
    up: 100Mbps
    orig: s1
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s2
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s3
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s4
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s5
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s6
    dest: b3
    latency: 5
    up: 50Mbps
`

func buildRuntime(t testing.TB, yaml string, hosts int, opts Options) *Runtime {
	t.Helper()
	top, err := topology.ParseYAML(yaml)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(42)
	rt, err := NewRuntimeFromTopology(eng, top, hosts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// greedySender keeps a TCP connection's buffer topped up — an iperf3
// client.
type greedySender struct {
	conn *transport.Conn
}

func startGreedy(eng *sim.Engine, from, to *Container, cc transport.CongestionControl) *greedySender {
	gs := &greedySender{}
	to.Stack.Listen(5201, &transport.Listener{})
	gs.conn = from.Stack.Dial(to.IP, 5201, cc)
	gs.conn.Write(1 << 30)
	eng.Every(time.Second, func() {
		if gs.conn.Established() && !gs.conn.Closed() && gs.conn.Buffered() < 1<<29 {
			gs.conn.Write(1 << 29)
		}
	})
	return gs
}

func TestRuntimeBasicConnectivity(t *testing.T) {
	rt := buildRuntime(t, fig8YAML, 2, Options{})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	var got int64
	s1.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := c1.Stack.Dial(s1.IP, 80, transport.Cubic)
	conn.Write(100_000)
	rt.Eng.Run(10 * time.Second)
	if got != 100_000 {
		t.Fatalf("transferred %d/100000 across emulated topology", got)
	}
	// RTT reflects the collapsed path (35ms one way) plus htb queueing
	// delay while the 10Mb/s shaper drains the transfer.
	if srtt := conn.SRTT(); srtt < 68*time.Millisecond || srtt > 130*time.Millisecond {
		t.Fatalf("SRTT = %v, want 70ms + shaper queueing", srtt)
	}
}

func TestRuntimeLatencyEmulation(t *testing.T) {
	// Ping across the emulated topology matches the theoretical
	// collapsed RTT within the container/cluster overhead (Table 4).
	rt := buildRuntime(t, fig8YAML, 4, Options{})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	var rtts []time.Duration
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		rt.Eng.At(at, func() {
			c1.Stack.Ping(s1.IP, 64, func(d time.Duration) { rtts = append(rtts, d) })
		})
	}
	rt.Eng.Run(11 * time.Second)
	if len(rtts) != 100 {
		t.Fatalf("got %d/100 replies", len(rtts))
	}
	var sum float64
	for _, r := range rtts {
		sum += r.Seconds() * 1000
	}
	mean := sum / float64(len(rtts))
	// Theoretical 70ms + small physical-cluster overhead (<1ms).
	if mean < 69.9 || mean > 71.5 {
		t.Fatalf("mean RTT = %.3fms, want 70ms + sub-ms overhead", mean)
	}
}

func TestRuntimeUnreachableDestination(t *testing.T) {
	// Two disconnected groups: traffic must be dropped, not delivered.
	const yaml = `
experiment:
  services:
    name: a
    name: b
    name: x
    name: y
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
    orig: x
    dest: y
    latency: 5
    up: 10Mbps
`
	rt := buildRuntime(t, yaml, 2, Options{})
	rt.Start()
	a, _ := rt.Container("a")
	y, _ := rt.Container("y")
	y.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		t.Fatal("connection across disconnected topology")
	}})
	conn := a.Stack.Dial(y.IP, 80, transport.Reno)
	rt.Eng.Run(5 * time.Second)
	if conn.Established() {
		t.Fatal("established across partition")
	}
}

// TestNegativeUDPSizeCountsAsEmpty: a negative SendUDP size is an empty
// datagram. It used to travel as a negative wire size, delivering
// negative payload bytes and driving the TCAL's byte counter — the
// Manager's usage reading — below zero.
func TestNegativeUDPSizeCountsAsEmpty(t *testing.T) {
	rt := buildRuntime(t, fig8YAML, 2, Options{})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	datagrams, bytes := 0, 0
	s1.Stack.HandleUDP(9, func(_ packet.IP, _ uint16, size int, _ any) { datagrams, bytes = datagrams+1, bytes+size })
	for i := 0; i < 10; i++ {
		c1.Stack.SendUDP(s1.IP, 9, 9, -1000, nil)
	}
	rt.Eng.Run(time.Second)
	const wire = packet.IPHeader + packet.UDPHeader + 14
	if sent := c1.TCAL().TotalSent(s1.IP); datagrams != 10 || bytes != 0 || sent != 10*wire {
		t.Fatalf("delivered %d datagrams carrying %d payload bytes, shaped %d B; want 10, 0, %d B",
			datagrams, bytes, sent, 10*wire)
	}
}

// TestFigure8EndToEnd drives the full §5.4 experiment through the
// deployed runtime: six greedy TCP flows starting at 20s intervals, with
// allocations measured from the servers' receive rates. Expected values
// are the paper's (Figure 8), tolerance ±20% — TCP dynamics plus 50ms
// emulation periods wobble around the model's exact fixed point.
func TestFigure8EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	rt := buildRuntime(t, fig8YAML, 4, Options{})
	rt.Start()
	eng := rt.Eng

	const phase = 20 * time.Second
	received := make([]int64, 6)
	for i := 0; i < 6; i++ {
		i := i
		srv, _ := rt.Container(fmt.Sprintf("s%d", i+1))
		srv.Stack.Listen(5201, &transport.Listener{OnAccept: func(c *transport.Conn) {
			c.OnData = func(n int) { received[i] += int64(n) }
		}})
	}
	for i := 0; i < 6; i++ {
		i := i
		at := time.Duration(i) * phase
		eng.At(at, func() {
			cli, _ := rt.Container(fmt.Sprintf("c%d", i+1))
			srv, _ := rt.Container(fmt.Sprintf("s%d", i+1))
			conn := cli.Stack.Dial(srv.IP, 5201, transport.Cubic)
			conn.Write(1 << 30)
			eng.Every(time.Second, func() {
				if !conn.Closed() && conn.Buffered() < 1<<29 {
					conn.Write(1 << 28)
				}
			})
		})
	}

	// Sample each flow's goodput over the last 10s of each phase.
	measure := func(i int) float64 { return float64(received[i]) }
	type snapshot [6]float64
	var before, after [6]snapshot
	for p := 0; p < 6; p++ {
		p := p
		eng.At(time.Duration(p)*phase+phase-10*time.Second, func() {
			for i := 0; i < 6; i++ {
				before[p][i] = measure(i)
			}
		})
		eng.At(time.Duration(p)*phase+phase-100*time.Millisecond, func() {
			for i := 0; i < 6; i++ {
				after[p][i] = measure(i)
			}
		})
	}
	eng.Run(6 * phase)

	rates := func(p int) []float64 {
		out := make([]float64, 6)
		for i := range out {
			out[i] = (after[p][i] - before[p][i]) * 8 / 9.9 / 1e6 // Mb/s
		}
		return out
	}
	check := func(p int, want []float64, tol float64) {
		got := rates(p)
		for i, w := range want {
			if w == 0 {
				continue
			}
			if math.Abs(got[i]-w) > tol*w {
				t.Errorf("phase %d flow c%d: %.2f Mb/s, want %.2f ±%d%%",
					p+1, i+1, got[i], w, int(tol*100))
			}
		}
		t.Logf("phase %d rates: %.2f", p+1, got)
	}

	// Goodput ≈ 95.6% of the allocation (header overhead).
	const e = 0.956
	check(0, []float64{50 * e}, 0.20)
	check(1, []float64{23.08 * e, 26.92 * e}, 0.20)
	check(2, []float64{18.45 * e, 21.55 * e, 10 * e}, 0.20)
	check(3, []float64{18.45 * e, 21.55 * e, 10 * e, 50 * e}, 0.20)
	check(4, []float64{16.93 * e, 19.75 * e, 10 * e, 23.70 * e, 29.62 * e}, 0.20)
	check(5, []float64{15.04 * e, 17.55 * e, 10 * e, 21.06 * e, 26.33 * e, 10 * e}, 0.20)
}

func TestRuntimeMetadataScalesWithHostsNotContainers(t *testing.T) {
	// Single host: zero metadata on the wire (shared memory only).
	rt1 := buildRuntime(t, fig8YAML, 1, Options{})
	rt1.Start()
	c1, _ := rt1.Container("c1")
	s1, _ := rt1.Container("s1")
	startGreedy(rt1.Eng, c1, s1, transport.Cubic)
	rt1.Eng.Run(5 * time.Second)
	sent1, _ := rt1.MetadataTraffic()
	if sent1 != 0 {
		t.Fatalf("single-host deployment sent %d metadata bytes, want 0", sent1)
	}

	// Four hosts: metadata flows, but stays small.
	rt4 := buildRuntime(t, fig8YAML, 4, Options{})
	rt4.Start()
	c14, _ := rt4.Container("c1")
	s14, _ := rt4.Container("s1")
	startGreedy(rt4.Eng, c14, s14, transport.Cubic)
	rt4.Eng.Run(5 * time.Second)
	sent4, recv4 := rt4.MetadataTraffic()
	if sent4 == 0 || recv4 == 0 {
		t.Fatal("multi-host deployment exchanged no metadata")
	}
	// One active flow reported by 1 EM to 3 peers every 50ms: tiny, even
	// with the 13-byte integrity envelope on every datagram.
	rate := float64(sent4) / 5
	if rate > 6144 {
		t.Fatalf("metadata rate = %.0f B/s, unexpectedly high", rate)
	}
}

func TestRuntimeDynamicStateSwap(t *testing.T) {
	// A latency change mid-experiment must be visible to pings.
	const yaml = `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 10
    up: 100Mbps
dynamic:
  orig: a
  dest: b
  latency: 50
  time: 5
`
	rt := buildRuntime(t, yaml, 2, Options{})
	rt.Start()
	a, _ := rt.Container("a")
	b, _ := rt.Container("b")
	var early, late []float64
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		rt.Eng.At(at, func() {
			sentAt := rt.Eng.Now()
			a.Stack.Ping(b.IP, 64, func(d time.Duration) {
				if sentAt < 5*time.Second {
					early = append(early, d.Seconds()*1000)
				} else {
					late = append(late, d.Seconds()*1000)
				}
			})
		})
	}
	rt.Eng.Run(11 * time.Second)
	if len(early) == 0 || len(late) == 0 {
		t.Fatal("missing samples")
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := meanOf(early); m < 19 || m > 22 {
		t.Fatalf("pre-event RTT = %.2fms, want ~20", m)
	}
	if m := meanOf(late); m < 99 || m > 102 {
		t.Fatalf("post-event RTT = %.2fms, want ~100", m)
	}
}

func TestRuntimeLinkRemovalPartitions(t *testing.T) {
	const yaml = `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 5
    up: 100Mbps
dynamic:
  action: leave
  orig: a
  dest: b
  time: 3
`
	rt := buildRuntime(t, yaml, 2, Options{})
	rt.Start()
	a, _ := rt.Container("a")
	b, _ := rt.Container("b")
	replies := 0
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		rt.Eng.At(at, func() {
			a.Stack.Ping(b.IP, 64, func(d time.Duration) { replies++ })
		})
	}
	rt.Eng.Run(11 * time.Second)
	// Pings at 0, 0.5, ..., 2.5s succeed (6); later ones are dropped.
	if replies < 5 || replies > 7 {
		t.Fatalf("replies = %d, want ~6 (partition at t=3s)", replies)
	}
}

func TestRuntimePlacementValidation(t *testing.T) {
	top, err := topology.ParseYAML(fig8YAML)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	if _, err := NewRuntimeFromTopology(eng, top, 2, map[string]int{"c1": 99}, Options{}); err == nil {
		t.Fatal("expected invalid placement error")
	}
	if _, err := NewRuntime(eng, nil, 2, nil, Options{}); err == nil {
		t.Fatal("expected nil-graph error")
	}
	if _, err := NewRuntimeFromTopology(eng, nil, 2, nil, Options{}); err == nil {
		t.Fatal("expected nil-topology error")
	}
	if _, err := NewRuntimeFromTopology(eng, top, 0, nil, Options{}); err == nil {
		t.Fatal("expected no-hosts error")
	}
}

// TestRuntimeRejectsAddressPlanOverflow: container i's third octet is
// i/250, so a 64 001st service container would wrap it onto container 0's
// range; the error names the limit instead.
func TestRuntimeRejectsAddressPlanOverflow(t *testing.T) {
	g := graph.New()
	for i := 0; i <= MaxContainers; i++ {
		g.MustAddNode(fmt.Sprintf("c%d", i), graph.Service)
	}
	_, err := NewRuntime(sim.NewEngine(1), g, 4, nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "64000") {
		t.Fatalf("NewRuntime with %d containers = %v, want an error naming 64000", MaxContainers+1, err)
	}
}

func TestRuntimeScheduleEventsValidation(t *testing.T) {
	// A bad pre-registered event must fail at deploy time (the old
	// offline-precompute behavior), not midway through the run.
	top, err := topology.ParseYAML(fig8YAML)
	if err != nil {
		t.Fatal(err)
	}
	top.Events = append(top.Events, topology.Event{
		At: time.Second, Kind: topology.EvLinkLeave, Orig: "c1", Dest: "s1", // no such direct link
	})
	if _, err := NewRuntimeFromTopology(sim.NewEngine(1), top, 2, nil, Options{}); err == nil {
		t.Fatal("expected dry-run validation error for bad pre-registered event")
	}
}

// TestSetLinkRepointsEveryChain: at the instant a set-link event applies,
// before any emulation period runs, every installed TCAL chain reads back
// exactly its new collapsed path — loss included, and bandwidth even where
// the loop had throttled the flow below the path's capacity.
func TestSetLinkRepointsEveryChain(t *testing.T) {
	rt := buildRuntime(t, fig8YAML, 2, Options{})
	rt.Start()
	for _, c := range rt.containers {
		for _, d := range rt.containers {
			if d != c {
				rt.point(c, d.IP)
			}
		}
	}
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	c2, _ := rt.Container("c2")
	s2, _ := rt.Container("s2")
	startGreedy(rt.Eng, c1, s1, transport.Cubic)
	startGreedy(rt.Eng, c2, s2, transport.Cubic)
	rt.Eng.Run(2025 * time.Millisecond) // mid-period: the next loop runs at 2.05 s

	before := rt.State().Collapsed.Path(c1.Node, s1.Node)
	if props, _ := c1.TCAL().Props(s1.IP); props.Bandwidth >= before.Bandwidth {
		t.Fatalf("c1->s1 enforces %v, want the loop to have throttled it below the path's %v", props.Bandwidth, before.Bandwidth)
	}
	loss, bw := units.Loss(0.02), 20*units.Mbps
	if err := rt.ApplyEvents(topology.Event{At: rt.Eng.Now(), Kind: topology.EvSetLink, Orig: "b1", Dest: "b2",
		Props: topology.LinkPatch{Loss: &loss, Up: &bw}}); err != nil {
		t.Fatal(err)
	}
	if p := rt.State().Collapsed.Path(c1.Node, s1.Node); math.Abs(float64(p.Loss-loss)) > 1e-9 || p.Bandwidth != bw {
		t.Fatalf("c1->s1 after the event: loss %v, bandwidth %v; want %v, %v", p.Loss, p.Bandwidth, loss, bw)
	}
	checked := 0
	for _, c := range rt.containers {
		for _, dstIP := range c.TCAL().Destinations() {
			dst := rt.byIP[dstIP]
			p := rt.State().Collapsed.Path(c.Node, dst.Node)
			want := tcal.PathProps{Latency: p.Latency, Jitter: p.Jitter, Loss: p.Loss, Bandwidth: p.Bandwidth}
			if got, _ := c.TCAL().Props(dstIP); got != want {
				t.Errorf("%s->%s: TCAL enforces %+v, collapsed path is %+v", c.Name, dst.Name, got, want)
			}
			checked++
		}
	}
	if n := len(rt.containers); checked != n*(n-1) {
		t.Fatalf("checked %d chains, want %d", checked, n*(n-1))
	}
}

func TestRuntimeLiveMutation(t *testing.T) {
	// ApplyEvents and post-Start ScheduleEvents drive the same incremental
	// path the pre-registered events use.
	const yaml = `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 10
    up: 100Mbps
`
	rt := buildRuntime(t, yaml, 2, Options{})
	rt.Start()
	if err := rt.ApplyEvents(topology.Event{Kind: topology.EvLinkLeave, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	a, _ := rt.Container("a")
	b, _ := rt.Container("b")
	if p := rt.State().Collapsed.Path(a.Node, b.Node); p != nil {
		t.Fatal("path survived immediate link removal")
	}
	lat := 30 * time.Millisecond
	if err := rt.ScheduleEvents(
		topology.Event{At: time.Second, Kind: topology.EvLinkJoin, Orig: "a", Dest: "b"},
		topology.Event{At: 2 * time.Second, Kind: topology.EvSetLink, Orig: "a", Dest: "b",
			Props: topology.LinkPatch{Latency: &lat}},
	); err != nil {
		t.Fatal(err)
	}
	rt.Eng.Run(3 * time.Second)
	if err := rt.EventError(); err != nil {
		t.Fatal(err)
	}
	p := rt.State().Collapsed.Path(a.Node, b.Node)
	if p == nil || p.Latency != lat {
		t.Fatalf("scheduled join+set not applied: %+v", p)
	}
	// Scheduling in the virtual past must be rejected.
	if err := rt.ScheduleEvents(topology.Event{At: time.Second, Kind: topology.EvLinkLeave, Orig: "a", Dest: "b"}); err == nil {
		t.Fatal("expected past-event error")
	}
	// A scheduled event that fails at fire time surfaces via EventError.
	if err := rt.ScheduleEvents(topology.Event{At: 4 * time.Second, Kind: topology.EvLinkLeave, Orig: "b", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	rt.Eng.Run(5 * time.Second)
	if rt.EventError() == nil {
		t.Fatal("expected EventError after failing scheduled event")
	}
}

func TestRuntimeExplicitPlacement(t *testing.T) {
	top, err := topology.ParseYAML(fig8YAML)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt, err := NewRuntimeFromTopology(eng, top, 3, map[string]int{"c1": 2, "s1": 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	if c1.Host != 2 || s1.Host != 2 {
		t.Fatalf("placement ignored: c1@%d s1@%d", c1.Host, s1.Host)
	}
	// Co-located containers still reach each other through the TCAL.
	rt.Start()
	var got int64
	s1.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := c1.Stack.Dial(s1.IP, 80, transport.Reno)
	conn.Write(50_000)
	eng.Run(10 * time.Second)
	if got != 50_000 {
		t.Fatalf("co-located transfer moved %d/50000", got)
	}
}

func TestUniqueContainerIPs(t *testing.T) {
	rt := buildRuntime(t, fig8YAML, 3, Options{})
	seen := make(map[packet.IP]bool)
	for _, c := range rt.Containers() {
		if seen[c.IP] {
			t.Fatalf("duplicate IP %v", c.IP)
		}
		seen[c.IP] = true
	}
	if len(seen) != 12 {
		t.Fatalf("containers = %d, want 12", len(seen))
	}
}

func TestFlowIDHelpers(t *testing.T) {
	if got := LocalFlowID(3, 7); got != 3<<32|7 {
		t.Fatalf("LocalFlowID(3,7) = %#x", uint64(got))
	}
	if got := RemoteFlowID(5); got != remoteIDFlag|5 {
		t.Fatalf("RemoteFlowID(5) = %#x", uint64(got))
	}
	if LocalFlowID(3, 7) == LocalFlowID(7, 3) || LocalFlowID(0, 1)&remoteIDFlag != 0 {
		t.Fatal("FlowID packing broken")
	}
	if clampU32(-1) != 0 || clampU32(1<<40) != ^uint32(0) || clampU32(77) != 77 {
		t.Fatal("clampU32 broken")
	}
}

func TestRuntimeRejectsNarrowLinkIDOverflow(t *testing.T) {
	// A topology just under the 1-byte link-id boundary: pre-registered
	// or runtime link-joins that create fresh links past it must be
	// rejected (deploy-time for pre-registered, veto for immediate), not
	// silently wrap on the metadata wire.
	top := &topology.Topology{}
	for i := 0; i < 129; i++ {
		top.Services = append(top.Services, topology.ServiceDef{Name: fmt.Sprintf("n%d", i)})
	}
	for i := 0; i < 128; i++ {
		top.Links = append(top.Links, topology.LinkDef{
			Orig: fmt.Sprintf("n%d", i), Dest: fmt.Sprintf("n%d", i+1),
			Latency: time.Millisecond, Up: 1 << 20, Down: 1 << 20,
		})
	}
	// 256 unidirectional links fill the 1-byte id space exactly; one
	// fresh join pair crosses it.
	join := topology.Event{At: time.Second, Kind: topology.EvLinkJoin, Orig: "n0", Dest: "n5"}

	withEvent := *top
	withEvent.Events = []topology.Event{join}
	if _, err := NewRuntimeFromTopology(sim.NewEngine(1), &withEvent, 2, nil, Options{}); err == nil {
		t.Fatal("deploy accepted pre-registered fresh links past the narrow id space")
	}

	rt, err := NewRuntimeFromTopology(sim.NewEngine(1), top, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.ApplyEvents(topology.Event{Kind: topology.EvLinkJoin, Orig: "n0", Dest: "n5"}); err == nil {
		t.Fatal("runtime accepted fresh links past the narrow id space")
	}
	// The vetoed group must not have advanced the live state.
	if got := rt.State().Graph.NumLinks(); got != 256 {
		t.Fatalf("vetoed join advanced the graph to %d links", got)
	}
}

// TestIdleReleaseKeepsPathLoss: when a throttled flow goes idle, the
// Manager releases its allocation back to the path's rate and touches
// nothing else, so the loss the TCAL's netem enforces toward the
// destination is still exactly the collapsed path's: the declared 1 %,
// folded once along a path with one lossy link, and never composed again.
func TestIdleReleaseKeepsPathLoss(t *testing.T) {
	const yaml = `
experiment:
  services:
    name: a1
    name: a2
    name: b
  bridges:
    name: s
  links:
    orig: a1
    dest: s
    latency: 5
    up: 100Mbps
    loss: 0.01
    orig: a2
    dest: s
    latency: 5
    up: 100Mbps
    orig: s
    dest: b
    latency: 5
    up: 10Mbps
`
	rt := buildRuntime(t, yaml, 3, Options{})
	rt.Start()
	a1, _ := rt.Container("a1")
	a2, _ := rt.Container("a2")
	b, _ := rt.Container("b")
	// Two 8 Mb/s CBR flows share the 10 Mb/s link into b; a1's stops at 1 s.
	for _, f := range []struct {
		c    *Container
		stop time.Duration
	}{{a1, time.Second}, {a2, 2 * time.Second}} {
		f := f
		var tick func()
		tick = func() {
			if rt.Eng.Now() < f.stop {
				f.c.Stack.SendUDP(b.IP, 9, 9, 1000, nil)
				rt.Eng.At(rt.Eng.Now()+time.Millisecond, tick)
			}
		}
		rt.Eng.At(0, tick)
	}
	path := rt.path(a1, b.IP)
	rt.Eng.Run(900 * time.Millisecond)
	if got, _ := a1.TCAL().Props(b.IP); got.Bandwidth >= path.Bandwidth {
		t.Fatalf("a1 -> b enforced %v while sharing, want below the path's %v", got.Bandwidth, path.Bandwidth)
	}
	rt.Eng.Run(1500 * time.Millisecond)
	got, _ := a1.TCAL().Props(b.IP)
	if got.Bandwidth != path.Bandwidth {
		t.Fatalf("idle a1 -> b enforced %v, want the released path rate %v", got.Bandwidth, path.Bandwidth)
	}
	if want := units.Loss(0.01); got.Loss != want || path.Loss != want {
		t.Fatalf("idle a1 -> b loss = %v on a path of loss %v, want both %v", float64(got.Loss), float64(path.Loss), float64(want))
	}
}
