package apps

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

// twoHosts builds a - bridge - b over the given link props.
func twoHosts(t testing.TB, lp graph.LinkProps, seed int64) (*sim.Engine, *transport.Stack, *transport.Stack, packet.IP) {
	t.Helper()
	eng := sim.NewEngine(seed)
	g := graph.New()
	a := g.MustAddNode("a", graph.Service)
	b := g.MustAddNode("b", graph.Service)
	s := g.MustAddNode("s", graph.Bridge)
	g.AddBiLink(a, s, lp)
	g.AddBiLink(s, b, lp)
	nw := fabric.New(eng, g, fabric.Options{})
	ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
	nw.AttachEndpoint(a, ipA, nil)
	nw.AttachEndpoint(b, ipB, nil)
	return eng, transport.NewStack(eng, nw, ipA), transport.NewStack(eng, nw, ipB), ipB
}

func TestIperfMeasuresLineRate(t *testing.T) {
	lp := graph.LinkProps{Latency: 5 * time.Millisecond, Bandwidth: 100 * units.Mbps}
	eng, cli, srv, dst := twoHosts(t, lp, 1)
	server := NewIperfServer(eng, srv, 5201, true)
	NewIperfClient(eng, cli, dst, 5201, transport.Cubic)
	eng.Run(20 * time.Second)
	// Steady-state throughput from the sampler over [10s, 20s].
	mbps := server.Series.MeanBetween(10*time.Second, 20*time.Second) / 1e6
	if mbps < 80 || mbps > 97 {
		t.Fatalf("iperf = %.1f Mb/s on a 100Mb/s path, want 80-97 (droptail sawtooth x header overhead)", mbps)
	}
}

func TestPinger(t *testing.T) {
	lp := graph.LinkProps{Latency: 10 * time.Millisecond, Bandwidth: units.Gbps}
	eng, cli, _, dst := twoHosts(t, lp, 3)
	p := NewPinger(eng, cli, dst, 100*time.Millisecond)
	eng.Run(10 * time.Second)
	p.Stop()
	if p.RTTs.Count() < 95 {
		t.Fatalf("replies = %d, want ~100", p.RTTs.Count())
	}
	if m := p.RTTs.Mean(); m < 39.9 || m > 41 {
		t.Fatalf("mean RTT = %.2fms, want ~40", m)
	}
	if p.Lost() > 2 {
		t.Fatalf("lost %d pings on a clean path", p.Lost())
	}
}

// TestPingerClampsInterval: a zero or negative interval used to reach
// Engine.Every and panic; it is clamped to a millisecond instead.
func TestPingerClampsInterval(t *testing.T) {
	lp := graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps}
	for _, interval := range []time.Duration{0, -time.Second} {
		eng, cli, _, dst := twoHosts(t, lp, 6)
		p := NewPinger(eng, cli, dst, interval)
		eng.Run(100 * time.Millisecond)
		p.Stop()
		if p.Sent < 90 || p.Sent > 101 {
			t.Fatalf("interval %v: sent %d pings in 100ms, want one per millisecond", interval, p.Sent)
		}
	}
}

func TestPingerCountsLosses(t *testing.T) {
	lp := graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps, Loss: 0.5}
	eng, cli, _, dst := twoHosts(t, lp, 4)
	p := NewPinger(eng, cli, dst, 10*time.Millisecond)
	eng.Run(10 * time.Second)
	p.Stop()
	frac := float64(p.Lost()) / float64(p.Sent)
	// Request and reply each cross two 50%-loss links: P(success) = 0.5^4.
	if frac < 0.85 || frac > 0.99 {
		t.Fatalf("loss fraction = %.2f, want ~0.94", frac)
	}
}

func TestWrkClosedLoop(t *testing.T) {
	lp := graph.LinkProps{Latency: 5 * time.Millisecond, Bandwidth: 100 * units.Mbps}
	eng, cli, srv, dst := twoHosts(t, lp, 5)
	server := NewHTTPServer(srv, 80, 200, 64*1024)
	w := NewWrkClient(eng, cli, dst, 80, 4, 200, 64*1024, transport.Cubic)
	eng.Run(30 * time.Second)
	w.Stop()
	if w.Completed < 100 {
		t.Fatalf("completed = %d, want >> 100", w.Completed)
	}
	if server.Requests < w.Completed {
		t.Fatalf("server saw %d requests < client's %d completions", server.Requests, w.Completed)
	}
	// Throughput should approach the link rate: 64KB responses over
	// 100Mb/s with 4 connections.
	mbps := float64(w.BytesIn) * 8 / 30 / 1e6
	if mbps < 70 {
		t.Fatalf("wrk throughput = %.1f Mb/s, want near line rate", mbps)
	}
	// Latency at least the 20ms RTT.
	if p50 := w.Latencies.Percentile(50); p50 < 20 {
		t.Fatalf("p50 latency = %.2fms below RTT", p50)
	}
}

func TestCurlConnectionPerRequest(t *testing.T) {
	lp := graph.LinkProps{Latency: 5 * time.Millisecond, Bandwidth: 100 * units.Mbps}
	eng, cli, srv, dst := twoHosts(t, lp, 6)
	NewHTTPServer(srv, 80, 200, 64*1024)
	c := NewCurlClient(eng, cli, dst, 80, 200, 64*1024, transport.Cubic)
	eng.Run(30 * time.Second)
	if c.Completed < 50 {
		t.Fatalf("completed = %d", c.Completed)
	}
	// Each request pays a handshake: latency >= 2 RTT (connect + data),
	// and slow start on a fresh connection is slower than keep-alive.
	if p50 := c.Latencies.Percentile(50); p50 < 40 {
		t.Fatalf("curl p50 = %.2fms, want >= 2 RTT", p50)
	}
}

func TestKVServerAndMemtier(t *testing.T) {
	lp := graph.LinkProps{Latency: time.Millisecond, Bandwidth: units.Gbps}
	eng, cli, srv, dst := twoHosts(t, lp, 7)
	server := NewKVServer(eng, srv, 11211)
	m := NewMemtierClient(eng, cli, dst, 11211, 4)
	eng.Run(10 * time.Second)
	if m.Completed < 1000 {
		t.Fatalf("ops = %d, want thousands on a LAN", m.Completed)
	}
	if server.Ops < m.Completed {
		t.Fatalf("server ops %d < client completions %d", server.Ops, m.Completed)
	}
	// Closed loop, 4 conns, ~4ms RTT+service: ops/s ≈ 4 / 0.0042.
	opsPerSec := float64(m.Completed) / 10
	if opsPerSec < 500 || opsPerSec > 4000 {
		t.Fatalf("ops/s = %.0f, out of plausible closed-loop range", opsPerSec)
	}
	if p50 := m.Latencies.Percentile(50); p50 < 4 || p50 > 12 {
		t.Fatalf("p50 = %.2fms, want ~RTT+service", p50)
	}
}

func TestKVServiceTimeSaturation(t *testing.T) {
	// One server saturates at 1/kvServiceTime ops/s regardless of
	// connection count: 32 connections at a 0.4ms RTT offer more.
	lp := graph.LinkProps{Latency: 100 * time.Microsecond, Bandwidth: units.Gbps}
	eng, cli, srv, dst := twoHosts(t, lp, 8)
	NewKVServer(eng, srv, 11211)
	m := NewMemtierClient(eng, cli, dst, 11211, 32)
	eng.Run(10 * time.Second)
	opsPerSec := float64(m.Completed) / 10
	limit := float64(time.Second / kvServiceTime)
	if opsPerSec < 0.8*limit || opsPerSec > 1.1*limit {
		t.Fatalf("saturated ops/s = %.0f, want ~%.0f (M/D/1 cap)", opsPerSec, limit)
	}
}

// cassProvider satisfies StackProvider over a hand-built two-region
// fabric: local-*/ycsb-* on one side, remote-* across a WAN link.
type cassProvider struct {
	eng    *sim.Engine
	stacks map[string]*transport.Stack
	ips    map[string]packet.IP
}

func (p *cassProvider) AppStack(name string) (*transport.Stack, packet.IP, error) {
	st, ok := p.stacks[name]
	if !ok {
		return nil, packet.IP{}, errUnknown(name)
	}
	return st, p.ips[name], nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown container " + string(e) }

func buildCassFabric(t *testing.T, nPairs int, wanRTT time.Duration, seed int64) *cassProvider {
	t.Helper()
	eng := sim.NewEngine(seed)
	g := graph.New()
	local := g.MustAddNode("rg-local", graph.Bridge)
	remote := g.MustAddNode("rg-remote", graph.Bridge)
	g.AddBiLink(local, remote, graph.LinkProps{Latency: wanRTT / 2, Bandwidth: units.Gbps})
	var names []string
	for i := 0; i < nPairs; i++ {
		names = append(names, fmt.Sprintf("local-%d", i), fmt.Sprintf("ycsb-%d", i), fmt.Sprintf("remote-%d", i))
	}
	nodeOf := map[string]graph.NodeID{}
	for _, n := range names {
		at := local
		if strings.HasPrefix(n, "remote") {
			at = remote
		}
		id := g.MustAddNode(n, graph.Service)
		g.AddBiLink(id, at, graph.LinkProps{Latency: 200 * time.Microsecond, Bandwidth: units.Gbps})
		nodeOf[n] = id
	}
	nw := fabric.New(eng, g, fabric.Options{})
	p := &cassProvider{eng: eng, stacks: map[string]*transport.Stack{}, ips: map[string]packet.IP{}}
	idx := 0
	for _, n := range names {
		ip := packet.MakeIP(1, byte(idx/250), byte(idx%250))
		idx++
		nw.AttachEndpoint(nodeOf[n], ip, nil)
		p.stacks[n] = transport.NewStack(eng, nw, ip)
		p.ips[n] = ip
	}
	return p
}

func TestCassandraQuorumLatency(t *testing.T) {
	// Updates wait for the remote replica: their latency must carry the
	// WAN RTT; ONE-consistency reads must not.
	const wanRTT = 100 * time.Millisecond
	p := buildCassFabric(t, 2, wanRTT, 9)
	cl, err := DeployCassandra(p.eng, p, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	p.eng.Run(30 * time.Second)
	y := cl.Clients[0]
	if y.Completed < 100 {
		t.Fatalf("completed = %d", y.Completed)
	}
	readP50 := y.ReadLat.Percentile(50)
	updP50 := y.UpdateLat.Percentile(50)
	if readP50 > 20 {
		t.Fatalf("read p50 = %.1fms, should be local (<20ms)", readP50)
	}
	if updP50 < 95 || updP50 > 140 {
		t.Fatalf("update p50 = %.1fms, want >= WAN RTT (~100ms)", updP50)
	}
}

func TestCassandraWhatIfHalvedLatency(t *testing.T) {
	// The Figure 11 what-if: halving the WAN RTT should halve update
	// latency.
	run := func(rtt time.Duration) float64 {
		p := buildCassFabric(t, 2, rtt, 10)
		cl, err := DeployCassandra(p.eng, p, 2, 50)
		if err != nil {
			t.Fatal(err)
		}
		p.eng.Run(30 * time.Second)
		return cl.Clients[0].UpdateLat.Percentile(50)
	}
	full := run(200 * time.Millisecond)
	half := run(100 * time.Millisecond)
	ratio := half / full
	if ratio < 0.4 || ratio > 0.65 {
		t.Fatalf("halved-latency ratio = %.2f (full=%.1fms half=%.1fms), want ~0.5", ratio, full, half)
	}
}

func TestSMRBFTSmartConsensus(t *testing.T) {
	// 4 replicas across a WAN star; a client colocated with the leader.
	eng := sim.NewEngine(11)
	g := graph.New()
	hub := g.MustAddNode("hub", graph.Bridge)
	var ips []packet.IP
	stacks := map[string]*transport.Stack{}
	lat := []time.Duration{5, 40, 80, 100} // ms to hub
	nw := fabric.New(eng, func() *graph.Graph {
		for i, l := range lat {
			n := g.MustAddNode(fmt.Sprintf("r%d", i), graph.Service)
			g.AddBiLink(n, hub, graph.LinkProps{Latency: l * time.Millisecond, Bandwidth: units.Gbps})
		}
		c := g.MustAddNode("client", graph.Service)
		g.AddBiLink(c, hub, graph.LinkProps{Latency: 5 * time.Millisecond, Bandwidth: units.Gbps})
		return g
	}(), fabric.Options{})
	for i := range lat {
		ip := packet.MakeIP(2, 0, byte(i))
		id, _ := g.Lookup(fmt.Sprintf("r%d", i))
		nw.AttachEndpoint(id, ip, nil)
		stacks[fmt.Sprintf("r%d", i)] = transport.NewStack(eng, nw, ip)
		ips = append(ips, ip)
	}
	cid, _ := g.Lookup("client")
	cip := packet.MakeIP(2, 0, 99)
	nw.AttachEndpoint(cid, cip, nil)
	cliStack := transport.NewStack(eng, nw, cip)

	replicas := make([]*SMRReplica, 4)
	for i := range replicas {
		replicas[i] = NewSMRReplica(eng, stacks[fmt.Sprintf("r%d", i)], i, ips, SMRConfig{})
	}
	cli := NewSMRClient(eng, cliStack, 0, ips, 1)
	eng.Run(60 * time.Second)
	cli.Stop()
	if cli.Completed < 50 {
		t.Fatalf("completed = %d consensus instances", cli.Completed)
	}
	// Consensus latency is bounded below by reaching a quorum of 3
	// replicas through two all-to-all phases: at least ~4 crossings of
	// the median link.
	p50 := cli.Latencies.Percentile(50)
	if p50 < 100 || p50 > 600 {
		t.Fatalf("consensus p50 = %.1fms, implausible for this WAN", p50)
	}
	// All replicas executed every instance.
	for i, r := range replicas {
		if r.Executed < cli.Completed {
			t.Fatalf("replica %d executed %d < %d", i, r.Executed, cli.Completed)
		}
	}
}

func TestWheatFasterThanBFTSmart(t *testing.T) {
	// With weighted votes on the two fastest replicas, Wheat should
	// reach quorum faster than uniform voting on the same topology.
	run := func(cfg SMRConfig, n int) float64 {
		eng := sim.NewEngine(12)
		g := graph.New()
		hub := g.MustAddNode("hub", graph.Bridge)
		lat := []time.Duration{5, 10, 80, 120, 150}
		var ips []packet.IP
		var stacks []*transport.Stack
		for i := 0; i < n; i++ {
			nd := g.MustAddNode(fmt.Sprintf("r%d", i), graph.Service)
			g.AddBiLink(nd, hub, graph.LinkProps{Latency: lat[i] * time.Millisecond, Bandwidth: units.Gbps})
		}
		c := g.MustAddNode("client", graph.Service)
		g.AddBiLink(c, hub, graph.LinkProps{Latency: 5 * time.Millisecond, Bandwidth: units.Gbps})
		nw := fabric.New(eng, g, fabric.Options{})
		for i := 0; i < n; i++ {
			ip := packet.MakeIP(3, 0, byte(i))
			id, _ := g.Lookup(fmt.Sprintf("r%d", i))
			nw.AttachEndpoint(id, ip, nil)
			stacks = append(stacks, transport.NewStack(eng, nw, ip))
			ips = append(ips, ip)
		}
		cip := packet.MakeIP(3, 0, 99)
		cid, _ := g.Lookup("client")
		nw.AttachEndpoint(cid, cip, nil)
		cliStack := transport.NewStack(eng, nw, cip)
		for i := 0; i < n; i++ {
			NewSMRReplica(eng, stacks[i], i, ips, cfg)
		}
		cli := NewSMRClient(eng, cliStack, 0, ips, 1)
		eng.Run(120 * time.Second)
		return cli.Latencies.Percentile(50)
	}
	bft := run(SMRConfig{}, 4)
	wheat := run(WheatWeights(5), 5)
	if wheat >= bft {
		t.Fatalf("wheat p50 %.1fms not faster than bft-smart %.1fms", wheat, bft)
	}
}
