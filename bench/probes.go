package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/metadata"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcal"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
)

// Layer probes: short closed loops that call one layer's exported
// functions with workload-shaped inputs and report ns and allocations
// per operation. They are evidence for a layer, never for the system —
// the end-to-end metrics are — but they say which layer a change moved
// when the whole-run CPU shares are too coarse to tell.

// A probe is repeated up to probeReps times, or until probeBudget of
// wall-clock is spent (the gossip probe takes seconds and runs once);
// the median is reported.
const (
	probeReps   = 5
	probeBudget = time.Second
)

// probe measures run, which performs and returns a number of
// operations. setup builds fresh state for each repetition, untimed.
func probe(setup func() (run func() int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	start := time.Now()
	for i := 0; i < probeReps && (i == 0 || time.Since(start) < probeBudget); i++ {
		run := setup()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops := run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return quantile(ns, 0.5), quantile(allocs, 0.5)
}

// probeMetrics names what runProbes returns.
var probeMetrics = func() []string {
	names := []string{
		"sim.hold_ns_per_event", "sim.hold_allocs_per_event", "sim.rearm_ns_per_op",
		"netem.chain_ns_per_packet", "netem.chain_allocs_per_packet",
		"fabric.forward_ns_per_packet_hop", "fabric.forward_allocs_per_packet_hop",
		"transport.bulk_ns_per_segment", "transport.bulk_allocs_per_segment",
		"tcal.setbandwidth_ns_per_op",
		"core.allocate_ns_per_flow", "core.allocate_allocs_per_op",
		"topology.apply_ns_per_event",
		"graph.shortest_paths_ns_per_source", "graph.shortest_paths_allocs_per_source",
	}
	for _, s := range dissemStrategies {
		names = append(names, "dissem."+s+".period_ns_per_node", "dissem."+s+".period_allocs_per_node")
	}
	return names
}()

// probeShrink divides every probe's operation count; 1 outside tests.
var probeShrink = 1

// runProbes runs every probe and returns the per-layer metrics they
// produce.
func runProbes(seed int64) map[string]float64 {
	out := make(map[string]float64)
	set := func(nsName, allocName string, ns, allocs float64) {
		out[nsName] = ns
		if allocName != "" {
			out[allocName] = allocs
		}
	}
	ns, al := probeSimHold(seed)
	set("sim.hold_ns_per_event", "sim.hold_allocs_per_event", ns, al)
	ns, _ = probeSimRearm()
	set("sim.rearm_ns_per_op", "", ns, 0)
	ns, al = probeNetemChain()
	set("netem.chain_ns_per_packet", "netem.chain_allocs_per_packet", ns, al)
	ns, al = probeFabricForward()
	set("fabric.forward_ns_per_packet_hop", "fabric.forward_allocs_per_packet_hop", ns, al)
	ns, al = probeTransportBulk()
	set("transport.bulk_ns_per_segment", "transport.bulk_allocs_per_segment", ns, al)
	ns, _ = probeTCALSetBandwidth()
	set("tcal.setbandwidth_ns_per_op", "", ns, 0)
	ns, al = probeCoreAllocate()
	set("core.allocate_ns_per_flow", "core.allocate_allocs_per_op", ns/probeFlows, al)
	for _, s := range dissemStrategies {
		ns, al = probeDissemPeriod(s, seed)
		set("dissem."+s+".period_ns_per_node", "dissem."+s+".period_allocs_per_node", ns, al)
	}
	ns, spNs, spAl := probeTopology(seed)
	set("topology.apply_ns_per_event", "", ns, 0)
	set("graph.shortest_paths_ns_per_source", "graph.shortest_paths_allocs_per_source", spNs, spAl)
	return out
}

// probeSimHold is the classic hold model: a queue kept at depth 4096
// where every event that fires schedules one successor a random
// increment ahead.
func probeSimHold(seed int64) (float64, float64) {
	const depth = 4096
	events := 200000 / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		r := newRNG(seed, "probe/sim")
		left := events
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				eng.After(r.between(0, time.Millisecond), fire)
			}
		}
		for i := 0; i < depth; i++ {
			eng.After(r.between(0, time.Millisecond), fire)
		}
		return func() int {
			n := 0
			for eng.Step() {
				n++
			}
			return n
		}
	})
}

// probeSimRearm is TCP's retransmission timer: every ACK stops the
// pending timer and arms a new one 200 ms out, so the queue fills with
// cancelled events that surface only when their time comes.
func probeSimRearm() (float64, float64) {
	ops := 200000 / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		return func() int {
			t := eng.After(200*time.Millisecond, func() {})
			for i := 0; i < ops; i++ {
				t.Stop()
				t = eng.After(200*time.Millisecond, func() {})
				if i%16 == 0 {
					eng.Run(eng.Now() + time.Millisecond)
				}
			}
			return ops
		}
	})
}

// probeNetemChain pushes MTU packets through one htb → netem chain at
// its shaped rate.
func probeNetemChain() (float64, float64) {
	packets := 50000 / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		delivered := 0
		chain := netem.NewChain(eng, netem.ChainProps{Delay: 10 * time.Millisecond, Rate: 100 * units.Mbps},
			func(*packet.Packet) { delivered++ })
		pkts := make([]packet.Packet, packets)
		gap := time.Duration(packet.MTU * 8 * int64(time.Second) / int64(100*units.Mbps))
		return func() int {
			for i := range pkts {
				pkts[i].Size = packet.MTU
				chain.Enqueue(&pkts[i])
				eng.Run(eng.Now() + gap)
			}
			eng.Run(eng.Now() + time.Second)
			if delivered != packets {
				panic(fmt.Sprintf("bench: netem probe delivered %d of %d", delivered, packets))
			}
			return packets
		}
	})
}

// probeFabricForward sends packets across a three-hop line.
func probeFabricForward() (float64, float64) {
	const hops = 3
	packets := 30000 / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		g := graph.New()
		lp := graph.LinkProps{Latency: 100 * time.Microsecond, Bandwidth: 10 * units.Gbps}
		a := g.MustAddNode("a", graph.Service)
		s1 := g.MustAddNode("s1", graph.Bridge)
		s2 := g.MustAddNode("s2", graph.Bridge)
		b := g.MustAddNode("b", graph.Service)
		g.AddBiLink(a, s1, lp)
		g.AddBiLink(s1, s2, lp)
		g.AddBiLink(s2, b, lp)
		nw := fabric.New(eng, g, fabric.Options{})
		ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(0, 0, 2)
		delivered := 0
		nw.AttachEndpoint(a, ipA, func(*packet.Packet) {})
		nw.AttachEndpoint(b, ipB, func(*packet.Packet) { delivered++ })
		pkts := make([]packet.Packet, packets)
		return func() int {
			for i := range pkts {
				pkts[i] = packet.Packet{Src: ipA, Dst: ipB, Proto: packet.UDP, Size: packet.MTU}
				nw.Send(&pkts[i])
				eng.Run(eng.Now() + 2*time.Microsecond)
			}
			eng.Run(eng.Now() + time.Second)
			if delivered != packets {
				panic(fmt.Sprintf("bench: fabric probe delivered %d of %d", delivered, packets))
			}
			return packets * hops
		}
	})
}

// probeTransportBulk is one Cubic bulk transfer between two stacks on
// the physical-cluster star.
func probeTransportBulk() (float64, float64) {
	bytes := (32 << 20) / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		nw, hosts := fabric.Star(eng, 2, 10*units.Gbps, 50*time.Microsecond)
		ipA, ipB := packet.MakeIP(0, 0, 1), packet.MakeIP(1, 0, 1)
		nw.AttachEndpoint(hosts[0], ipA, nil)
		nw.AttachEndpoint(hosts[1], ipB, nil)
		cli, srv := transport.NewStack(eng, nw, ipA), transport.NewStack(eng, nw, ipB)
		received := 0
		srv.Listen(5201, &transport.Listener{OnAccept: func(c *transport.Conn) {
			c.OnData = func(n int) { received += n }
		}})
		return func() int {
			cli.Dial(ipB, 5201, transport.Cubic).Write(bytes)
			for received < bytes && eng.Now() < time.Minute {
				eng.Run(eng.Now() + 10*time.Millisecond)
			}
			if received < bytes {
				panic(fmt.Sprintf("bench: transport probe moved %d of %d bytes", received, bytes))
			}
			return bytes / packet.MSS
		}
	})
}

// probeFlows is the size of the dumbbell the control-plane probes use:
// cbr_mesh64's 256 flows.
const probeFlows = 256

// probeTCALSetBandwidth is the enforcement step of the emulation loop:
// one TCAL with a chain per destination, rates rewritten round-robin.
func probeTCALSetBandwidth() (float64, float64) {
	ops := 200000 / probeShrink
	return probe(func() func() int {
		eng := sim.NewEngine(1)
		tc := tcal.New(eng, func(*packet.Packet) {})
		dsts := make([]packet.IP, probeFlows)
		for i := range dsts {
			dsts[i] = packet.MakeIP(1, byte(i/250), byte(i%250))
			tc.InstallPath(dsts[i], tcal.PathProps{Latency: 10 * time.Millisecond, Bandwidth: 100 * units.Mbps})
		}
		return func() int {
			for i := 0; i < ops; i++ {
				if err := tc.SetBandwidth(dsts[i%probeFlows], units.Bandwidth(1e6+i)); err != nil {
					panic(err)
				}
			}
			return ops
		}
	})
}

// dumbbellLinks returns flow i's link ids on a dumbbell whose
// bottleneck is link 0 and whose access links follow in pairs.
func dumbbellLinks(i int) [3]int { return [3]int{1 + 2*i, 0, 2 + 2*i} }

// probeCoreAllocate solves the 256-flow dumbbell with a warm arena; one
// operation is one whole solve.
func probeCoreAllocate() (float64, float64) {
	solves := 1 + 300/probeShrink
	return probe(func() func() int {
		caps := make([]float64, 1+2*probeFlows)
		caps[0] = meshPerFlowBps * probeFlows
		flows := make([]core.FlowDemand, probeFlows)
		for i := range flows {
			l := dumbbellLinks(i)
			caps[l[0]], caps[l[2]] = 100e6, 100e6
			oneWay := meshClassLatencyMs[i%4] + meshBottleneckMs + meshServerMs
			flows[i] = core.FlowDemand{ID: core.LocalFlowID(i/4, i%4), Links: l[:], RTT: 2 * time.Duration(oneWay) * time.Millisecond}
		}
		var st core.AllocState
		out := st.Allocate(caps, flows, nil)
		return func() int {
			for i := 0; i < solves; i++ {
				out = st.Allocate(caps, flows, out)
			}
			return solves
		}
	})
}

// memTransport queues datagrams between in-process dissemination nodes.
type memTransport struct {
	from  int
	queue *[]memDatagram
}

type memDatagram struct {
	to      int
	payload []byte
}

func (t memTransport) SendTo(host int, payload []byte) {
	*t.queue = append(*t.queue, memDatagram{host, append([]byte(nil), payload...)})
}

// probeDissemPeriod runs 32 nodes of one strategy through 200 emulation
// periods over an in-memory transport: every node publishes its four
// flows, every datagram (and whatever it triggers) is received, every
// node reads its remote view. One operation is one node-period.
func probeDissemPeriod(strategy string, seed int64) (float64, float64) {
	const nodes = 32
	periods := 200 / probeShrink
	if periods < 4 {
		periods = 4
	}
	kind, err := dissem.ParseKind(strategy)
	if err != nil {
		panic(err)
	}
	return probe(func() func() int {
		var queue []memDatagram
		ns := make([]dissem.Node, nodes)
		msgs := make([]*metadata.Message, nodes)
		for h := range ns {
			n, err := dissem.New(dissem.Config{Kind: kind, NumHosts: nodes, Wide: true, Seed: seed}, h, memTransport{h, &queue})
			if err != nil {
				panic(err)
			}
			ns[h] = n
			msgs[h] = &metadata.Message{Host: uint16(h)}
			for f := 0; f < meshFlowsPerHost; f++ {
				l := dumbbellLinks(h*meshFlowsPerHost + f)
				msgs[h].Flows = append(msgs[h].Flows, metadata.FlowRecord{Links: []uint16{uint16(l[0]), uint16(l[1]), uint16(l[2])}})
			}
		}
		r := newRNG(seed, "probe/dissem")
		var view []dissem.RemoteFlow
		return func() int {
			now := time.Duration(0)
			for p := 0; p < periods; p++ {
				now += 50 * time.Millisecond
				for h, n := range ns {
					for f := range msgs[h].Flows {
						msgs[h].Flows[f].BPS = uint32(1_800_000 + r.intn(400_000))
					}
					n.Publish(now, msgs[h])
				}
				for len(queue) > 0 {
					batch := queue
					queue = nil
					for _, d := range batch {
						ns[d.to].Receive(now, d.payload)
					}
				}
				for _, n := range ns {
					view = n.AppendRemoteFlows(now, 150*time.Millisecond, view[:0])
				}
			}
			if len(view) == 0 {
				panic("bench: dissem probe ended with an empty view")
			}
			return nodes * periods
		}
	})
}

// probeTopology applies latency flaps to the scalefree_flap graph
// through topology.Live, and runs graph.ShortestPaths from the ping
// sources — the two halves of what one SetLink costs.
func probeTopology(seed int64) (applyNs, pathsNs, pathsAllocs float64) {
	in, err := generate("scalefree_flap", seed, sizing{Seconds: runSeconds})
	if err != nil {
		panic(err)
	}
	top, err := topology.ParseYAML(in.YAML)
	if err != nil {
		panic(err)
	}
	g, _, err := top.Build()
	if err != nil {
		panic(err)
	}
	applyNs, _ = probe(func() func() int {
		live := topology.NewLive(g)
		return func() int {
			for _, ev := range in.Flap.Events {
				l, lat := in.Flap.Links[ev.Link], ev.Latency
				err := live.Apply(ev.At, topology.Event{
					At: ev.At, Kind: topology.EvSetLink, Orig: l.A, Dest: l.B,
					Props: topology.LinkPatch{Latency: &lat},
				})
				if err != nil {
					panic(err)
				}
			}
			return len(in.Flap.Events)
		}
	})
	var sources []graph.NodeID
	for _, p := range in.Flap.Pairs {
		for _, name := range []string{p.Src, p.Dst} {
			id, ok := g.Lookup(name)
			if !ok {
				panic("bench: probe topology lost " + name)
			}
			sources = append(sources, id)
		}
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a] < sources[b] })
	pathsNs, pathsAllocs = probe(func() func() int {
		return func() int {
			reached := 0
			for _, s := range sources {
				reached += len(g.ShortestPaths(s))
			}
			if reached == 0 {
				panic("bench: probe topology is disconnected")
			}
			return len(sources)
		}
	})
	return applyNs, pathsNs, pathsAllocs
}
