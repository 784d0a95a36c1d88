// Package fabric implements a packet-level network: links with
// serialization, propagation delay, jitter, loss and finite tail-drop
// queues; switches with per-hop processing; and shortest-path forwarding
// over a topology graph.
//
// It plays two roles in the reproduction. First, it is the "bare-metal"
// ground truth the paper compares against: running an application directly
// on a fabric built from the target topology emulates deploying it on real
// switches, with congestion and queueing emerging hop by hop. Second, a
// small star fabric models the physical cluster (hosts, 40 GbE switch) that
// Kollaps itself runs on, so the emulator's own traffic pays realistic —
// small but measurable — delays, reproducing the residual errors the paper
// reports in Table 4.
package fabric

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// HopHook lets a wrapper inject per-hop behaviour (e.g. the Mininet CPU
// model or the Maxinet controller) at every node traversal. It must call
// forward exactly once to continue delivery, or drop the packet by not
// calling it (and Release it, so the pool can reuse it).
type HopHook func(node graph.NodeID, p *packet.Packet, forward func())

// Options configure a Network.
type Options struct {
	// PerHopDelay models fixed switching/forwarding latency per network
	// element traversed (default 20µs — a hardware switch).
	PerHopDelay time.Duration
	// QueueBytes overrides the per-link queue size; 0 derives it from the
	// link's bandwidth-delay product (min 32 KiB, ~1.5 BDP).
	QueueBytes int
	// Hook, when set, runs at every node a packet traverses.
	Hook HopHook
}

// Network is a packet fabric over a topology graph.
type Network struct {
	eng *sim.Engine
	g   *graph.Graph
	opt Options

	pipes    map[int]*pipe // by graph link id
	handlers map[packet.IP]packet.Handler
	ipToNode map[packet.IP]graph.NodeID
	routes   map[graph.NodeID]map[graph.NodeID]int // node -> dst node -> out link id

	// Delivered counts packets handed to endpoint handlers.
	Delivered int64
	// DroppedNoRoute counts packets with no path to the destination.
	DroppedNoRoute int64
}

// pipe is one unidirectional link: serialization at line rate with a
// finite queue, then propagation delay/jitter/loss, then arrival at the
// far node.
type pipe struct {
	tb      *netem.TokenBucket
	ne      *netem.Netem
	to      graph.NodeID
	hop     sim.Line // bridge-hop delay ahead of tb, constant and so FIFO
	waiters netem.FIFO[func()]
}

// senderTSQ is the backpressure threshold applied at a sender's own
// first-hop link: a real host's NIC qdisc throttles the socket (TSQ)
// rather than tail-dropping locally. Queues at *intermediate* switches
// still drop — that is genuine network congestion.
const senderTSQ = 64 * 1024

// New builds a fabric over g. The graph must not be mutated afterwards.
func New(eng *sim.Engine, g *graph.Graph, opt Options) *Network {
	if opt.PerHopDelay == 0 {
		opt.PerHopDelay = 20 * time.Microsecond
	}
	n := &Network{
		eng:      eng,
		g:        g,
		opt:      opt,
		pipes:    make(map[int]*pipe),
		handlers: make(map[packet.IP]packet.Handler),
		ipToNode: make(map[packet.IP]graph.NodeID),
		routes:   make(map[graph.NodeID]map[graph.NodeID]int),
	}
	for id := 0; id < g.NumLinks(); id++ {
		if g.LinkRemoved(id) {
			continue
		}
		n.buildPipe(id)
	}
	return n
}

func (n *Network) buildPipe(id int) {
	l := n.g.Link(id)
	p := &pipe{to: l.To}
	// Arrival at the far node.
	arrive := func(pk *packet.Packet) { n.arrive(p.to, pk) }
	p.ne = netem.NewNetem(n.eng, l.Latency, l.Jitter, l.Loss, arrive)
	p.tb = netem.NewTokenBucket(n.eng, l.Bandwidth, p.ne.Enqueue)
	p.hop.Init(n.eng, p.tb.Enqueue)
	p.tb.OnDequeue = func() {
		// Wake one waiter per departure (FIFO): waking them all would
		// let the first refill the queue and starve the rest, whereas
		// the kernel's fq qdisc round-robins flows sharing a NIC.
		if p.waiters.Len() > 0 && p.tb.Backlog()+packet.MSS <= senderTSQ {
			p.waiters.Pop()()
		}
	}
	n.setQueue(p.tb, l.LinkProps)
	n.pipes[id] = p
}

// firstHop resolves the sender's egress pipe from src toward dst.
func (n *Network) firstHop(src, dst packet.IP) *pipe {
	srcNode, ok1 := n.ipToNode[src]
	dstNode, ok2 := n.ipToNode[dst]
	if !ok1 || !ok2 || srcNode == dstNode {
		return nil
	}
	link, ok := n.nextHop(srcNode, dstNode)
	if !ok {
		return nil
	}
	return n.pipes[link]
}

// Writable implements packet.FlowControl: a sender may emit while its own
// first-hop queue stays under the TSQ threshold.
func (n *Network) Writable(src, dst packet.IP, b int) bool {
	p := n.firstHop(src, dst)
	if p == nil {
		return true
	}
	return p.tb.Backlog()+b <= senderTSQ
}

// NotifyWritable parks fn until the sender's first-hop queue drains below
// the threshold.
func (n *Network) NotifyWritable(src, dst packet.IP, fn func()) {
	p := n.firstHop(src, dst)
	if p == nil {
		fn()
		return
	}
	p.waiters.Push(fn)
}

func (n *Network) setQueue(tb *netem.TokenBucket, lp graph.LinkProps) {
	q := n.opt.QueueBytes
	if q == 0 {
		// 1.5 × bandwidth-delay product, floor 32 KiB: the classic router
		// buffer sizing rule [82, 84].
		bdp := lp.Bandwidth.BytesIn(2*lp.Latency + 20*time.Millisecond)
		q = int(1.5 * bdp)
		if q < 32*1024 {
			q = 32 * 1024
		}
	}
	tb.SetQueueLimit(q)
}

// Engine returns the simulation engine the fabric runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Graph returns the topology graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// AttachEndpoint binds an IP address to a graph node and registers its
// delivery handler. Several IPs may share one node (containers on a host).
func (n *Network) AttachEndpoint(node graph.NodeID, ip packet.IP, h packet.Handler) {
	n.ipToNode[ip] = node
	n.handlers[ip] = h
}

// Register implements packet.Network for endpoints attached beforehand via
// AttachEndpoint with a nil handler.
func (n *Network) Register(ip packet.IP, h packet.Handler) {
	if _, ok := n.ipToNode[ip]; !ok {
		panic(fmt.Sprintf("fabric: Register of unattached IP %v", ip))
	}
	n.handlers[ip] = h
}

// NodeOf returns the node an IP is attached to.
func (n *Network) NodeOf(ip packet.IP) (graph.NodeID, bool) {
	id, ok := n.ipToNode[ip]
	return id, ok
}

// Send injects a packet at its source endpoint and forwards it hop by hop
// toward the destination. Implements packet.Network: the fabric owns p
// from here on and releases it once delivered or dropped.
func (n *Network) Send(p *packet.Packet) {
	p.AssertLive("fabric: Send")
	src, ok := n.ipToNode[p.Src]
	if !ok {
		n.drop(p)
		return
	}
	n.forward(src, p)
}

// drop counts an unroutable packet and releases it.
func (n *Network) drop(p *packet.Packet) {
	n.DroppedNoRoute++
	p.Release()
}

// arrive handles a packet reaching a node: local delivery or next hop,
// after per-hop processing.
func (n *Network) arrive(node graph.NodeID, p *packet.Packet) {
	if n.opt.Hook != nil {
		n.opt.Hook(node, p, func() { n.forward(node, p) })
		return
	}
	n.forward(node, p)
}

// forward moves p one step from node: to its handler at the destination,
// else into the next link's queue, after the per-hop delay when node is a
// bridge. That delay is constant, so each pipe's hop is a sim.Line and the
// default path allocates nothing per hop. A delivered packet is released
// when its handler returns.
func (n *Network) forward(node graph.NodeID, p *packet.Packet) {
	dstNode, ok := n.ipToNode[p.Dst]
	if !ok {
		n.drop(p)
		return
	}
	if dstNode == node {
		h := n.handlers[p.Dst]
		if h == nil {
			p.Release()
			return
		}
		n.Delivered++
		h(p)
		p.Release()
		return
	}
	link, ok := n.nextHop(node, dstNode)
	if !ok {
		n.drop(p)
		return
	}
	pipe := n.pipes[link]
	if pipe == nil {
		n.drop(p)
		return
	}
	if n.opt.PerHopDelay > 0 && n.g.Node(node).Kind == graph.Bridge {
		pipe.hop.At(n.eng.Now()+n.opt.PerHopDelay, p)
		return
	}
	pipe.tb.Enqueue(p)
}

// nextHop returns the outgoing link id from node toward dst from the route
// cache, filled lazily by computeRoutes.
func (n *Network) nextHop(node, dst graph.NodeID) (int, bool) {
	if m := n.routes[node]; m != nil {
		if l, ok := m[dst]; ok {
			return l, l >= 0
		}
	}
	return n.computeRoutes(node, dst)
}

// computeRoutes is nextHop's cache miss: one Dijkstra per source node, plus
// seeding of every intermediate node along computed paths.
func (n *Network) computeRoutes(node, dst graph.NodeID) (int, bool) {
	paths := n.g.ShortestPaths(node)
	m := n.routes[node]
	if m == nil {
		m = make(map[graph.NodeID]int)
		n.routes[node] = m
	}
	for d, path := range paths {
		if len(path.Links) > 0 {
			m[d] = path.Links[0]
			// Seed intermediate nodes along this path toward d.
			for i := 1; i < len(path.Links); i++ {
				at := n.g.Link(path.Links[i-1]).To
				mm := n.routes[at]
				if mm == nil {
					mm = make(map[graph.NodeID]int)
					n.routes[at] = mm
				}
				if _, ok := mm[d]; !ok {
					mm[d] = path.Links[i]
				}
			}
		}
	}
	if l, ok := m[dst]; ok {
		return l, true
	}
	m[dst] = -1 // negative cache: unreachable
	return -1, false
}

// InvalidateRoutes clears the routing cache (topology changed).
func (n *Network) InvalidateRoutes() {
	n.routes = make(map[graph.NodeID]map[graph.NodeID]int)
}

// SetLinkProps updates a live link's pipe at runtime (used by dynamic
// scenarios that shape the physical network directly).
func (n *Network) SetLinkProps(id int, lp graph.LinkProps) {
	p := n.pipes[id]
	if p == nil {
		return
	}
	p.tb.SetRate(lp.Bandwidth)
	n.setQueue(p.tb, lp)
	p.ne.Set(lp.Latency, lp.Jitter, lp.Loss)
}

// LinkStats reports the counters of one link's pipe.
func (n *Network) LinkStats(id int) (sentBytes, sentPackets, dropped int64) {
	p := n.pipes[id]
	if p == nil {
		return 0, 0, 0
	}
	return p.tb.SentBytes, p.tb.SentPackets, p.tb.Dropped
}

// Star builds the physical-cluster fabric: nHosts hosts connected to one
// switch by links of the given rate and per-direction latency. Returns the
// fabric and the host node ids. This models the dedicated cluster of the
// paper's evaluation (Dell hosts on a 40 GbE switch).
func Star(eng *sim.Engine, nHosts int, rate units.Bandwidth, hostLinkLatency time.Duration) (*Network, []graph.NodeID) {
	g := graph.New()
	sw := g.MustAddNode("cluster-switch", graph.Bridge)
	hosts := make([]graph.NodeID, nHosts)
	lp := graph.LinkProps{Latency: hostLinkLatency, Bandwidth: rate}
	for i := range hosts {
		hosts[i] = g.MustAddNode(fmt.Sprintf("host%d", i), graph.Service)
		g.AddBiLink(hosts[i], sw, lp)
	}
	nw := New(eng, g, Options{PerHopDelay: 10 * time.Microsecond})
	return nw, hosts
}
