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
	// Hook, when set, runs at every node a packet traverses and owns the
	// per-hop cost: PerHopDelay is then not charged.
	Hook HopHook
}

// Network is a packet fabric over a topology graph.
//
// A packet costs one line event per pipe it crosses. A bridge's
// PerHopDelay is not an event of its own: every pipe into a hop-charging
// bridge adds it to its netem stage's exits as a constant (netem.SetHop),
// so the packet reaches the bridge already delayed and goes straight into
// the next pipe's shaper. Endpoints therefore never sit at such a bridge
// (AttachEndpoint panics): a packet delivered there would arrive one hop
// late.
type Network struct {
	eng *sim.Engine
	g   *graph.Graph
	opt Options

	// Every per-packet lookup is an index, never a hash: link ids, node
	// ids and endpoint slots are dense.
	pipes  []*netem.Chain // by graph link id; nil for a removed link
	bridge []bool         // by node id: the node pays PerHopDelay (never with a Hook), folded into its inbound pipes
	routes [][]int32      // node -> dst node -> out link id or a route sentinel; rows filled lazily
	// addrs reaches an endpoint from 10.b.c.d through the octets b, c, d
	// (1 KiB leaf pages); a leaf entry is an index into endpoints plus one,
	// 0 meaning unattached.
	addrs     [256]*[256]*[256]int32
	endpoints []endpoint

	// Delivered counts packets handed to endpoint handlers.
	Delivered int64
	// DroppedNoRoute counts packets with no path to the destination.
	DroppedNoRoute int64
}

// Route-table sentinels. Any other entry is an out link id.
const (
	routeUnknown     int32 = -1 // not computed yet
	routeUnreachable int32 = -2 // computed: no path
)

// endpoint is one attached address: the node it sits at and its delivery
// handler (nil until Register).
type endpoint struct {
	node    graph.NodeID
	handler packet.Handler
}

// New builds a fabric over g. The graph must not be mutated afterwards.
func New(eng *sim.Engine, g *graph.Graph, opt Options) *Network {
	if opt.PerHopDelay == 0 {
		opt.PerHopDelay = 20 * time.Microsecond
	}
	n := &Network{
		eng:    eng,
		g:      g,
		opt:    opt,
		pipes:  make([]*netem.Chain, g.NumLinks()),
		bridge: make([]bool, g.NumNodes()),
		routes: make([][]int32, g.NumNodes()),
	}
	for id, node := range g.Nodes() {
		n.bridge[id] = node.Kind == graph.Bridge && opt.PerHopDelay > 0 && opt.Hook == nil
	}
	for id := range n.pipes {
		if !g.LinkRemoved(id) {
			n.buildPipe(id)
		}
	}
	return n
}

// buildPipe builds link id's pipe, one unidirectional shaped link:
// serialization at line rate with a finite queue, then propagation
// delay/jitter/loss (and the far node's hop when it is a bridge), then
// arrival at the far node.
func (n *Network) buildPipe(id int) {
	l := n.g.Link(id)
	to := l.To
	c := netem.NewChain(n.eng, netem.ChainProps{Delay: l.Latency, Jitter: l.Jitter, Loss: l.Loss, Rate: l.Bandwidth},
		func(p *packet.Packet) { n.arrive(to, p) })
	if n.bridge[to] {
		c.Netem.SetHop(n.opt.PerHopDelay)
	}
	c.HTB.SetQueueLimit(queueBytes(l.LinkProps))
	n.pipes[id] = c
}

// firstHop resolves the sender's egress shaper from src toward dst: the
// sender's own NIC qdisc, the one queue whose TSQ limit throttles it.
func (n *Network) firstHop(src, dst packet.IP) *netem.TokenBucket {
	s, d := n.endpoint(src), n.endpoint(dst)
	if s == nil || d == nil || s.node == d.node {
		return nil
	}
	link, ok := n.nextHop(s.node, d.node)
	if !ok {
		return nil
	}
	return n.pipes[link].HTB
}

// Writable implements packet.FlowControl: a sender may emit while its own
// first-hop queue stays under the TSQ threshold.
func (n *Network) Writable(src, dst packet.IP, b int) bool {
	tb := n.firstHop(src, dst)
	return tb == nil || tb.Writable(b)
}

// NotifyWritable parks fn until the sender's first-hop queue drains below
// the threshold.
func (n *Network) NotifyWritable(src, dst packet.IP, fn func()) {
	tb := n.firstHop(src, dst)
	if tb == nil {
		fn()
		return
	}
	tb.NotifyWritable(fn)
}

// queueBytes sizes a link's queue at 1.5 × its bandwidth-delay product,
// floor 32 KiB: the classic router buffer sizing rule [82, 84].
func queueBytes(lp graph.LinkProps) int {
	bdp := lp.Bandwidth.BytesIn(2*lp.Latency + 20*time.Millisecond)
	return max(int(1.5*bdp), 32*1024)
}

// Graph returns the topology graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// AttachEndpoint binds an IP address to a graph node and registers its
// delivery handler. Several IPs may share one node (containers on a host).
// The address must be in 10/8, the plan every deployment uses
// (packet.MakeIP), and the node must not be a hop-charging bridge, whose
// inbound pipes already charge the hop onward; anything else panics.
func (n *Network) AttachEndpoint(node graph.NodeID, ip packet.IP, h packet.Handler) {
	if ip[0] != 10 {
		panic(fmt.Sprintf("fabric: AttachEndpoint of %v outside 10/8", ip))
	}
	if n.bridge[node] {
		panic(fmt.Sprintf("fabric: AttachEndpoint of %v at hop-charging bridge %d", ip, node))
	}
	mid := n.addrs[ip[1]]
	if mid == nil {
		mid = new([256]*[256]int32)
		n.addrs[ip[1]] = mid
	}
	leaf := mid[ip[2]]
	if leaf == nil {
		leaf = new([256]int32)
		mid[ip[2]] = leaf
	}
	if i := leaf[ip[3]]; i != 0 {
		n.endpoints[i-1] = endpoint{node, h}
		return
	}
	n.endpoints = append(n.endpoints, endpoint{node, h})
	leaf[ip[3]] = int32(len(n.endpoints))
}

// lookup returns the index into endpoints plus one of the endpoint
// attached at ip, or 0.
func (n *Network) lookup(ip packet.IP) int32 {
	if ip[0] != 10 {
		return 0
	}
	mid := n.addrs[ip[1]]
	if mid == nil {
		return 0
	}
	leaf := mid[ip[2]]
	if leaf == nil {
		return 0
	}
	return leaf[ip[3]]
}

// endpoint returns the endpoint attached at ip, or nil.
func (n *Network) endpoint(ip packet.IP) *endpoint {
	if i := n.lookup(ip); i != 0 {
		return &n.endpoints[i-1]
	}
	return nil
}

// Register implements packet.Network for endpoints attached beforehand via
// AttachEndpoint with a nil handler.
func (n *Network) Register(ip packet.IP, h packet.Handler) {
	e := n.endpoint(ip)
	if e == nil {
		panic(fmt.Sprintf("fabric: Register of unattached IP %v", ip))
	}
	e.handler = h
}

// Send injects a packet at its source endpoint and forwards it hop by hop
// toward the destination. Implements packet.Network: the fabric owns p
// from here on and releases it once delivered or dropped. The destination
// endpoint is resolved once, here, and its index rides in p.Route; an
// endpoint is updated in place, never moved, so the index stays good
// while the packet is in flight.
func (n *Network) Send(p *packet.Packet) {
	p.AssertLive("fabric: Send")
	src, dst := n.lookup(p.Src), n.lookup(p.Dst)
	if src == 0 || dst == 0 {
		n.drop(p)
		return
	}
	p.Route = dst
	n.forward(n.endpoints[src-1].node, p)
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
// else into the next link's queue. A bridge's per-hop delay was already
// charged by the pipe that brought p here. A delivered packet is released
// when its handler returns.
func (n *Network) forward(node graph.NodeID, p *packet.Packet) {
	dst := &n.endpoints[p.Route-1]
	if dst.node == node {
		h := dst.handler
		if h == nil {
			p.Release()
			return
		}
		n.Delivered++
		h(p)
		p.Release()
		return
	}
	link, ok := n.nextHop(node, dst.node)
	if !ok {
		n.drop(p)
		return
	}
	pipe := n.pipes[link]
	if pipe == nil {
		n.drop(p)
		return
	}
	pipe.Enqueue(p)
}

// nextHop returns the outgoing link id from node toward dst from the route
// table, filled lazily by computeRoutes.
func (n *Network) nextHop(node, dst graph.NodeID) (int, bool) {
	if row := n.routes[node]; row != nil {
		switch l := row[dst]; l {
		case routeUnknown:
		case routeUnreachable:
			return -1, false
		default:
			return int(l), true
		}
	}
	return n.computeRoutes(node, dst)
}

// routeRow returns node's route row, allocating it all unknown.
func (n *Network) routeRow(node graph.NodeID) []int32 {
	row := n.routes[node]
	if row == nil {
		row = make([]int32, len(n.routes))
		for i := range row {
			row[i] = routeUnknown
		}
		n.routes[node] = row
	}
	return row
}

// computeRoutes is nextHop's miss: one Dijkstra per source node. It
// overwrites the source's row with every first hop, and seeds each
// intermediate node along the computed paths only where that node's entry
// is still unknown.
func (n *Network) computeRoutes(node, dst graph.NodeID) (int, bool) {
	paths := n.g.ShortestPaths(node)
	row := n.routeRow(node)
	for d, path := range paths {
		if len(path.Links) > 0 {
			row[d] = int32(path.Links[0])
			for i := 1; i < len(path.Links); i++ {
				at := n.routeRow(n.g.Link(path.Links[i-1]).To)
				if at[d] == routeUnknown {
					at[d] = int32(path.Links[i])
				}
			}
		}
	}
	if l := row[dst]; l >= 0 {
		return int(l), true
	}
	row[dst] = routeUnreachable
	return -1, false
}

// SetLinkProps updates a live link's pipe at runtime (used by dynamic
// scenarios that shape the physical network directly).
// An unknown or removed link id is ignored.
func (n *Network) SetLinkProps(id int, lp graph.LinkProps) {
	p := n.pipe(id)
	if p == nil {
		return
	}
	p.HTB.SetRate(lp.Bandwidth)
	p.HTB.SetQueueLimit(queueBytes(lp))
	p.Netem.Set(lp.Latency, lp.Jitter, lp.Loss)
}

// LinkStats reports the counters of one link's pipe, zeros for an unknown
// or removed link id.
func (n *Network) LinkStats(id int) (sentBytes, sentPackets, dropped int64) {
	p := n.pipe(id)
	if p == nil {
		return 0, 0, 0
	}
	return p.HTB.SentBytes, p.HTB.SentPackets, p.HTB.Dropped
}

// pipe returns link id's pipe, or nil when id is out of range or removed.
func (n *Network) pipe(id int) *netem.Chain {
	if id < 0 || id >= len(n.pipes) {
		return nil
	}
	return n.pipes[id]
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
