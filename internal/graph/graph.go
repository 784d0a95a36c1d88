// Package graph implements the topology graph machinery Kollaps builds on:
// a weighted directed graph of services and bridges, Dijkstra all-pairs
// shortest paths, the end-to-end path property composition of §3, and the
// topology generators used by the evaluation (Barabási–Albert scale-free
// networks, dumbbells).
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/units"
)

// NodeID identifies a node within a Graph.
type NodeID int

// NodeKind distinguishes application endpoints from network elements.
type NodeKind int

// Node kinds. Services host application containers; bridges are the
// switches/routers that the collapsing step removes.
const (
	Service NodeKind = iota
	Bridge
)

func (k NodeKind) String() string {
	if k == Service {
		return "service"
	}
	return "bridge"
}

// Node is a vertex in the topology graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// LinkProps are the shapeable properties of a unidirectional link
// (§3: latency, bandwidth, jitter, packet loss).
type LinkProps struct {
	Latency   time.Duration
	Jitter    time.Duration
	Bandwidth units.Bandwidth
	Loss      units.Loss
}

// Link is a unidirectional edge. Bidirectional links in topology files are
// expanded into two Links (§3).
type Link struct {
	ID   int
	From NodeID
	To   NodeID
	LinkProps
}

// Graph is a directed multigraph of services and bridges. It is the
// in-memory structure the Emulation Manager maintains throughout an
// experiment.
type Graph struct {
	nodes  []Node
	links  []Link
	adj    []adjacency // node id -> its link ids
	byName map[string]NodeID
	// shared marks nodes, adj and byName as shared with a Clone (or its
	// origin): the first AddNode/AddLink on either side copies them.
	shared bool
}

// adjacency is one node's link ids: out leave the node, in arrive at it.
type adjacency struct{ out, in []int }

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// unshare gives g its own nodes, adjacency and name index before a
// structural mutation.
func (g *Graph) unshare() {
	if !g.shared {
		return
	}
	g.shared = false
	g.nodes = append([]Node(nil), g.nodes...)
	byName := make(map[string]NodeID, len(g.byName))
	for k, v := range g.byName {
		byName[k] = v
	}
	g.byName = byName
	// The rows are carved from one block (every link is in one out row
	// and one in row), capacity-clipped so an append to one row cannot
	// run into the next.
	flat := make([]int, 0, 2*len(g.links))
	carve := func(row []int) []int {
		flat = append(flat, row...)
		return flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	adj := make([]adjacency, len(g.adj))
	for i, a := range g.adj {
		adj[i] = adjacency{out: carve(a.out), in: carve(a.in)}
	}
	g.adj = adj
}

// AddNode adds a named node and returns its id. Duplicate names are an
// error: topology files identify endpoints by name.
func (g *Graph) AddNode(name string, kind NodeKind) (NodeID, error) {
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("graph: duplicate node name %q", name)
	}
	g.unshare()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.adj = append(g.adj, adjacency{})
	g.byName[name] = id
	return id, nil
}

// MustAddNode is AddNode for programmatic construction where duplicates
// indicate a bug.
func (g *Graph) MustAddNode(name string, kind NodeKind) NodeID {
	id, err := g.AddNode(name, kind)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLink adds a unidirectional link and returns its id.
func (g *Graph) AddLink(from, to NodeID, p LinkProps) int {
	g.unshare()
	id := len(g.links)
	g.links = append(g.links, Link{ID: id, From: from, To: to, LinkProps: p})
	g.adj[from].out = append(g.adj[from].out, id)
	g.adj[to].in = append(g.adj[to].in, id)
	return id
}

// AddBiLink adds two opposite links with identical properties and returns
// both ids (forward, reverse).
func (g *Graph) AddBiLink(a, b NodeID, p LinkProps) (int, int) {
	return g.AddLink(a, b, p), g.AddLink(b, a, p)
}

// RemoveLink marks a link as removed. Removed links are skipped by path
// computations. (The dynamic topology engine removes and re-adds links.)
func (g *Graph) RemoveLink(id int) {
	if id >= 0 && id < len(g.links) {
		g.links[id].Bandwidth = -1 // tombstone
	}
}

// LinkRemoved reports whether the link is tombstoned.
func (g *Graph) LinkRemoved(id int) bool {
	return id >= 0 && id < len(g.links) && g.links[id].Bandwidth < 0
}

// SetLinkProps replaces the properties of a live link.
func (g *Graph) SetLinkProps(id int, p LinkProps) {
	if id >= 0 && id < len(g.links) {
		l := &g.links[id]
		l.LinkProps = p
	}
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given id.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Lookup finds a node by name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links including tombstones.
func (g *Graph) NumLinks() int { return len(g.links) }

// Nodes returns all nodes.
func (g *Graph) Nodes() []Node { return g.nodes }

// Services returns the ids of all service nodes.
func (g *Graph) Services() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Service {
			out = append(out, n.ID)
		}
	}
	return out
}

// Clone returns an independent copy; the dynamic topology engine makes one
// per event group (§3). Only the link table — what events patch — is
// copied eagerly; nodes, the adjacency (out- and in-links) and the name
// index are shared until either side adds a node or a link.
func (g *Graph) Clone() *Graph {
	g.shared = true
	c := *g
	c.links = append([]Link(nil), g.links...)
	return &c
}

// Path is a shortest path between two services: the ordered link ids it
// traverses plus the composed end-to-end properties of §3:
//
//	Latency(P)  = Σ Latency(li)
//	Jitter(P)   = sqrt(Σ Jitter(li)²)
//	Loss(P)     = 1 − Π (1 − Loss(li))
//	Bandwidth(P)= min Bandwidth(li)
type Path struct {
	From, To NodeID
	Links    []int
	LinkProps
}

// RTT returns the round-trip time implied by the one-way latency. The
// RTT-aware fair-sharing model of §3 keys on this.
func (p *Path) RTT() time.Duration { return 2 * p.Latency }

// ComposeProps folds link properties along a path per the §3 formulas.
func ComposeProps(links []Link) LinkProps {
	var f propsFold
	for i := range links {
		f.add(&links[i].LinkProps)
	}
	return f.props()
}

// propsFold is the §3 composition as a forward fold, so a path walked
// off the link table composes in the same float order as ComposeProps.
type propsFold struct {
	out            LinkProps
	keep, jitterSq float64
	n              int
}

func (f *propsFold) add(l *LinkProps) {
	if f.n == 0 {
		f.out.Bandwidth, f.keep = l.Bandwidth, 1
	}
	f.n++
	f.out.Latency += l.Latency
	f.jitterSq += float64(l.Jitter) * float64(l.Jitter)
	f.keep *= 1 - float64(l.Loss)
	if l.Bandwidth < f.out.Bandwidth {
		f.out.Bandwidth = l.Bandwidth
	}
}

func (f *propsFold) props() LinkProps {
	if f.n == 0 {
		return LinkProps{}
	}
	f.out.Jitter = time.Duration(math.Sqrt(f.jitterSq))
	f.out.Loss = units.Loss(1 - f.keep)
	return f.out
}

// Tree is the shortest-path tree of one source: per node, the distance,
// hop count and arriving link of its shortest path (weight = link latency,
// ties broken by hop count, then by the arriving link's id). That triple is
// a function of the graph alone — every candidate for a node is relaxed
// from a node with a strictly smaller (dist, hops) key — so a Tree can be
// compared, reused, carried to a later graph it still Holds for, or
// repaired into a later graph's tree. It keeps no reference to the graph;
// Path, Holds and Repair take the one to read.
type Tree struct {
	src NodeID
	st  []treeNode
}

type treeNode struct {
	dist time.Duration // unreached until relaxed
	hops int32
	via  int32 // arriving link id; -1 at the source and at unreached nodes
}

const unreached = time.Duration(math.MaxInt64)

// Scratch is the settle loop's reusable working memory; the zero value is
// ready.
type Scratch struct{ heap []nodeDist }

// Tree runs Dijkstra from src, skipping tombstoned links. sc may be nil.
func (g *Graph) Tree(src NodeID, sc *Scratch) Tree {
	if sc == nil {
		sc = new(Scratch)
	}
	st := make([]treeNode, len(g.nodes))
	for i := range st {
		st[i] = treeNode{dist: unreached, via: -1}
	}
	st[src].dist = 0
	if cap(sc.heap) < len(st) {
		sc.heap = make([]nodeDist, 0, len(st))
	}
	sc.heap = g.settle(st, append(sc.heap[:0], nodeDist{hopsID: uint64(src)}))
	return Tree{src: src, st: st}
}

// Repair derives g's tree from t, the tree of an earlier version of g with
// the same nodes, where changed lists every link whose properties differ
// between the two versions (links new in g included). sc must not be nil.
//
// A changed tree edge that is dead now, or whose new latency makes its
// head's key worse, is a root: the root and everything below it in the
// tree (found top down, a node's children being the heads of its
// out-links that are their tree edges) is reset to unreached. Every other
// entry is kept: its old tree path still exists and is no longer than
// before, so its key is an upper bound. If anything was reset, each
// unreached node is offered its live in-links; and every changed link is
// offered to its head, which covers improvements, ties that take over the
// link-id tie-break, restored links and new ones. The settle loop does the
// rest. When it ends, every key is that of a real path and no live link
// improves on its head's key, so the keys are the shortest ones; and every
// tight link into a node was offered to it at its final key, so each
// arriving link is the smallest tight one. The result equals g.Tree(t's
// source) field for field.
func (t Tree) Repair(g *Graph, changed []int, sc *Scratch) Tree {
	st := append([]treeNode(nil), t.st...)
	// q lists the reset nodes while the subtrees are found; each node is
	// listed once, so the heap's capacity of one entry per node holds it.
	q := sc.heap[:0]
	reset := func(v NodeID) {
		st[v] = treeNode{dist: unreached, via: -1}
		q = append(q, nodeDist{hopsID: uint64(v)})
	}
	for _, li := range changed {
		l := &g.links[li]
		from, to := &st[l.From], &st[l.To]
		// A tail reset by an earlier root is unreached now: so is its child.
		if to.via == int32(li) && (l.Bandwidth < 0 || from.dist == unreached || from.dist+l.Latency > to.dist) {
			reset(l.To)
		}
	}
	for i := 0; i < len(q); i++ {
		for _, li := range g.adj[q[i].hopsID].out {
			if to := g.links[li].To; st[to].via == int32(li) {
				reset(to)
			}
		}
	}
	pq := q[:0]
	if len(q) > 0 {
		for v := range st {
			if st[v].dist == unreached {
				for _, li := range g.adj[v].in {
					pq = g.relax(st, pq, li)
				}
			}
		}
	}
	for _, li := range changed {
		pq = g.relax(st, pq, li)
	}
	sc.heap = g.settle(st, pq)
	return Tree{src: t.src, st: st}
}

// settle is the one Dijkstra loop, shared by Tree and Repair: it pops the
// least queued (dist, hops) key and offers the node's out-links to their
// heads until the queue is empty. It returns the emptied queue for reuse.
func (g *Graph) settle(st []treeNode, pq []nodeDist) []nodeDist {
	for len(pq) > 0 {
		cur, hops, id := pq[0], int32(pq[0].hopsID>>32), uint32(pq[0].hopsID)
		pq = popMin(pq)
		if s := &st[id]; cur.dist != s.dist || hops != s.hops {
			continue // superseded by a better key queued later
		}
		for _, li := range g.adj[id].out {
			pq = g.relax(st, pq, li)
		}
	}
	return pq
}

// relax offers link li, if live and leaving a reached node, to its head: a
// strictly better (dist, hops) key takes the head and queues it, an equal
// key through a smaller link id takes over the arriving link only (the
// key is queued or settled already).
func (g *Graph) relax(st []treeNode, pq []nodeDist, li int) []nodeDist {
	l := &g.links[li]
	from, to := &st[l.From], &st[l.To]
	if l.Bandwidth < 0 || from.dist == unreached { // a tombstone, or nothing to offer
		return pq
	}
	nd, nh := from.dist+l.Latency, from.hops+1
	switch {
	case nd < to.dist || nd == to.dist && nh < to.hops:
		to.dist, to.hops, to.via = nd, nh, int32(li)
		// A leaf whose one link leads straight back has nothing to
		// relax: settled here, never queued. Services usually are such
		// leaves, and they are most of a topology.
		if back := g.adj[l.To].out; len(back) == 1 && g.links[back[0]].To == l.From {
			return pq
		}
		return push(pq, nodeDist{dist: nd, hopsID: uint64(nh)<<32 | uint64(l.To)})
	case nd == to.dist && nh == to.hops && int32(li) < to.via:
		to.via = int32(li)
	}
	return pq
}

// Path materialises the tree's path to dst on g — the graph the tree was
// built on, or a later one it Holds for — as the ordered link ids plus
// their composed properties. Nil when dst is the source, unreached or not
// a node.
func (t Tree) Path(g *Graph, dst NodeID) *Path {
	if dst < 0 || int(dst) >= len(t.st) || t.st[dst].via < 0 {
		return nil
	}
	links := make([]int, t.st[dst].hops)
	for at, i := dst, len(links)-1; i >= 0; i-- {
		links[i] = int(t.st[at].via)
		at = g.links[links[i]].From
	}
	var f propsFold
	for _, li := range links {
		f.add(&g.links[li].LinkProps)
	}
	return &Path{From: t.src, To: dst, Links: links, LinkProps: f.props()}
}

// Holds reports whether t, built on an earlier version of g with the same
// nodes, is still g's tree from its source, where changed lists every link
// whose properties differ between the two versions (links new in g
// included). It holds when no changed link is a tree edge and none, as it
// now stands, reaches its head with a key that beats or ties the tree's:
// then the tree's paths exist unchanged, every unchanged link still fails
// to improve on them, and so do the changed ones. A tie is refused because
// it could move the link-id tie-break. Paths materialised from t compose
// the same properties on either graph, since no tree edge changed.
func (t Tree) Holds(g *Graph, changed []int) bool {
	if len(t.st) != len(g.nodes) {
		return false
	}
	for _, li := range changed {
		l := &g.links[li]
		from, to := &t.st[l.From], &t.st[l.To]
		if to.via == int32(li) {
			return false
		}
		if l.Bandwidth < 0 || from.dist == unreached {
			continue
		}
		nd, nh := from.dist+l.Latency, from.hops+1
		if nd < to.dist || nd == to.dist && nh <= to.hops {
			return false
		}
	}
	return true
}

// ShortestPaths returns the Path from src to every reachable node: the
// whole of src's Tree, materialised.
func (g *Graph) ShortestPaths(src NodeID) map[NodeID]*Path {
	t := g.Tree(src, nil)
	out := make(map[NodeID]*Path)
	for id := range g.nodes {
		if p := t.Path(g, NodeID(id)); p != nil {
			out[NodeID(id)] = p
		}
	}
	return out
}

// nodeDist is a priority-queue entry, ordered by (dist, hops, id); hops
// and the node id share one word so the order is two compares.
type nodeDist struct {
	dist   time.Duration
	hopsID uint64 // hops<<32 | id
}

func (a nodeDist) less(b nodeDist) bool {
	return a.dist < b.dist || a.dist == b.dist && a.hopsID < b.hopsID
}

// push and popMin maintain a 4-ary min-heap in a plain slice, moving a
// hole instead of swapping.
func push(h []nodeDist, x nodeDist) []nodeDist {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h
}

func popMin(h []nodeDist) []nodeDist {
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].less(h[best]) {
				best = c
			}
		}
		if !h[best].less(x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
	return h
}

// ScaleFreeOptions configures the Barabási–Albert generator used by the
// Table 4 experiment.
type ScaleFreeOptions struct {
	Elements     int // total nodes + switches (paper: 1000/2000/4000)
	EdgesPerNode int // m parameter; 1 yields a tree, 2 the usual BA graph
	ServiceRatio float64
	LinkProps    LinkProps
	Rand         *rand.Rand
}

// ScaleFree generates a preferential-attachment topology (Barabási–Albert
// [26]). Switches form the scale-free core; services attach to switches.
// The split follows the paper's Table 4 ratio (~2/3 end nodes, ~1/3
// switches).
func ScaleFree(opt ScaleFreeOptions) *Graph {
	if opt.Elements < 4 {
		panic("graph: ScaleFree needs at least 4 elements")
	}
	if opt.EdgesPerNode <= 0 {
		opt.EdgesPerNode = 1
	}
	if opt.ServiceRatio <= 0 || opt.ServiceRatio >= 1 {
		opt.ServiceRatio = 2.0 / 3.0
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	nServices := int(float64(opt.Elements) * opt.ServiceRatio)
	nSwitches := opt.Elements - nServices
	if nSwitches < 2 {
		nSwitches = 2
		nServices = opt.Elements - 2
	}

	g := New()
	switches := make([]NodeID, nSwitches)
	for i := range switches {
		switches[i] = g.MustAddNode(fmt.Sprintf("s%d", i), Bridge)
	}
	// Preferential attachment among switches: repeated-endpoint urn.
	var urn []int
	g.AddBiLink(switches[0], switches[1], opt.LinkProps)
	urn = append(urn, 0, 1)
	for i := 2; i < nSwitches; i++ {
		attached := make(map[int]bool)
		m := opt.EdgesPerNode
		if m > i {
			m = i
		}
		for len(attached) < m {
			t := urn[rng.Intn(len(urn))]
			if t == i || attached[t] {
				continue
			}
			attached[t] = true
			g.AddBiLink(switches[i], switches[t], opt.LinkProps)
			urn = append(urn, t)
		}
		for range attached {
			urn = append(urn, i)
		}
	}
	// Services attach preferentially too: hubs serve more machines.
	for i := 0; i < nServices; i++ {
		t := urn[rng.Intn(len(urn))]
		n := g.MustAddNode(fmt.Sprintf("n%d", i), Service)
		g.AddBiLink(n, switches[t], opt.LinkProps)
	}
	return g
}

// Dumbbell builds the classic dumbbell used by the Figure 3 experiment:
// nClients on one side, nServers on the other, two bridges joined by a
// shared link.
func Dumbbell(nClients, nServers int, edge, shared LinkProps) (*Graph, []NodeID, []NodeID) {
	g := New()
	b1 := g.MustAddNode("b1", Bridge)
	b2 := g.MustAddNode("b2", Bridge)
	g.AddBiLink(b1, b2, shared)
	clients := make([]NodeID, nClients)
	servers := make([]NodeID, nServers)
	for i := range clients {
		clients[i] = g.MustAddNode(fmt.Sprintf("c%d", i), Service)
		g.AddBiLink(clients[i], b1, edge)
	}
	for i := range servers {
		servers[i] = g.MustAddNode(fmt.Sprintf("sv%d", i), Service)
		g.AddBiLink(servers[i], b2, edge)
	}
	return g, clients, servers
}
