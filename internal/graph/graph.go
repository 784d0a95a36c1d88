// Package graph implements the topology graph machinery Kollaps builds on:
// a weighted directed graph of services and bridges, Dijkstra all-pairs
// shortest paths, the end-to-end path property composition of §3, and the
// topology generators used by the evaluation (Barabási–Albert scale-free
// networks, dumbbells).
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// experiment. It is not safe for concurrent use: Clone marks what it
// shares, and Tree builds the transit index on first use.
type Graph struct {
	nodes []Node
	// chunks is the link table: link id i is slot i%chunkLinks of chunk
	// i/chunkLinks. A chunk is shared with every Clone that has not
	// written it.
	chunks []*linkChunk
	nlinks int
	adj    []adjacency // node id -> its link ids
	byName map[string]NodeID
	// shared marks nodes, adj and byName as shared with a Clone (or its
	// origin): the first AddNode/AddLink on either side copies them.
	shared bool
	// ix is the transit index of the graph's structure, built on first use
	// and shared with every Clone; AddNode and AddLink drop it.
	ix *transit
}

// chunkLinks is the number of links one chunk of the link table holds: a
// write after Clone copies 64 links, not the table.
const chunkLinks = 64

// linkChunk is one fixed block of the link table. owner is the one graph
// allowed to write it in place; Clone clears it, so a chunk two graphs
// share has none and is copied by whichever side writes it first.
type linkChunk struct {
	links [chunkLinks]Link
	owner *Graph
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
	flat := make([]int, 0, 2*g.nlinks)
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
	g.ix = nil
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
	g.ix = nil
	id := g.nlinks
	if id%chunkLinks == 0 {
		g.chunks = append(g.chunks, &linkChunk{owner: g})
	}
	g.nlinks++
	*g.writable(id) = Link{ID: id, From: from, To: to, LinkProps: p}
	g.adj[from].out = append(g.adj[from].out, id)
	g.adj[to].in = append(g.adj[to].in, id)
	return id
}

// link is the link table's entry for id, to read.
func (g *Graph) link(id int) *Link {
	return &g.chunks[uint(id)/chunkLinks].links[uint(id)%chunkLinks]
}

// writable is the link table's entry for id, to write: a chunk g does not
// own is copied first, so no other graph sees the write.
func (g *Graph) writable(id int) *Link {
	c := g.chunks[uint(id)/chunkLinks]
	if c.owner != g {
		own := *c
		own.owner = g
		c = &own
		g.chunks[uint(id)/chunkLinks] = c
	}
	return &c.links[uint(id)%chunkLinks]
}

// AddBiLink adds two opposite links with identical properties and returns
// both ids (forward, reverse).
func (g *Graph) AddBiLink(a, b NodeID, p LinkProps) (int, int) {
	return g.AddLink(a, b, p), g.AddLink(b, a, p)
}

// RemoveLink marks a link as removed. Removed links are skipped by path
// computations. (The dynamic topology engine removes and re-adds links.)
func (g *Graph) RemoveLink(id int) {
	if id >= 0 && id < g.nlinks {
		g.writable(id).Bandwidth = -1 // tombstone
	}
}

// LinkRemoved reports whether the link is tombstoned.
func (g *Graph) LinkRemoved(id int) bool {
	return id >= 0 && id < g.nlinks && g.link(id).Bandwidth < 0
}

// SetLinkProps replaces the properties of a live link.
func (g *Graph) SetLinkProps(id int, p LinkProps) {
	if id >= 0 && id < g.nlinks {
		g.writable(id).LinkProps = p
	}
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given id; it panics on an id outside
// [0, NumLinks()).
func (g *Graph) Link(id int) Link {
	if uint(id) >= uint(g.nlinks) {
		panic(errLinkRange)
	}
	return *g.link(id)
}

var errLinkRange = errors.New("graph: link id out of range")

// OutLinks returns the ids of the links leaving id, in ascending order.
// The slice is the graph's own: callers only read it.
func (g *Graph) OutLinks(id NodeID) []int { return g.adj[id].out }

// Lookup finds a node by name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links including tombstones.
func (g *Graph) NumLinks() int { return g.nlinks }

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
// per event group (§3). Nothing is copied eagerly but the list of link
// chunks: a chunk is copied by the first side to write one of its links,
// and nodes, the adjacency (out- and in-links), the name index and the
// transit index (built here first, so a lineage of clones holds one) are
// shared until either side adds a node or a link.
func (g *Graph) Clone() *Graph {
	g.transit()
	g.shared = true
	for _, c := range g.chunks {
		if c.owner == g {
			c.owner = nil
		}
	}
	c := *g
	c.chunks = append([]*linkChunk(nil), g.chunks...)
	return &c
}

// ChangedLinks appends to dst, in ascending order, the ids of g's links
// that differ from old's, links old does not have included. A chunk the
// two graphs share is equal without being read, so comparing a patched
// Clone with its origin reads only the chunks the patch copied.
func (g *Graph) ChangedLinks(old *Graph, dst []int) []int {
	for ci, c := range g.chunks {
		lo := ci * chunkLinks
		hi := min(lo+chunkLinks, g.nlinks)
		if ci < len(old.chunks) && old.chunks[ci] == c {
			lo = max(lo, old.nlinks)
		}
		for i := lo; i < hi; i++ {
			if i >= old.nlinks || c.links[i-ci*chunkLinks] != *old.link(i) {
				dst = append(dst, i)
			}
		}
	}
	return dst
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

// propsFold folds link properties along a path per the §3 formulas, in
// path order. Loss accumulates as loss + l - loss·l, the same
// 1-Π(1-lᵢ) as a product of keep probabilities but exact for a path with
// one lossy link: a declared loss of 0.01 is enforced as 0.01.
type propsFold struct {
	out      LinkProps
	jitterSq float64
	n        int
}

func (f *propsFold) add(l *LinkProps) {
	if f.n == 0 {
		f.out.Bandwidth = l.Bandwidth
	}
	f.n++
	f.out.Latency += l.Latency
	f.jitterSq += float64(l.Jitter) * float64(l.Jitter)
	f.out.Loss += l.Loss - f.out.Loss*l.Loss
	if l.Bandwidth < f.out.Bandwidth {
		f.out.Bandwidth = l.Bandwidth
	}
}

func (f *propsFold) props() LinkProps {
	if f.n == 0 {
		return LinkProps{}
	}
	f.out.Jitter = time.Duration(math.Sqrt(f.jitterSq))
	return f.out
}

// Tree is the shortest-path tree of one source: per node, the distance,
// hop count and arriving link of its shortest path (weight = link latency,
// ties broken by hop count, then by the arriving link's id). That triple is
// a function of the graph alone — every candidate for a node is relaxed
// from a node with a strictly smaller (dist, hops) key — so a Tree can be
// compared, reused, carried to a later graph it still Holds for, or
// repaired into a later graph's tree. It keeps no reference to the graph;
// Path, Holds, Keeps and Repair take the one to read.
//
// A Tree keeps entries for the transit nodes only, one slot each (see
// transit); a leaf's entry is derived from its in-links when read, and the
// source's is zero. The transit entries are a flat table, shared with the
// trees repaired from it and never written, plus a patch: the slots where
// this tree differs from the table, sorted. A tree Graph.Tree builds has no
// patch; Repair keeps its parent's table and writes a new patch, unless
// that would pass maxPatch entries.
type Tree struct {
	src   NodeID
	ix    *transit
	base  []treeNode
	patch []patchEntry
}

type treeNode struct {
	dist time.Duration // unreached until relaxed
	hops int32
	via  int32 // arriving link id; -1 at the source and at unreached nodes
}

// patchEntry is a Tree's entry for slot where it differs from the table.
type patchEntry struct {
	treeNode
	slot int32
}

const unreached = time.Duration(math.MaxInt64)

// maxPatch is the most entries a repaired tree's patch may hold on n
// slots; a larger one is folded into a fresh table. At n/8 a patch (24
// bytes an entry) stays under a quarter of the table (16 bytes a slot),
// and a lookup's binary search under log2(n/8) steps.
func maxPatch(n int) int { return n / 8 }

// transit is the transit index of a graph's structure: every node's slot
// in a Tree's table, -1 at a leaf, and every slot's node. A leaf is a node
// v with exactly one out-link v→u, where u ≠ v has two or more out-links,
// and whose in-links all come from u: a service on its access link,
// usually, and most of a topology. A shortest path from elsewhere never
// crosses a leaf (its one way on leads back to u), so the leaf's entry is
// its best live in-link from u by (dist, hops, link id), read off u's
// entry. u has two or more out-links, so it is never a leaf itself and a
// derivation never recurses; two nodes linked only to each other are both
// transit. The index depends on the adjacency alone, never on link
// properties: tombstoning a link does not move it.
type transit struct {
	slot  []int32 // node -> slot; -1 at a leaf
	nodes []int32 // slot -> node
}

// transit returns g's transit index, building it on first use.
func (g *Graph) transit() *transit {
	if g.ix != nil {
		return g.ix
	}
	ix := &transit{slot: make([]int32, len(g.nodes))}
	for v := range g.nodes {
		if g.leaf(NodeID(v)) {
			ix.slot[v] = -1
			continue
		}
		ix.slot[v] = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, int32(v))
	}
	g.ix = ix
	return ix
}

// leaf reports whether v is a leaf of g's structure (see transit).
func (g *Graph) leaf(v NodeID) bool {
	out := g.adj[v].out
	if len(out) != 1 {
		return false
	}
	u := g.link(out[0]).To
	if u == v || len(g.adj[u].out) < 2 {
		return false
	}
	for _, li := range g.adj[v].in {
		if g.link(li).From != u {
			return false
		}
	}
	return true
}

// entry returns slot s's entry.
func (t *Tree) entry(s int32) treeNode {
	p := t.patch
	lo, hi := 0, len(p)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p[m].slot < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(p) && p[lo].slot == s {
		return p[lo].treeNode
	}
	return t.base[s]
}

// at returns node v's entry on g, the graph t is the tree of: a transit
// node's from the tree, the source's zero, and a leaf's derived from its
// live in-links, which all come from one transit node u and so share u's
// key and hop count. In ascending id order, the first of the shortest wins.
func (t *Tree) at(g *Graph, v NodeID) treeNode {
	if s := t.ix.slot[v]; s >= 0 {
		return t.entry(s)
	}
	if v == t.src {
		return treeNode{via: -1}
	}
	e := treeNode{dist: unreached, via: -1}
	for _, li := range g.adj[v].in {
		l := g.link(li)
		if l.Bandwidth < 0 {
			continue
		}
		u := t.entry(t.ix.slot[l.From])
		if u.dist == unreached {
			break
		}
		if nd := u.dist + l.Latency; nd < e.dist {
			e = treeNode{dist: nd, hops: u.hops + 1, via: int32(li)}
		}
	}
	return e
}

// Scratch is the reusable working memory of Tree and Repair; the zero
// value is ready. Tree sizes a Scratch it is given for its graph, so a
// later Repair of that size allocates nothing but its result.
type Scratch struct {
	heap []nodeDist
	st   []treeNode // the tree Repair works on, materialised
	log  []int32    // the slots Repair wrote, repeats included
}

// grow sizes sc for trees of n slots.
func (sc *Scratch) grow(n int) {
	if cap(sc.heap) < n {
		sc.heap = make([]nodeDist, 0, n)
	}
	if cap(sc.st) < n {
		sc.st = make([]treeNode, n)
	}
	if cap(sc.log) < n {
		sc.log = make([]int32, 0, n)
	}
}

// Tree runs Dijkstra from src, skipping tombstoned links. sc may be nil.
// A leaf source is never queued: its out-link is offered to its
// neighbour from the zero key.
func (g *Graph) Tree(src NodeID, sc *Scratch) Tree {
	ix := g.transit()
	st := make([]treeNode, len(ix.nodes))
	for i := range st {
		st[i] = treeNode{dist: unreached, via: -1}
	}
	if sc == nil {
		sc = &Scratch{heap: make([]nodeDist, 0, len(st))}
	} else {
		sc.grow(len(st))
	}
	pq := sc.heap[:0]
	if s := ix.slot[src]; s >= 0 {
		st[s].dist = 0
		pq = append(pq, nodeDist{hopsID: uint64(s)})
	} else {
		for _, li := range g.adj[src].out {
			pq = g.relax(ix, src, st, pq, li, nil)
		}
	}
	sc.heap = g.settle(ix, src, st, pq, nil)
	return Tree{src: src, ix: ix, base: st}
}

// Repair derives g's tree from t, the tree of an earlier version of g with
// the same structure, where changed lists every link whose properties
// differ between the two versions. sc must not be nil. A g whose transit
// index is not t's (a node or a link was added since) gets a fresh Tree.
//
// A changed tree edge that is dead now, or whose new latency makes its
// head's key worse, is a root: the root and everything below it in the
// tree (found top down, a node's children being the heads of its
// out-links that are their tree edges) is reset to unreached. Every other
// entry is kept: its old tree path still exists and is no longer than
// before, so its key is an upper bound. Each reset node is offered its
// live in-links, and every changed link is offered to its head, which
// covers improvements, ties that take over the link-id tie-break and
// restored links. A node t left unreached needs no offer of its own: a
// path to it now crosses a changed link, or a node the settle loop
// reaches and relaxes. The settle loop does the rest. When it ends, every
// key is that of a real path and no live link improves on its head's key,
// so the keys are the shortest ones; and every tight link into a node was
// offered to it at its final key, so each arriving link is the smallest
// tight one. Only transit slots are ever written: a leaf's entry is
// derived from g when read. The result equals g.Tree(t's source) node for
// node.
//
// The work happens on t materialised in sc, logging every slot written
// (repeats included); the result shares t's table and patches the logged
// slots and t's own patched ones, so t stays as it was, or folds, decided
// before any sort, when the patch would pass maxPatch entries.
func (t Tree) Repair(g *Graph, changed []int, sc *Scratch) Tree {
	ix := g.transit()
	if t.ix != ix {
		return g.Tree(t.src, sc)
	}
	n := len(t.base)
	sc.grow(n)
	st := sc.st[:n]
	copy(st, t.base)
	for _, p := range t.patch {
		st[p.slot] = p.treeNode
	}
	log := sc.log[:0]
	// q lists the reset slots while the subtrees are found; each slot is
	// listed once, so the heap's capacity of one entry per slot holds it.
	q := sc.heap[:0]
	reset := func(s int32) {
		st[s] = treeNode{dist: unreached, via: -1}
		q = append(q, nodeDist{hopsID: uint64(s)})
		log = append(log, s)
	}
	for _, li := range changed {
		l := g.link(li)
		s := ix.slot[l.To]
		if s < 0 || st[s].via != int32(li) {
			continue
		}
		// A tree edge leaves a transit node or the source.
		from, to := treeNode{}, &st[s]
		if fs := ix.slot[l.From]; fs >= 0 {
			from = st[fs]
		}
		// A tail reset by an earlier root is unreached now: so is its child.
		if l.Bandwidth < 0 || from.dist == unreached || from.dist+l.Latency > to.dist {
			reset(s)
		}
	}
	for i := 0; i < len(q); i++ {
		for _, li := range g.adj[ix.nodes[q[i].hopsID]].out {
			if s := ix.slot[g.link(li).To]; s >= 0 && st[s].via == int32(li) {
				reset(s)
			}
		}
	}
	// The reset slots head the log; the queue reuses q's storage.
	pq := q[:0]
	for _, s := range log[:len(q)] {
		for _, li := range g.adj[ix.nodes[s]].in {
			pq = g.relax(ix, t.src, st, pq, li, &log)
		}
	}
	for _, li := range changed {
		pq = g.relax(ix, t.src, st, pq, li, &log)
	}
	sc.heap = g.settle(ix, t.src, st, pq, &log)
	sc.log = log
	return t.repatch(st, log)
}

// repatch returns the tree st, t repaired, as t's table plus a patch: of
// the slots t patched or the repair wrote (log, which may repeat them),
// the ones where st and the table differ. The fold is decided before any
// sort. One pass drops log's repeats in place, marking kept slots by
// complementing their hop counts in st (never negative), and counts those
// that differ; t's patched slots outside log differ by construction, and
// join log. Past maxPatch the tree folds into a fresh table; only a kept
// patch sorts its slots.
func (t Tree) repatch(st []treeNode, log []int32) Tree {
	k, n := 0, 0
	for _, s := range log {
		if e := &st[s]; e.hops >= 0 {
			if *e != t.base[s] {
				n++
			}
			e.hops = ^e.hops
			log[k], k = s, k+1
		}
	}
	log = log[:k]
	for _, p := range t.patch {
		if st[p.slot].hops >= 0 {
			n++
			log = append(log, p.slot) // within cap: log holds distinct slots
		}
	}
	for _, s := range log[:k] {
		st[s].hops = ^st[s].hops
	}
	switch {
	case n > maxPatch(len(st)):
		return Tree{src: t.src, ix: t.ix, base: append([]treeNode(nil), st...)}
	case n == 0:
		return Tree{src: t.src, ix: t.ix, base: t.base}
	}
	slices.Sort(log)
	patch := make([]patchEntry, 0, n)
	for _, s := range log {
		if st[s] != t.base[s] {
			patch = append(patch, patchEntry{st[s], s})
		}
	}
	return Tree{src: t.src, ix: t.ix, base: t.base, patch: patch}
}

// settle is the one Dijkstra loop, shared by Tree and Repair: it pops the
// least queued (dist, hops) key and offers the slot's node's out-links to
// their heads until the queue is empty. It returns the emptied queue for
// reuse.
func (g *Graph) settle(ix *transit, src NodeID, st []treeNode, pq []nodeDist, log *[]int32) []nodeDist {
	for len(pq) > 0 {
		cur, hops, s := pq[0], int32(pq[0].hopsID>>32), uint32(pq[0].hopsID)
		pq = popMin(pq)
		if e := &st[s]; cur.dist != e.dist || hops != e.hops {
			continue // superseded by a better key queued later
		}
		for _, li := range g.adj[ix.nodes[s]].out {
			pq = g.relax(ix, src, st, pq, li, log)
		}
	}
	return pq
}

// relax offers link li, if live, leaving a reached node and arriving at a
// transit one, to its head: a strictly better (dist, hops) key takes the
// head and queues it, an equal key through a smaller link id takes over
// the arriving link only (the key is queued or settled already). A leaf
// is never written (its entry is derived when read), and a link leaving a
// leaf other than the source improves nothing. A slot it writes is
// appended to log, when there is one.
func (g *Graph) relax(ix *transit, src NodeID, st []treeNode, pq []nodeDist, li int, log *[]int32) []nodeDist {
	l := g.link(li)
	s := ix.slot[l.To]
	if s < 0 || l.Bandwidth < 0 { // a leaf, or a tombstone
		return pq
	}
	var from treeNode // the source's key, when it is a leaf
	if fs := ix.slot[l.From]; fs >= 0 {
		from = st[fs]
	} else if l.From != src {
		return pq
	}
	if from.dist == unreached {
		return pq
	}
	to := &st[s]
	nd, nh := from.dist+l.Latency, from.hops+1
	switch {
	case nd < to.dist || nd == to.dist && nh < to.hops:
		to.dist, to.hops, to.via = nd, nh, int32(li)
		if log != nil {
			*log = append(*log, s)
		}
		return push(pq, nodeDist{dist: nd, hopsID: uint64(nh)<<32 | uint64(s)})
	case nd == to.dist && nh == to.hops && int32(li) < to.via:
		to.via = int32(li)
		if log != nil {
			*log = append(*log, s)
		}
	}
	return pq
}

// Path materialises the tree's path to dst on g — the graph the tree was
// built on, or a later one it Holds for — as the ordered link ids plus
// their composed properties. Nil when dst is the source, unreached or not
// a node.
func (t Tree) Path(g *Graph, dst NodeID) *Path {
	if dst < 0 || int(dst) >= len(t.ix.slot) {
		return nil
	}
	e := t.at(g, dst)
	if e.via < 0 {
		return nil
	}
	links := make([]int, e.hops)
	for i := len(links) - 1; ; i-- {
		links[i] = int(e.via)
		if i == 0 {
			break
		}
		e = t.at(g, g.link(links[i]).From)
	}
	var f propsFold
	for _, li := range links {
		f.add(&g.link(li).LinkProps)
	}
	return &Path{From: t.src, To: dst, Links: links, LinkProps: f.props()}
}

// Keeps reports whether p, a path from t's source materialised on an
// earlier version of g, is still t's path on g, where t is g's tree and
// changed lists every link whose properties differ between the two
// versions: t reaches p.To over exactly p.Links, and none of them changed.
// Then p composes the same properties on g, and can stand for the path
// Path would materialise.
func (t Tree) Keeps(g *Graph, changed []int, p *Path) bool {
	e := t.at(g, p.To)
	if int(e.hops) != len(p.Links) {
		return false
	}
	for i := len(p.Links) - 1; i >= 0; i-- {
		li := p.Links[i]
		if e.via != int32(li) || slices.Contains(changed, li) {
			return false
		}
		if i > 0 {
			e = t.at(g, g.link(li).From)
		}
	}
	return true
}

// Holds reports whether t, built on an earlier version of g with the same
// structure, is still g's tree from its source, where changed lists every
// link whose properties differ between the two versions. It holds when no
// changed link is a tree edge and none, as it now stands, reaches its head
// with a key that beats or ties the tree's: then the tree's paths exist
// unchanged, every unchanged link still fails to improve on them, and so
// do the changed ones. A tie is refused because it could move the link-id
// tie-break. A leaf's entry is read off g, so a changed in-link of a leaf
// other than the source refuses whenever the tree reaches the leaf's
// neighbour: a path materialised from t may have crossed it as it was.
// Paths materialised from t compose the same properties on either graph,
// since no tree edge changed. A g whose transit index is not t's (a node
// or a link was added since) refuses.
func (t Tree) Holds(g *Graph, changed []int) bool {
	if t.ix != g.transit() {
		return false
	}
	for _, li := range changed {
		l := g.link(li)
		from := t.at(g, l.From)
		s := t.ix.slot[l.To]
		if s < 0 {
			if l.To != t.src && from.dist != unreached {
				return false
			}
			continue
		}
		to := t.entry(s)
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
