package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func props(lat time.Duration, bw units.Bandwidth) LinkProps {
	return LinkProps{Latency: lat, Bandwidth: bw}
}

// paperTopology builds Figure 1 (left): c1, sv1, sv2, s1, s2.
func paperTopology(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	c1 := g.MustAddNode("c1", Service)
	sv1 := g.MustAddNode("sv1", Service)
	sv2 := g.MustAddNode("sv2", Service)
	s1 := g.MustAddNode("s1", Bridge)
	s2 := g.MustAddNode("s2", Bridge)
	g.AddBiLink(c1, s1, props(10*time.Millisecond, 10*units.Mbps))
	g.AddBiLink(s1, s2, props(20*time.Millisecond, 100*units.Mbps))
	g.AddBiLink(s2, sv1, props(5*time.Millisecond, 50*units.Mbps))
	g.AddBiLink(s2, sv2, props(5*time.Millisecond, 50*units.Mbps))
	return g, c1, sv1, sv2
}

func TestFigure1Collapse(t *testing.T) {
	// The collapsed topology of Figure 1 (right): c1->sv{1,2} is
	// 10Mb/s / 35ms; sv1->sv2 is 50Mb/s / 10ms.
	g, c1, sv1, sv2 := paperTopology(t)
	paths := g.ShortestPaths(c1)
	for _, dst := range []NodeID{sv1, sv2} {
		p := paths[dst]
		if p == nil {
			t.Fatalf("no path c1->%d", dst)
		}
		if p.Latency != 35*time.Millisecond {
			t.Errorf("latency c1->%v = %v, want 35ms", dst, p.Latency)
		}
		if p.Bandwidth != 10*units.Mbps {
			t.Errorf("bandwidth c1->%v = %v, want 10Mbps", dst, p.Bandwidth)
		}
		if len(p.Links) != 3 {
			t.Errorf("hops c1->%v = %d, want 3", dst, len(p.Links))
		}
	}
	p := g.ShortestPaths(sv1)[sv2]
	if p.Latency != 10*time.Millisecond || p.Bandwidth != 50*units.Mbps {
		t.Errorf("sv1->sv2 = %v/%v, want 10ms/50Mbps", p.Latency, p.Bandwidth)
	}
}

func TestPathRTT(t *testing.T) {
	p := &Path{LinkProps: LinkProps{Latency: 35 * time.Millisecond}}
	if p.RTT() != 70*time.Millisecond {
		t.Fatalf("RTT = %v", p.RTT())
	}
}

func TestComposeProps(t *testing.T) {
	links := []Link{
		{LinkProps: LinkProps{Latency: 10 * time.Millisecond, Jitter: 3 * time.Millisecond, Bandwidth: 100 * units.Mbps, Loss: 0.01}},
		{LinkProps: LinkProps{Latency: 20 * time.Millisecond, Jitter: 4 * time.Millisecond, Bandwidth: 10 * units.Mbps, Loss: 0.02}},
	}
	got := composeProps(links)
	if got.Latency != 30*time.Millisecond {
		t.Errorf("latency = %v", got.Latency)
	}
	// sqrt(3^2+4^2) = 5ms
	if got.Jitter != 5*time.Millisecond {
		t.Errorf("jitter = %v, want 5ms", got.Jitter)
	}
	if got.Bandwidth != 10*units.Mbps {
		t.Errorf("bandwidth = %v", got.Bandwidth)
	}
	want := 1 - 0.99*0.98
	if math.Abs(float64(got.Loss)-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", got.Loss, want)
	}
	// One lossy link among lossless ones is enforced exactly as declared.
	links[1].Loss = 0
	if got := composeProps(links); got.Loss != 0.01 {
		t.Errorf("one lossy link: loss = %v, want exactly 0.01", float64(got.Loss))
	}
	if zero := composeProps(nil); zero != (LinkProps{}) {
		t.Errorf("empty compose = %+v", zero)
	}
}

func TestComposePropsProperties(t *testing.T) {
	// Property: for random chains, composed loss >= max individual loss,
	// composed bandwidth == min individual bandwidth, latency == sum.
	f := func(lat []uint16, seed int64) bool {
		if len(lat) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		var links []Link
		var sumLat time.Duration
		minBW := units.Bandwidth(math.MaxInt64)
		maxLoss := units.Loss(0)
		for _, l := range lat {
			lp := LinkProps{
				Latency:   time.Duration(l) * time.Microsecond,
				Bandwidth: units.Bandwidth(1 + rng.Int63n(int64(units.Gbps))),
				Loss:      units.Loss(rng.Float64() * 0.2),
			}
			links = append(links, Link{LinkProps: lp})
			sumLat += lp.Latency
			if lp.Bandwidth < minBW {
				minBW = lp.Bandwidth
			}
			if lp.Loss > maxLoss {
				maxLoss = lp.Loss
			}
		}
		got := composeProps(links)
		return got.Latency == sumLat && got.Bandwidth == minBW &&
			got.Loss >= maxLoss-1e-12 && got.Loss <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateNodeName(t *testing.T) {
	g := New()
	g.MustAddNode("a", Service)
	if _, err := g.AddNode("a", Bridge); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestLookup(t *testing.T) {
	g := New()
	id := g.MustAddNode("x", Service)
	got, ok := g.Lookup("x")
	if !ok || got != id {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if _, ok := g.Lookup("missing"); ok {
		t.Fatal("Lookup of missing name succeeded")
	}
}

func TestRemoveLinkReroutes(t *testing.T) {
	// a - b via a fast direct link and a slow detour through r. Removing
	// the direct link must reroute via the detour; restoring is done via
	// SetLinkProps on a tombstone-free clone in the dynamics engine, so
	// here we just verify tombstone behavior.
	g := New()
	a := g.MustAddNode("a", Service)
	b := g.MustAddNode("b", Service)
	r := g.MustAddNode("r", Bridge)
	direct, _ := g.AddBiLink(a, b, props(5*time.Millisecond, 100*units.Mbps))
	g.AddBiLink(a, r, props(10*time.Millisecond, 10*units.Mbps))
	g.AddBiLink(r, b, props(10*time.Millisecond, 10*units.Mbps))

	if p := g.ShortestPaths(a)[b]; p.Latency != 5*time.Millisecond {
		t.Fatalf("pre-removal latency = %v", p.Latency)
	}
	g.RemoveLink(direct)
	if !g.LinkRemoved(direct) {
		t.Fatal("LinkRemoved = false")
	}
	p := g.ShortestPaths(a)[b]
	if p == nil || p.Latency != 20*time.Millisecond {
		t.Fatalf("post-removal path = %+v, want 20ms detour", p)
	}
}

func TestDisconnected(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", Service)
	g.MustAddNode("b", Service)
	paths := g.ShortestPaths(a)
	if len(paths) != 0 {
		t.Fatalf("expected no paths, got %d", len(paths))
	}
}

func TestClone(t *testing.T) {
	g, c1, sv1, _ := paperTopology(t)
	c := g.Clone()
	// Mutate the clone; original must be unaffected.
	c.SetLinkProps(0, props(time.Hour, units.Kbps))
	if g.Link(0).Latency == time.Hour {
		t.Fatal("Clone shares link storage")
	}
	if c.Link(0).Latency != time.Hour {
		t.Fatal("SetLinkProps on clone had no effect")
	}
	// Clone keeps routing identical before mutation.
	p1 := g.ShortestPaths(c1)[sv1]
	if p1 == nil || p1.Latency != 35*time.Millisecond {
		t.Fatal("original graph corrupted by clone")
	}
}

// TestCloneWritesCopyTheirChunk writes on both sides of a Clone: property
// changes and a tombstone in a shared chunk, and a link added to the
// shared, partly filled last chunk by each side. Each side must read its
// own values, a clone of the clone must keep what it saw, and
// ChangedLinks must list exactly the links a full compare finds.
func TestCloneWritesCopyTheirChunk(t *testing.T) {
	g := New()
	for i := 0; i < 12; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), Service)
	}
	for i := 0; i < chunkLinks+chunkLinks/2; i++ {
		g.AddLink(NodeID(i%12), NodeID((i+1)%12), props(time.Duration(i)*time.Millisecond, units.Gbps))
	}
	orig := make([]Link, g.NumLinks())
	for i := range orig {
		orig[i] = g.Link(i)
	}
	c := g.Clone()
	c.SetLinkProps(3, props(time.Hour, units.Kbps))
	g.SetLinkProps(3, props(time.Minute, units.Mbps))
	g.RemoveLink(chunkLinks + 2)
	cl := c.AddLink(1, 2, props(time.Second, units.Kbps))
	gl := g.AddLink(2, 1, props(2*time.Second, units.Mbps))
	if cl != gl || cl != len(orig) {
		t.Fatalf("the added links got ids %d and %d, want %d on both sides", cl, gl, len(orig))
	}
	cc := c.Clone()
	c.SetLinkProps(cl, props(3*time.Second, units.Kbps))
	c.RemoveLink(5)

	want := func(who string, x *Graph, edits map[int]Link) {
		t.Helper()
		if x.NumLinks() != len(orig)+1 {
			t.Fatalf("%s has %d links, want %d", who, x.NumLinks(), len(orig)+1)
		}
		for i := 0; i < x.NumLinks(); i++ {
			w, ok := edits[i]
			if !ok {
				w = orig[i]
			}
			if got := x.Link(i); got != w {
				t.Fatalf("%s link %d = %+v, want %+v", who, i, got, w)
			}
		}
	}
	with := func(i int, from, to NodeID, p LinkProps) Link { return Link{ID: i, From: from, To: to, LinkProps: p} }
	down := func(l Link) Link { l.Bandwidth = -1; return l }
	want("origin", g, map[int]Link{
		3:              with(3, orig[3].From, orig[3].To, props(time.Minute, units.Mbps)),
		chunkLinks + 2: down(orig[chunkLinks+2]),
		gl:             with(gl, 2, 1, props(2*time.Second, units.Mbps)),
	})
	want("clone", c, map[int]Link{
		3:  with(3, orig[3].From, orig[3].To, props(time.Hour, units.Kbps)),
		5:  down(orig[5]),
		cl: with(cl, 1, 2, props(3*time.Second, units.Kbps)),
	})
	want("clone of the clone", cc, map[int]Link{
		3:  with(3, orig[3].From, orig[3].To, props(time.Hour, units.Kbps)),
		cl: with(cl, 1, 2, props(time.Second, units.Kbps)),
	})
	for _, pair := range []struct {
		name     string
		old, new *Graph
	}{{"clone vs origin", g, c}, {"clone of the clone vs clone", c, cc}, {"clone vs clone of the clone", cc, c}} {
		var full []int
		for i := 0; i < pair.new.NumLinks(); i++ {
			if i >= pair.old.NumLinks() || pair.new.Link(i) != pair.old.Link(i) {
				full = append(full, i)
			}
		}
		if got := pair.new.ChangedLinks(pair.old, nil); !reflect.DeepEqual(got, full) {
			t.Errorf("%s: ChangedLinks = %v, a full compare %v", pair.name, got, full)
		}
	}
}

func TestDeterministicPaths(t *testing.T) {
	// With two equal-latency routes, tie-break must be stable across runs.
	build := func() *Graph {
		g := New()
		a := g.MustAddNode("a", Service)
		b := g.MustAddNode("b", Service)
		r1 := g.MustAddNode("r1", Bridge)
		r2 := g.MustAddNode("r2", Bridge)
		g.AddBiLink(a, r1, props(10*time.Millisecond, 100*units.Mbps))
		g.AddBiLink(r1, b, props(10*time.Millisecond, 100*units.Mbps))
		g.AddBiLink(a, r2, props(10*time.Millisecond, 100*units.Mbps))
		g.AddBiLink(r2, b, props(10*time.Millisecond, 100*units.Mbps))
		return g
	}
	g1, g2 := build(), build()
	a1, _ := g1.Lookup("a")
	b1, _ := g1.Lookup("b")
	p1 := g1.ShortestPaths(a1)[b1]
	p2 := g2.ShortestPaths(a1)[b1]
	if len(p1.Links) != len(p2.Links) {
		t.Fatal("nondeterministic path length")
	}
	for i := range p1.Links {
		if p1.Links[i] != p2.Links[i] {
			t.Fatalf("nondeterministic tie-break: %v vs %v", p1.Links, p2.Links)
		}
	}
	_ = g2
}

func TestScaleFree(t *testing.T) {
	for _, n := range []int{100, 1000} {
		g := ScaleFree(ScaleFreeOptions{
			Elements:     n,
			EdgesPerNode: 2,
			LinkProps:    props(5*time.Millisecond, 100*units.Mbps),
			Rand:         rand.New(rand.NewSource(7)),
		})
		if g.NumNodes() != n {
			t.Fatalf("nodes = %d, want %d", g.NumNodes(), n)
		}
		svc := g.Services()
		wantSvc := int(float64(n) * 2.0 / 3.0)
		if len(svc) != wantSvc {
			t.Fatalf("services = %d, want %d", len(svc), wantSvc)
		}
		// Connectivity: every service reachable from the first service.
		paths := g.ShortestPaths(svc[0])
		reach := 0
		for _, dst := range svc[1:] {
			if paths[dst] != nil {
				reach++
			}
		}
		if reach != len(svc)-1 {
			t.Fatalf("reachable services = %d/%d", reach, len(svc)-1)
		}
	}
}

func TestScaleFreeHubs(t *testing.T) {
	// Scale-free signature: max switch degree far above the mean.
	g := ScaleFree(ScaleFreeOptions{
		Elements:     1500,
		EdgesPerNode: 2,
		LinkProps:    props(time.Millisecond, units.Gbps),
		Rand:         rand.New(rand.NewSource(3)),
	})
	deg := make(map[NodeID]int)
	for i := 0; i < g.NumLinks(); i++ {
		deg[g.Link(i).From]++
	}
	maxDeg, sum, n := 0, 0, 0
	for _, node := range g.Nodes() {
		if node.Kind != Bridge {
			continue
		}
		d := deg[node.ID]
		sum += d
		n++
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(n)
	if float64(maxDeg) < 5*mean {
		t.Fatalf("no hubs: max degree %d vs mean %.1f", maxDeg, mean)
	}
}

func TestScaleFreeDeterministic(t *testing.T) {
	a := ScaleFree(ScaleFreeOptions{Elements: 200, EdgesPerNode: 2, Rand: rand.New(rand.NewSource(9))})
	b := ScaleFree(ScaleFreeOptions{Elements: 200, EdgesPerNode: 2, Rand: rand.New(rand.NewSource(9))})
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("nondeterministic generator")
	}
	for i := 0; i < a.NumLinks(); i++ {
		if a.Link(i).From != b.Link(i).From || a.Link(i).To != b.Link(i).To {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestDumbbell(t *testing.T) {
	edge := props(5*time.Millisecond, 100*units.Mbps)
	shared := props(10*time.Millisecond, 50*units.Mbps)
	g, clients, servers := Dumbbell(4, 4, edge, shared)
	if len(clients) != 4 || len(servers) != 4 {
		t.Fatal("wrong endpoint counts")
	}
	p := g.ShortestPaths(clients[0])[servers[0]]
	if p == nil {
		t.Fatal("no path across dumbbell")
	}
	if p.Bandwidth != 50*units.Mbps {
		t.Fatalf("bottleneck = %v, want shared 50Mbps", p.Bandwidth)
	}
	if p.Latency != 20*time.Millisecond {
		t.Fatalf("latency = %v, want 20ms", p.Latency)
	}
	// All client-server pairs share the b1->b2 link.
	shared01 := g.ShortestPaths(clients[1])[servers[2]]
	found := false
	for _, l := range shared01.Links {
		for _, m := range p.Links {
			if l == m {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("dumbbell paths do not share the bottleneck link")
	}
}

func TestCloneSharesUntilStructuralChange(t *testing.T) {
	g, c1, sv1, _ := paperTopology(t)
	c := g.Clone()
	// A node and a link added to the clone must not leak into the
	// original's name index, node list or adjacency — nor the reverse.
	x := c.MustAddNode("x", Service)
	c.AddBiLink(x, c1, props(time.Millisecond, units.Gbps))
	if _, ok := g.Lookup("x"); ok || g.NumNodes() != 5 || g.NumLinks() != 8 {
		t.Fatalf("clone's growth leaked into the original: %d nodes, %d links", g.NumNodes(), g.NumLinks())
	}
	y := g.MustAddNode("y", Service)
	g.AddBiLink(y, sv1, props(time.Millisecond, units.Gbps))
	if _, ok := c.Lookup("y"); ok || c.NumNodes() != 6 || c.NumLinks() != 10 {
		t.Fatalf("original's growth leaked into the clone: %d nodes, %d links", c.NumNodes(), c.NumLinks())
	}
	if p := c.ShortestPaths(x)[sv1]; p == nil || p.Latency != 36*time.Millisecond {
		t.Fatalf("clone x->sv1 = %+v, want 36ms", p)
	}
	if p := g.ShortestPaths(y)[c1]; p == nil || p.Latency != 36*time.Millisecond {
		t.Fatalf("original y->c1 = %+v, want 36ms", p)
	}
}

// refShortestPaths is the seed's ShortestPaths, kept verbatim (type names
// aside) as the oracle for Tree: container/heap Dijkstra with explicit
// prev/done/seen state, every path materialised through refComposeProps.
func refShortestPaths(g *Graph, src NodeID) map[NodeID]*Path {
	const inf = math.MaxInt64
	type state struct {
		dist time.Duration
		hops int
		prev NodeID
		via  int // link id used to arrive
		done bool
		seen bool
	}
	st := make([]state, len(g.nodes))
	for i := range st {
		st[i].dist = time.Duration(inf)
		st[i].via = -1
	}
	st[src].dist = 0
	st[src].seen = true

	pq := &refNodeQueue{}
	heap.Push(pq, refNodeDist{id: src, dist: 0, hops: 0})
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(refNodeDist)
		s := &st[cur.id]
		if s.done {
			continue
		}
		s.done = true
		for _, li := range g.adj[cur.id].out {
			l := g.link(li)
			if l.Bandwidth < 0 { // tombstone
				continue
			}
			nd := cur.dist + l.Latency
			nh := cur.hops + 1
			ns := &st[l.To]
			better := false
			switch {
			case !ns.seen || nd < ns.dist:
				better = true
			case nd == ns.dist && nh < ns.hops:
				better = true
			case nd == ns.dist && nh == ns.hops && ns.via >= 0 && li < ns.via:
				better = true
			}
			if better && !ns.done {
				ns.dist, ns.hops, ns.prev, ns.via, ns.seen = nd, nh, cur.id, li, true
				heap.Push(pq, refNodeDist{id: l.To, dist: nd, hops: nh})
			}
		}
	}

	out := make(map[NodeID]*Path)
	for id := range g.nodes {
		nid := NodeID(id)
		if nid == src || !st[id].seen {
			continue
		}
		// Rebuild the link chain backwards.
		var rev []int
		for at := nid; at != src; at = st[at].prev {
			rev = append(rev, st[at].via)
		}
		links := make([]int, len(rev))
		lobjs := make([]Link, len(rev))
		for i := range rev {
			links[i] = rev[len(rev)-1-i]
			lobjs[i] = *g.link(links[i])
		}
		out[nid] = &Path{From: src, To: nid, Links: links, LinkProps: refComposeProps(lobjs)}
	}
	return out
}

func refComposeProps(links []Link) LinkProps {
	var out LinkProps
	if len(links) == 0 {
		return out
	}
	out.Bandwidth = links[0].Bandwidth
	jitterSq := 0.0
	for _, l := range links {
		out.Latency += l.Latency
		jitterSq += float64(l.Jitter) * float64(l.Jitter)
		out.Loss += l.Loss - out.Loss*l.Loss
		if l.Bandwidth < out.Bandwidth {
			out.Bandwidth = l.Bandwidth
		}
	}
	out.Jitter = time.Duration(math.Sqrt(jitterSq))
	return out
}

type refNodeDist struct {
	id   NodeID
	dist time.Duration
	hops int
}

type refNodeQueue []refNodeDist

func (q refNodeQueue) Len() int { return len(q) }
func (q refNodeQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	if q[i].hops != q[j].hops {
		return q[i].hops < q[j].hops
	}
	return q[i].id < q[j].id
}
func (q refNodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refNodeQueue) Push(x any)   { *q = append(*q, x.(refNodeDist)) }
func (q *refNodeQueue) Pop() (x any) { old := *q; n := len(old); x = old[n-1]; *q = old[:n-1]; return }

// checkAgainstReference compares ShortestPaths and Tree.Path with the seed
// oracle from every source: same reachable set, same link order, same
// composed floats.
func checkAgainstReference(t testing.TB, g *Graph) {
	t.Helper()
	var sc Scratch
	for src := range g.nodes {
		src := NodeID(src)
		want := refShortestPaths(g, src)
		if got := g.ShortestPaths(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("ShortestPaths(%d) differs from the reference:\n got %v\nwant %v", src, pathsString(g, got), pathsString(g, want))
		}
		tree := g.Tree(src, &sc)
		for dst := range g.nodes {
			if got := tree.Path(g, NodeID(dst)); !reflect.DeepEqual(got, want[NodeID(dst)]) {
				t.Fatalf("Tree(%d).Path(%d) = %+v, reference %+v", src, dst, got, want[NodeID(dst)])
			}
		}
	}
}

// pathsString renders a path map in NodeID order, for failure messages.
func pathsString(g *Graph, m map[NodeID]*Path) string {
	s := ""
	for id := range g.nodes {
		if p, ok := m[NodeID(id)]; ok {
			s += fmt.Sprintf(" %d:%v/%v", id, p.Links, p.LinkProps)
		}
	}
	return s
}

// tieProps draws link properties from a handful of values, zero latency
// included, so equal-distance and equal-hop alternatives are the rule.
func tieProps(rng *rand.Rand) LinkProps {
	return LinkProps{
		Latency:   time.Duration(rng.Intn(3)) * time.Millisecond,
		Jitter:    time.Duration(rng.Intn(4)) * 100 * time.Microsecond,
		Bandwidth: units.Bandwidth(1+rng.Intn(3)) * 10 * units.Mbps,
		Loss:      units.Loss(rng.Intn(3)) * 0.01,
	}
}

func TestTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t.Run("equal-latency scale-free", func(t *testing.T) {
		for _, m := range []int{1, 2, 3} {
			checkAgainstReference(t, ScaleFree(ScaleFreeOptions{
				Elements: 120, EdgesPerNode: m,
				LinkProps: props(2*time.Millisecond, 100*units.Mbps),
				Rand:      rand.New(rand.NewSource(int64(m))),
			}))
		}
	})
	t.Run("grid", func(t *testing.T) {
		// Every interior pair has many equal-latency, equal-hop routes:
		// only the link-id tie-break separates them.
		const w = 7
		g := New()
		for i := 0; i < w*w; i++ {
			g.MustAddNode(fmt.Sprintf("n%d", i), NodeKind(i%2))
		}
		for y := 0; y < w; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					g.AddBiLink(NodeID(y*w+x), NodeID(y*w+x+1), props(time.Millisecond, units.Gbps))
				}
				if y+1 < w {
					g.AddBiLink(NodeID(y*w+x), NodeID((y+1)*w+x), props(time.Millisecond, units.Gbps))
				}
			}
		}
		checkAgainstReference(t, g)
	})
	t.Run("multigraph with tombstones and islands", func(t *testing.T) {
		for round := 0; round < 40; round++ {
			g := New()
			n := 3 + rng.Intn(12)
			for i := 0; i < n; i++ {
				g.MustAddNode(fmt.Sprintf("n%d", i), NodeKind(rng.Intn(2)))
			}
			// The last two nodes form an island unless n is tiny.
			reach := n
			if n > 5 {
				reach = n - 2
				g.AddBiLink(NodeID(n-2), NodeID(n-1), tieProps(rng))
			}
			for i := 0; i < 4*n; i++ {
				a, b := NodeID(rng.Intn(reach)), NodeID(rng.Intn(reach))
				if rng.Intn(3) == 0 {
					g.AddLink(a, b, tieProps(rng)) // one-way, parallel and self links too
				} else {
					g.AddBiLink(a, b, tieProps(rng))
				}
			}
			for i := 0; i < n; i++ {
				g.RemoveLink(rng.Intn(g.NumLinks()))
			}
			checkAgainstReference(t, g)
		}
	})
}

// fuzzGraph decodes a small multigraph from fuzz bytes: the first byte
// sizes it (2 to span+1 nodes), then every 3 bytes are one link (from, to,
// latency in 0..3 ms with the high bit tombstoning it).
func fuzzGraph(data []byte, span int) *Graph {
	g := New()
	if len(data) == 0 {
		return g
	}
	n := 2 + int(data[0])%span
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), NodeKind(i%2))
	}
	for i := 1; i+2 < len(data) && g.NumLinks() < 256; i += 3 {
		id := g.AddLink(NodeID(int(data[i])%n), NodeID(int(data[i+1])%n), LinkProps{
			Latency:   time.Duration(data[i+2]&3) * time.Millisecond,
			Jitter:    time.Duration(data[i+2]>>2&3) * time.Millisecond,
			Bandwidth: units.Bandwidth(1+data[i+2]>>4&3) * units.Mbps,
			Loss:      units.Loss(data[i+2]>>6&1) * 0.125,
		})
		if data[i+2]&0x80 != 0 {
			g.RemoveLink(id)
		}
	}
	return g
}

func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 3, 0x81})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{9, 0, 1, 2, 0, 2, 2, 1, 3, 1, 2, 3, 1, 3, 4, 0, 4, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzGraph(data, 14))
	})
}

// TestTreeHoldsImpliesIdentical is the carry-over criterion's contract:
// whenever an old tree Holds for a patched graph, a fresh Dijkstra on the
// patched graph yields that very tree — and the criterion is not vacuous.
func TestTreeHoldsImpliesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	held, total := 0, 0
	for round := 0; round < 300; round++ {
		g := ScaleFree(ScaleFreeOptions{
			Elements: 40 + rng.Intn(40), EdgesPerNode: 1 + rng.Intn(2),
			LinkProps: props(2*time.Millisecond, 100*units.Mbps),
			Rand:      rand.New(rand.NewSource(int64(round))),
		})
		for i := 0; i < g.NumLinks()/4; i++ { // untie a quarter of the links
			li := rng.Intn(g.NumLinks())
			g.SetLinkProps(li, tieProps(rng))
		}
		next := g.Clone()
		var changed []int
		for i := 0; i < 1+rng.Intn(3); i++ {
			li := rng.Intn(next.NumLinks())
			switch rng.Intn(4) {
			case 0:
				next.RemoveLink(li)
			case 1:
				a, b := NodeID(rng.Intn(next.NumNodes())), NodeID(rng.Intn(next.NumNodes()))
				li = next.AddLink(a, b, tieProps(rng))
			default:
				next.SetLinkProps(li, tieProps(rng)) // may revive a tombstone
			}
			changed = append(changed, li)
		}
		for src := 0; src < g.NumNodes(); src += 7 {
			old := g.Tree(NodeID(src), nil)
			total++
			if !old.Holds(next, changed) {
				continue
			}
			held++
			if v, differ := treeDiff(next, old, next.Tree(NodeID(src), nil)); differ {
				t.Fatalf("round %d src %d: tree Holds across %v but a fresh one differs at node %d", round, src, changed, v)
			}
		}
	}
	if held < total/5 || held == total {
		t.Fatalf("criterion held for %d of %d trees: the test does not exercise both outcomes", held, total)
	}

	// A node-count change refuses carry-over outright.
	g, c1, _, _ := paperTopology(t)
	grown := g.Clone()
	grown.MustAddNode("late", Service)
	if g.Tree(c1, nil).Holds(grown, nil) {
		t.Fatal("tree holds for a graph with another node count")
	}
}

// TestTransitLeaves pins the leaf rule at its edges: which nodes the
// transit index leaves out, what a leaf's derived entry reads, that a
// changed in-link of a leaf refuses Holds and repairs exactly, and every
// tree of the graph against the reference.
func TestTransitLeaves(t *testing.T) {
	lat := func(ms int) LinkProps { return props(time.Duration(ms)*time.Millisecond, units.Gbps) }
	g := New()
	h := g.MustAddNode("h", Bridge) // a hub
	k := g.MustAddNode("k", Bridge) // a second hub
	a := g.MustAddNode("a", Service)
	b := g.MustAddNode("b", Service) // three parallel links in from h
	x := g.MustAddNode("x", Service) // x and y know only each other
	y := g.MustAddNode("y", Service)
	w := g.MustAddNode("w", Service) // on h, with an in-link from k as well
	s := g.MustAddNode("s", Service) // on h, with a self-loop
	d := g.MustAddNode("d", Service) // on k, its link in tombstoned
	g.AddBiLink(h, k, lat(1))
	g.AddBiLink(a, h, lat(2))
	g.AddLink(b, h, lat(1))
	g.AddLink(h, b, lat(3))
	bIn := g.AddLink(h, b, lat(2))
	g.AddLink(h, b, lat(2)) // ties with bIn through a larger id
	g.AddBiLink(x, y, lat(1))
	g.AddBiLink(w, h, lat(1))
	g.AddLink(k, w, lat(1))
	g.AddBiLink(s, h, lat(1))
	g.AddLink(s, s, lat(1))
	_, dIn := g.AddBiLink(d, k, lat(1))
	g.RemoveLink(dIn)

	ix := g.transit()
	for v, leaf := range map[NodeID]bool{h: false, k: false, a: true, b: true, x: false, y: false, w: false, s: false, d: true} {
		if got := ix.slot[v] < 0; got != leaf {
			t.Errorf("node %s: leaf = %v, want %v", g.Node(v).Name, got, leaf)
		}
	}

	fromA := g.Tree(a, nil) // a leaf source
	for _, c := range []struct {
		v    NodeID
		want treeNode
	}{
		{a, treeNode{via: -1}},
		{b, treeNode{dist: 4 * time.Millisecond, hops: 2, via: int32(bIn)}},
		{d, treeNode{dist: unreached, via: -1}},
	} {
		if got := fromA.at(g, c.v); got != c.want {
			t.Errorf("tree from a: node %s reads %+v, want %+v", g.Node(c.v).Name, got, c.want)
		}
	}
	if p := fromA.Path(g, d); p != nil {
		t.Errorf("tree from a reaches d over its tombstoned link: %+v", p)
	}
	checkAgainstReference(t, g)

	// A faster link into b, and d's link back up.
	next := g.Clone()
	next.SetLinkProps(bIn, lat(1))
	next.SetLinkProps(dIn, lat(1))
	changed := []int{bIn, dIn}
	if fromA.Holds(next, changed) {
		t.Error("the tree from a holds across a changed in-link of the leaf b")
	}
	if !g.Tree(x, nil).Holds(next, changed) {
		t.Error("the tree from x, which reaches neither h nor k, does not hold")
	}
	all := make([]NodeID, g.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	checkRepair(t, g, trees(g, all), next, changed)
	checkAgainstReference(t, next)
}

// trees returns g's tree from each of sources.
func trees(g *Graph, sources []NodeID) []Tree {
	out := make([]Tree, len(sources))
	for i, src := range sources {
		out[i] = g.Tree(src, nil)
	}
	return out
}

// treeDiff compares two trees of g as values: the source, the node count
// and every node's entry, leaves included, whatever table and patch each
// keeps them in. It returns the first node that differs (-1 for the
// source or the count).
func treeDiff(g *Graph, a, b Tree) (NodeID, bool) {
	if a.src != b.src || len(a.ix.slot) != len(b.ix.slot) {
		return -1, true
	}
	for v := range a.ix.slot {
		if a.at(g, NodeID(v)) != b.at(g, NodeID(v)) {
			return NodeID(v), true
		}
	}
	return 0, false
}

// checkRepair repairs each of olds, trees of prev that a patch turned
// into next, where changed lists at least every link whose properties
// differ, and fails unless each repair equals a fresh Tree on next node
// for node and leaves the tree it started from as it was. It returns the
// repaired trees, for a later patch to repair again, and how many of olds
// did not Hold.
func checkRepair(t testing.TB, prev *Graph, olds []Tree, next *Graph, changed []int) (repaired []Tree, stale int) {
	t.Helper()
	var sc Scratch
	for _, old := range olds {
		if !old.Holds(next, changed) {
			stale++
		}
		before := Tree{src: old.src, ix: old.ix, base: make([]treeNode, len(old.base))}
		for s := range before.base {
			before.base[s] = old.entry(int32(s))
		}
		got, want := old.Repair(next, changed, &sc), next.Tree(old.src, nil)
		if v, differ := treeDiff(prev, old, before); differ {
			t.Fatalf("src %d, changed %v: Repair wrote node %d of the tree it repaired", old.src, changed, v)
		}
		if v, differ := treeDiff(next, got, want); differ {
			if v < 0 {
				t.Fatalf("src %d, changed %v: Repair gives source %d over %d nodes, a fresh Tree %d over %d", old.src, changed, got.src, len(got.ix.slot), want.src, len(want.ix.slot))
			}
			t.Fatalf("src %d, changed %v: Repair gives node %d %+v, a fresh Tree %+v", old.src, changed, v, got.at(next, v), want.at(next, v))
		}
		if len(got.patch) > maxPatch(len(got.base)) {
			t.Fatalf("src %d: a patch of %d entries on %d slots was not folded", old.src, len(got.patch), len(got.base))
		}
		repaired = append(repaired, got)
	}
	return repaired, stale
}

// patchGraph applies a patch set decoded from fuzz bytes to a clone of g
// and returns the clone and the links it touched. Every two bytes are one
// patch: a link's latency up, down or unchanged, a bandwidth-only change
// on a tree edge, a tombstone, a restore, or a fresh link.
func patchGraph(g *Graph, data []byte) (*Graph, []int) {
	next := g.Clone()
	var changed []int
	n := next.NumNodes()
	for i := 0; i+1 < len(data) && next.NumLinks() > 0; i += 2 {
		op, arg := data[i], int(data[i+1])
		li := arg % next.NumLinks()
		p := next.Link(li).LinkProps
		switch op % 7 {
		case 0:
			p.Latency += time.Duration(1+op>>3&1) * time.Millisecond
		case 1:
			p.Latency -= min(p.Latency, time.Duration(1+op>>3&1)*time.Millisecond)
		case 2:
			p.Jitter++ // latency unchanged
		case 3: // the edge into node arg of the tree from node op>>3
			tr := next.Tree(NodeID(int(op>>3)%n), nil)
			via := tr.at(next, NodeID(arg%n)).via
			if via < 0 {
				continue
			}
			li, p = int(via), next.Link(int(via)).LinkProps
			p.Bandwidth = units.Bandwidth(1+op>>3&3) * 3 * units.Mbps
		case 4:
			next.RemoveLink(li)
			changed = append(changed, li)
			continue
		case 5:
			if p.Bandwidth < 0 {
				p.Bandwidth = units.Mbps
			}
		default:
			li = next.AddLink(NodeID(arg%n), NodeID(int(op>>3)%n), LinkProps{
				Latency: time.Duration(op>>5&3) * time.Millisecond, Bandwidth: units.Mbps,
			})
			changed = append(changed, li)
			continue
		}
		next.SetLinkProps(li, p)
		changed = append(changed, li)
	}
	return next, changed
}

// FuzzTreeRepair repairs a chain of patch sets: every tree of the graph
// is repaired across the first set, each result across the next one, and
// so on, so patches land on patched trees and fold. Each patch set is a
// count byte (1 to 4 patches) followed by patchGraph's two bytes a patch.
func FuzzTreeRepair(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 3, 0x81}, []byte{2, 0, 0, 1, 2, 4, 1})
	f.Add([]byte{9, 0, 1, 2, 0, 2, 2, 1, 3, 1, 2, 3, 1, 3, 4, 0, 4, 0, 3}, []byte{2, 3, 4, 5, 3, 6, 7, 0, 4, 2})
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 6; i++ {
		g, p := make([]byte, 40+rng.Intn(80)), make([]byte, 4+rng.Intn(24))
		rng.Read(g)
		rng.Read(p)
		f.Add(g, p)
	}
	f.Fuzz(func(t *testing.T, graphData, patchData []byte) {
		g := fuzzGraph(graphData, 46) // up to 47 nodes: patches of up to 5 entries
		if g.NumNodes() == 0 {
			return
		}
		sources := make([]NodeID, g.NumNodes())
		for i := range sources {
			sources[i] = NodeID(i)
		}
		ts := trees(g, sources)
		for len(patchData) > 0 {
			end := min(1+2*(1+int(patchData[0])%4), len(patchData))
			next, changed := patchGraph(g, patchData[1:end])
			patchData = patchData[end:]
			ts, _ = checkRepair(t, g, ts, next, changed)
			g = next
		}
	})
}

// TestTreeRepairSingleFlaps flaps every bridge–bridge link of the
// 1000-element scale-free graph, both directions at once as a set-link
// event does: latency halved, bandwidth alone halved, latency ×1.5, the
// link taken down and then brought back up. Every repair must equal a
// fresh Tree.
func TestTreeRepairSingleFlaps(t *testing.T) {
	base := LinkProps{Latency: 2 * time.Millisecond, Bandwidth: units.Gbps}
	g := ScaleFree(ScaleFreeOptions{Elements: 1000, EdgesPerNode: 2, LinkProps: base, Rand: rand.New(rand.NewSource(1))})
	svc := g.Services()
	olds := trees(g, []NodeID{0, svc[0], svc[len(svc)/2], svc[len(svc)-1]})
	patches := []LinkProps{
		{Latency: base.Latency / 2, Bandwidth: base.Bandwidth},
		{Latency: base.Latency, Bandwidth: base.Bandwidth / 2},
		{Latency: base.Latency * 3 / 2, Bandwidth: base.Bandwidth},
	}
	stale, flaps := 0, 0
	for li := 0; li < g.NumLinks(); li++ {
		l := g.Link(li)
		if g.Node(l.From).Kind != Bridge || g.Node(l.To).Kind != Bridge || l.From > l.To {
			continue
		}
		pair := []int{li}
		for _, ri := range g.adj[l.To].out {
			if g.Link(ri).To == l.From {
				pair = append(pair, ri)
			}
		}
		for _, p := range patches {
			next := g.Clone()
			for _, id := range pair {
				next.SetLinkProps(id, p)
			}
			_, n := checkRepair(t, g, olds, next, pair)
			stale += n
		}
		down := g.Clone()
		for _, id := range pair {
			down.RemoveLink(id)
		}
		downs, n := checkRepair(t, g, olds, down, pair)
		_, m := checkRepair(t, down, downs, g, pair)
		stale += n + m
		flaps++
	}
	if flaps < 500 || stale < flaps {
		t.Fatalf("%d bridge–bridge flaps left %d trees stale: too few to exercise Repair", flaps, stale)
	}
	t.Logf("%d flaps, %d of %d trees stale", flaps, stale, 5*flaps*len(olds))
}

// BenchmarkTreeRepair repairs shortest-path trees of the 1000-element
// scale-free graph across bridge–bridge latency flaps, the tree work one
// set-link event leaves: one op is one tree repaired across one flap. Each
// repair is the next one's input, so patches land on patched trees and
// fold; 64 flaps and then their undos make a cycle.
func BenchmarkTreeRepair(b *testing.B) {
	base := LinkProps{Latency: 2 * time.Millisecond, Bandwidth: units.Gbps}
	g := ScaleFree(ScaleFreeOptions{Elements: 1000, EdgesPerNode: 2, LinkProps: base, Rand: rand.New(rand.NewSource(1))})
	var pairs [][]int
	for li := 0; li < g.NumLinks(); li++ {
		if l := g.Link(li); g.Node(l.From).Kind == Bridge && g.Node(l.To).Kind == Bridge && l.From < l.To {
			for _, ri := range g.OutLinks(l.To) {
				if g.Link(ri).To == l.From {
					pairs = append(pairs, []int{li, ri})
				}
			}
		}
	}
	const flaps = 64
	rng := rand.New(rand.NewSource(2))
	gens, changed := []*Graph{g}, [][]int{nil}
	step := func(pair []int, props func(li int) LinkProps) {
		next := gens[len(gens)-1].Clone()
		for _, li := range pair {
			next.SetLinkProps(li, props(li))
		}
		gens, changed = append(gens, next), append(changed, pair)
	}
	for i := 0; i < flaps; i++ {
		lat := time.Duration(1+rng.Intn(4)) * time.Millisecond
		step(pairs[rng.Intn(len(pairs))], func(int) LinkProps { return LinkProps{Latency: lat, Bandwidth: base.Bandwidth} })
	}
	for i := flaps; i > 0; i-- {
		before := gens[i-1]
		step(changed[i], func(li int) LinkProps { return before.Link(li).LinkProps })
	}
	svc := g.Services()
	sources := make([]NodeID, 50)
	for i := range sources {
		sources[i] = svc[i*len(svc)/len(sources)]
	}
	ts := trees(g, sources)
	var sc Scratch
	g.Tree(sources[0], &sc)
	b.ReportAllocs()
	b.ResetTimer()
	at := 1
	for i := 0; i < b.N; i++ {
		j := i % len(ts)
		ts[j] = ts[j].Repair(gens[at], changed[at], &sc)
		if j == len(ts)-1 {
			at = at%(2*flaps) + 1
		}
	}
}

// composeProps folds a path's links through the §3 composition the
// shortest-path walk uses.
func composeProps(links []Link) LinkProps {
	var f propsFold
	for i := range links {
		f.add(&links[i].LinkProps)
	}
	return f.props()
}
