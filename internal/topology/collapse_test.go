package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/units"
)

func TestEventPatchesAreValidated(t *testing.T) {
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	live := NewLive(g)
	before := live.State()

	negLat, negBW, zeroBW := -10*time.Millisecond, -5*units.Mbps, units.Bandwidth(0)
	bigLoss, nanLoss := units.Loss(1.5), units.Loss(math.NaN())
	for name, p := range map[string]LinkPatch{
		"negative latency": {Latency: &negLat},
		"negative jitter":  {Jitter: &negLat},
		"negative up":      {Up: &negBW},
		"zero up":          {Up: &zeroBW},
		"negative down":    {Down: &negBW},
		"loss above one":   {Loss: &bigLoss},
		"NaN loss":         {Loss: &nanLoss},
	} {
		for _, kind := range []EventKind{EvSetLink, EvLinkJoin} {
			if err := live.Apply(time.Second, Event{Kind: kind, Orig: "a", Dest: "b", Props: p}); err == nil {
				t.Errorf("%v with %s was accepted", kind, name)
			}
		}
		if _, err := DryRun(g, []Event{{At: time.Second, Kind: EvSetLink, Orig: "a", Dest: "b", Props: p}}); err == nil {
			t.Errorf("DryRun accepted a set-link with %s", name)
		}
	}
	if live.State() != before || live.Gen() != 1 {
		t.Fatal("a rejected patch advanced the state")
	}
	// The seed's failure: Up(-5) wrote the tombstone sentinel without a
	// tombstone, so the link vanished and a later join added a fresh
	// zero-bandwidth pair next to it.
	if err := live.Apply(2*time.Second, Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := live.Apply(3*time.Second, Event{Kind: EvLinkJoin, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	st := live.State()
	if p := st.Collapsed.Path(a, b); st.Graph.NumLinks() != 2 || p == nil || p.Bandwidth != 10*units.Mbps {
		t.Fatalf("after leave/join: %d links, path %+v; want the original 2 links at 10Mbps", st.Graph.NumLinks(), p)
	}
}

// choices turns a byte string into a stream of bounded decisions, so the
// seeded test and the fuzzer drive one script interpreter. An exhausted
// stream answers 0.
type choices struct{ data []byte }

func (c *choices) next(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

// carryWorld is a random topology plus what a random event may name: the
// declared endpoint pairs of its links and its declared node names.
type carryWorld struct {
	g     *graph.Graph
	pairs [][2]string
	nodes []string
}

func newCarryWorld(t testing.TB, c *choices) carryWorld {
	t.Helper()
	base := graph.LinkProps{Latency: 2 * time.Millisecond, Bandwidth: 100 * units.Mbps}
	var w carryWorld
	switch c.next(3) {
	case 0: // scale-free, every link the same latency: ties everywhere
		w.g = graph.ScaleFree(graph.ScaleFreeOptions{
			Elements: 12 + c.next(30), EdgesPerNode: 1 + c.next(3),
			LinkProps: base, Rand: rand.New(rand.NewSource(int64(c.next(256)))),
		})
	case 1:
		w.g, _, _ = graph.Dumbbell(2+c.next(4), 2+c.next(4), base, base)
	default: // replicated services around a bridge triangle
		top := &Topology{
			Services: []ServiceDef{{Name: "cl", Replicas: 1 + c.next(3)}, {Name: "sv", Replicas: 2 + c.next(3)}, {Name: "db"}},
			Bridges:  []BridgeDef{{Name: "s1"}, {Name: "s2"}, {Name: "s3"}},
		}
		for _, l := range [][2]string{{"cl", "s1"}, {"sv", "s2"}, {"db", "s3"}, {"s1", "s2"}, {"s2", "s3"}, {"s1", "s3"}} {
			top.Links = append(top.Links, LinkDef{Orig: l[0], Dest: l[1], Latency: base.Latency, Up: base.Bandwidth, Down: base.Bandwidth})
			w.pairs = append(w.pairs, l)
		}
		for _, s := range top.Services {
			w.nodes = append(w.nodes, s.Name)
		}
		w.nodes = append(w.nodes, "s1", "s2", "s3")
		g, _, err := top.Build()
		if err != nil {
			t.Fatal(err)
		}
		w.g = g
		return w
	}
	for i := 0; i < w.g.NumLinks(); i++ {
		if l := w.g.Link(i); l.From < l.To {
			w.pairs = append(w.pairs, [2]string{w.g.Node(l.From).Name, w.g.Node(l.To).Name})
		}
	}
	for _, n := range w.g.Nodes() {
		w.nodes = append(w.nodes, n.Name)
	}
	return w
}

// event draws one event of any of the five kinds. Patch values come from
// a handful of latencies and bandwidths so that changed links tie with,
// beat and lose to the standing trees.
func (w carryWorld) event(c *choices) Event {
	pair := w.pairs[c.next(len(w.pairs))]
	if c.next(8) == 0 { // a pair with no link yet: a join adds fresh links
		pair = [2]string{w.nodes[c.next(len(w.nodes))], w.nodes[c.next(len(w.nodes))]}
	}
	e := Event{Orig: pair[0], Dest: pair[1], Name: w.nodes[c.next(len(w.nodes))]}
	switch c.next(8) {
	case 0, 1, 2:
		e.Kind = EvSetLink
	case 3:
		e.Kind = EvLinkLeave
	case 4, 5:
		e.Kind = EvLinkJoin
	case 6:
		e.Kind = EvNodeLeave
	default:
		e.Kind = EvNodeJoin
	}
	if lat := time.Duration(c.next(5)) * time.Millisecond; lat > 0 {
		lat -= time.Millisecond // 0..3 ms
		e.Props.Latency = &lat
	}
	if k := c.next(4); k > 0 {
		up := units.Bandwidth(k) * 50 * units.Mbps
		e.Props.Up = &up
	}
	if k := c.next(4); k == 1 {
		jit, loss := 300*time.Microsecond, units.Loss(0.01)
		e.Props.Jitter, e.Props.Loss = &jit, &loss
	}
	return e
}

// checkAgainstFresh compares st's collapse with one computed from scratch
// on a clone of st's graph, for every ordered service pair ask admits:
// same links in the same order, bit-equal composed properties.
func checkAgainstFresh(t testing.TB, label string, st *State, ask func() bool) {
	t.Helper()
	fresh := Collapse(st.Graph.Clone())
	services := st.Graph.Services()
	if len(services) > 14 {
		services = services[:14]
	}
	for _, s := range services {
		for _, d := range services {
			if !ask() {
				continue
			}
			got, want := st.Collapsed.Path(s, d), fresh.Path(s, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: path %d->%d = %+v, a fresh collapse says %+v", label, s, d, got, want)
			}
		}
	}
}

// runCarryScript plays a script of event groups through a Live. After
// every group a random part of the service pairs is checked against a
// fresh collapse — a part, so that some trees skip generations and some
// are first asked of a state that is no longer current — and at the end
// every state ever produced must still answer, in full, for its own
// generation.
func runCarryScript(t testing.TB, data []byte) CollapseStats {
	t.Helper()
	c := &choices{data: data}
	w := newCarryWorld(t, c)
	live := NewLive(w.g)
	states := []*State{live.State()}
	checkAgainstFresh(t, "initial", live.State(), func() bool { return c.next(2) == 0 })
	for step := 1; len(c.data) > 0 && step <= 24; step++ {
		group := make([]Event, 1+c.next(3)) // same-timestamp groups too
		for i := range group {
			group[i] = w.event(c)
		}
		if err := live.Apply(time.Duration(step)*time.Second, group...); err != nil {
			if live.State() != states[len(states)-1] {
				t.Fatalf("step %d: failed group (%v) advanced the state", step, err)
			}
			continue // e.g. a leave of a pair with no link: all-or-nothing, carry on
		}
		states = append(states, live.State())
		checkAgainstFresh(t, fmt.Sprintf("step %d %v", step, group), live.State(), func() bool { return c.next(3) != 0 })
	}
	for i, st := range states {
		checkAgainstFresh(t, fmt.Sprintf("state %d revisited", i), st, func() bool { return true })
	}
	return live.CollapseStats()
}

func TestCollapseCarryMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var total CollapseStats
	for round := 0; round < 150; round++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		st := runCarryScript(t, data)
		total.TreesBuilt += st.TreesBuilt
		total.TreesCarried += st.TreesCarried
		total.TreesRepaired += st.TreesRepaired
		total.PathsMaterialized += st.PathsMaterialized
		total.PathsKept += st.PathsKept
	}
	t.Logf("%+v", total)
	if total.TreesCarried*10 < total.TreesBuilt || total.TreesBuilt*10 < total.TreesCarried || total.TreesRepaired == 0 {
		t.Fatalf("%+v: the scripts do not exercise carry-over, rebuild and repair", total)
	}
}

func FuzzCollapseCarry(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4; i++ {
		data := make([]byte, 120)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runCarryScript(t, data) })
}

// TestCollapseAllocationBudget pins what a lookup costs on the
// 1000-element scale-free graph: nothing on a hit, a tree plus one path
// on a first ask, next to nothing when the previous generation's tree is
// adopted, and a patch over that tree plus one path when it is repaired —
// in objects, and for a repair in bytes too, since a patch is one object
// like the whole-tree copy it replaced.
func TestCollapseAllocationBudget(t *testing.T) {
	base := graph.LinkProps{Latency: 2 * time.Millisecond, Bandwidth: units.Gbps}
	g := graph.ScaleFree(graph.ScaleFreeOptions{Elements: 1000, EdgesPerNode: 2, LinkProps: base, Rand: rand.New(rand.NewSource(1))})
	svc := g.Services()
	a, b := svc[0], svc[len(svc)-1]

	const runs = 10 // AllocsPerRun calls f runs+1 times
	fresh := make([]*Collapsed, 0, runs+1)
	for len(fresh) <= runs {
		fresh = append(fresh, Collapse(g))
	}
	i := 0
	first := testing.AllocsPerRun(runs, func() { fresh[i].Path(a, b); i++ })
	if first > 10 {
		t.Errorf("first Path on a fresh collapse: %.1f objects, budget 10", first)
	}
	if hit := testing.AllocsPerRun(100, func() { fresh[0].Path(a, b) }); hit != 0 {
		t.Errorf("Path hit: %.1f objects, want 0", hit)
	}

	// Two bridge-bridge links made slower: one in neither direction's tree
	// from a, whose tree and memoised path the next generation adopts, and
	// one a tree edge, which the next generation repairs.
	lat := 3 * time.Millisecond
	flap := func(live *Live, l graph.Link) {
		if err := live.Apply(time.Second, Event{Kind: EvSetLink, Orig: g.Node(l.From).Name, Dest: g.Node(l.To).Name, Props: LinkPatch{Latency: &lat}}); err != nil {
			t.Fatal(err)
		}
	}
	var carry, repair graph.Link
	for li := 0; li < g.NumLinks() && (carry.To == 0 || repair.To == 0); li++ {
		l := g.Link(li)
		if g.Node(l.From).Kind != graph.Bridge || g.Node(l.To).Kind != graph.Bridge {
			continue
		}
		probe := NewLive(g)
		probe.State().Collapsed.Path(a, b)
		flap(probe, l)
		probe.State().Collapsed.Path(a, b)
		if probe.CollapseStats().TreesCarried == 1 {
			carry = l
		} else if probe.CollapseStats().TreesRepaired == 1 {
			repair = l
		}
	}
	if carry.To == 0 || repair.To == 0 {
		t.Fatal("no bridge link leaves the tree from the first service intact, or none is in it")
	}
	lives := func(l graph.Link) ([]*Live, []*graph.Path) {
		out := make([]*Live, 0, runs+1)
		paths := make([]*graph.Path, 0, runs+1)
		for len(out) <= runs {
			live := NewLive(g)
			paths = append(paths, live.State().Collapsed.Path(a, b))
			flap(live, l)
			out = append(out, live)
		}
		return out, paths
	}
	carried, paths := lives(carry)
	i = 0
	miss := testing.AllocsPerRun(runs, func() {
		if carried[i].State().Collapsed.Path(a, b) != paths[i] {
			t.Error("the adopted source lost its memoised path")
		}
		i++
	})
	if miss > 4 {
		t.Errorf("Path adopting the previous generation's tree: %.1f objects, budget 4", miss)
	}
	if st := carried[0].CollapseStats(); st.TreesBuilt != 1 || st.TreesCarried != 1 || st.TreesRepaired != 0 || st.PathsMaterialized != 1 {
		t.Errorf("stats after build + adopt = %+v, want 1/1/0/1", st)
	}

	// A repair allocates the tree's patch, the source, its paths map (two
	// objects once the path is in it), the path (two) and the cache entry;
	// its working memory is the scratch the first tree sized.
	repaired, _ := lives(repair)
	i = 0
	miss = testing.AllocsPerRun(runs, func() { repaired[i].State().Collapsed.Path(a, b); i++ })
	if miss > 7 {
		t.Errorf("Path repairing the previous generation's tree: %.1f objects, budget 7", miss)
	}
	if st := repaired[0].CollapseStats(); st.TreesBuilt != 2 || st.TreesCarried != 0 || st.TreesRepaired != 1 || st.PathsMaterialized != 2 {
		t.Errorf("stats after build + repair = %+v, want 2/0/1/2", st)
	}
	// In bytes, the same repair (about 1.4 KB, the path included) stays
	// under half a copy of the tree's table (16 bytes for each of 334
	// transit slots): a patch that has to fold, a repair that copies the
	// table, or leaf entries back in the patch fail here.
	repaired, _ = lives(repair)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, live := range repaired {
		live.State().Collapsed.Path(a, b)
	}
	runtime.ReadMemStats(&after)
	if perRepair := (after.TotalAlloc - before.TotalAlloc) / uint64(len(repaired)); perRepair > 2048 {
		t.Errorf("Path repairing the previous generation's tree: %d bytes, budget 2048", perRepair)
	}
}

// TestRepairedSourceKeepsUnmovedPaths flaps a bridge link of a ring
// a–r0–r1–r2–b with a detour r0–r3–r2. Slowing the detour's first link
// changes the tree from a (it is r3's tree edge), so the tree is repaired,
// but a's path to b did not move: the repaired source returns the very
// *Path the previous generation materialised. Slowing r1–r2, which the
// path crosses, keeps the route but changes its latency: a new *Path.
func TestRepairedSourceKeepsUnmovedPaths(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	top := &Topology{
		Services: []ServiceDef{{Name: "a"}, {Name: "b"}},
		Bridges:  []BridgeDef{{Name: "r0"}, {Name: "r1"}, {Name: "r2"}, {Name: "r3"}},
	}
	for _, l := range []struct {
		orig, dest string
		lat        int
	}{{"a", "r0", 1}, {"r0", "r1", 1}, {"r1", "r2", 1}, {"r2", "b", 1}, {"r0", "r3", 2}, {"r3", "r2", 2}} {
		top.Links = append(top.Links, LinkDef{Orig: l.orig, Dest: l.dest, Latency: ms(l.lat), Up: units.Gbps, Down: units.Gbps})
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	flap := func(orig, dest string, lat time.Duration) (before, after *graph.Path, st CollapseStats) {
		t.Helper()
		live := NewLive(g)
		before = live.State().Collapsed.Path(a, b)
		if err := live.Apply(time.Second, Event{Kind: EvSetLink, Orig: orig, Dest: dest, Props: LinkPatch{Latency: &lat}}); err != nil {
			t.Fatal(err)
		}
		return before, live.State().Collapsed.Path(a, b), live.CollapseStats()
	}

	before, after, st := flap("r0", "r3", ms(3))
	if after != before {
		t.Errorf("a flap off the path: got a new path %+v, want the previous one back", after)
	}
	if st.TreesRepaired != 1 || st.PathsKept != 1 || st.PathsMaterialized != 1 {
		t.Errorf("a flap off the path: stats %+v, want one repair, one path kept, one materialised", st)
	}

	before, after, st = flap("r1", "r2", ms(2))
	if after == before || !reflect.DeepEqual(after.Links, before.Links) || after.Latency != before.Latency+ms(1) {
		t.Errorf("a flap on the path: %+v after %+v, want a new path over the same links, 1 ms slower", after, before)
	}
	if st.TreesRepaired != 1 || st.PathsKept != 0 || st.PathsMaterialized != 2 {
		t.Errorf("a flap on the path: stats %+v, want one repair, no path kept, two materialised", st)
	}
}

// BenchmarkApplyFlap is one set-link latency flap on a bridge–bridge link
// of the 1000-element scale-free graph, applied to a Live and followed by
// the questions that re-point shaping after it: one op is the Apply plus
// the path of each of 100 service pairs, most of them adopted or repaired
// from the previous generation.
func BenchmarkApplyFlap(b *testing.B) {
	base := graph.LinkProps{Latency: 2 * time.Millisecond, Bandwidth: units.Gbps}
	g := graph.ScaleFree(graph.ScaleFreeOptions{Elements: 1000, EdgesPerNode: 2, LinkProps: base, Rand: rand.New(rand.NewSource(1))})
	var bridges [][2]string
	for li := 0; li < g.NumLinks(); li++ {
		if l := g.Link(li); g.Node(l.From).Kind == graph.Bridge && g.Node(l.To).Kind == graph.Bridge && l.From < l.To {
			bridges = append(bridges, [2]string{g.Node(l.From).Name, g.Node(l.To).Name})
		}
	}
	rng := rand.New(rand.NewSource(2))
	svc := g.Services()
	pairs := make([][2]graph.NodeID, 100)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{svc[rng.Intn(len(svc))], svc[rng.Intn(len(svc))]}
	}
	events := make([]Event, 256)
	for i := range events {
		br, lat := bridges[rng.Intn(len(bridges))], time.Duration(1+rng.Intn(4))*time.Millisecond
		events[i] = Event{Kind: EvSetLink, Orig: br[0], Dest: br[1], Props: LinkPatch{Latency: &lat}}
	}
	live := NewLive(g)
	ask := func() {
		st := live.State()
		for _, p := range pairs {
			st.Collapsed.Path(p[0], p[1])
		}
	}
	ask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := live.Apply(time.Duration(i+1)*time.Millisecond, events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		ask()
	}
}
