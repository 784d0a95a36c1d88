// Package topology implements the Kollaps experiment description language
// (§3, Listings 1 and 2): services, bridges, links and dynamic events, in
// both the lean YAML-based syntax and a ModelNet-like XML syntax; plus the
// network collapsing step that turns a declared topology into the
// end-to-end virtual link mesh the Emulation Manager enforces, and the
// offline pre-computation of the graph sequence for dynamic experiments.
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package topology

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/units"
)

// ServiceDef declares a set of containers sharing one image.
type ServiceDef struct {
	Name     string
	Image    string
	Replicas int
	Command  string
}

// ContainerNames returns the graph node names for the service's replicas:
// the bare name when Replicas <= 1, otherwise name-0 .. name-(n-1).
func (s ServiceDef) ContainerNames() []string {
	if s.Replicas <= 1 {
		return []string{s.Name}
	}
	out := make([]string, s.Replicas)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", s.Name, i)
	}
	return out
}

// BridgeDef declares a network element (switch/router).
type BridgeDef struct {
	Name string
}

// LinkDef declares a (by default bidirectional) link between two named
// endpoints. Up/Down may differ; all other properties are symmetric (§3).
type LinkDef struct {
	Orig, Dest string
	Latency    time.Duration
	Jitter     time.Duration
	Up, Down   units.Bandwidth
	Loss       units.Loss
	Network    string
	// Unidirectional suppresses the reverse link.
	Unidirectional bool
}

// EventKind classifies a dynamic event.
type EventKind int

// Dynamic event kinds (§3: modification of link properties, addition and
// removal of links, bridges and services).
const (
	EvSetLink EventKind = iota
	EvLinkLeave
	EvLinkJoin
	EvNodeLeave
	EvNodeJoin
)

// String returns the event kind's name: set-link, link-leave, link-join,
// node-leave or node-join.
func (k EventKind) String() string {
	switch k {
	case EvSetLink:
		return "set-link"
	case EvLinkLeave:
		return "link-leave"
	case EvLinkJoin:
		return "link-join"
	case EvNodeLeave:
		return "node-leave"
	default:
		return "node-join"
	}
}

// Event is one dynamic topology change at an absolute experiment time.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Link events:
	Orig, Dest string
	Props      LinkPatch
	// Node events:
	Name string
}

// LinkPatch carries the optional property changes of a set/join event;
// nil fields keep the previous value.
type LinkPatch struct {
	Latency *time.Duration
	Jitter  *time.Duration
	Up      *units.Bandwidth
	Down    *units.Bandwidth
	Loss    *units.Loss
}

// Topology is a parsed experiment description.
type Topology struct {
	Services []ServiceDef
	Bridges  []BridgeDef
	Links    []LinkDef
	Events   []Event
}

// Validate checks referential integrity and value sanity.
func (t *Topology) Validate() error {
	if len(t.Services) == 0 {
		return fmt.Errorf("topology: no services declared")
	}
	names := make(map[string]bool)
	for _, s := range t.Services {
		if s.Name == "" {
			return fmt.Errorf("topology: service with empty name")
		}
		if names[s.Name] {
			return fmt.Errorf("topology: duplicate name %q", s.Name)
		}
		names[s.Name] = true
		if s.Replicas < 0 {
			return fmt.Errorf("topology: service %q has negative replicas", s.Name)
		}
	}
	for _, b := range t.Bridges {
		if b.Name == "" {
			return fmt.Errorf("topology: bridge with empty name")
		}
		if names[b.Name] {
			return fmt.Errorf("topology: duplicate name %q", b.Name)
		}
		names[b.Name] = true
	}
	for i, l := range t.Links {
		if !names[l.Orig] {
			return fmt.Errorf("topology: link %d references unknown origin %q", i, l.Orig)
		}
		if !names[l.Dest] {
			return fmt.Errorf("topology: link %d references unknown destination %q", i, l.Dest)
		}
		if l.Orig == l.Dest {
			return fmt.Errorf("topology: link %d is a self-loop on %q", i, l.Orig)
		}
		if err := l.props().check(); err != nil {
			return fmt.Errorf("topology: link %d (%s->%s): %v", i, l.Orig, l.Dest, err)
		}
	}
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("topology: event %d has negative time", i)
		}
		switch e.Kind {
		case EvNodeLeave, EvNodeJoin:
			if !names[e.Name] {
				return fmt.Errorf("topology: event %d references unknown node %q", i, e.Name)
			}
		default:
			if !names[e.Orig] || !names[e.Dest] {
				return fmt.Errorf("topology: event %d references unknown link %s->%s", i, e.Orig, e.Dest)
			}
		}
	}
	return nil
}

// Build materializes the declared topology as a graph: one Service node
// per container replica, one Bridge node per bridge, and the expanded
// unidirectional links. It also returns the container name list per
// service.
func (t *Topology) Build() (*graph.Graph, map[string][]string, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	g := graph.New()
	containers := make(map[string][]string)
	// Per declared name, the graph node names it expands to.
	expand := make(map[string][]string)
	for _, s := range t.Services {
		cs := s.ContainerNames()
		containers[s.Name] = cs
		expand[s.Name] = cs
		for _, c := range cs {
			if _, err := g.AddNode(c, graph.Service); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, b := range t.Bridges {
		if _, err := g.AddNode(b.Name, graph.Bridge); err != nil {
			return nil, nil, err
		}
		expand[b.Name] = []string{b.Name}
	}
	for _, l := range t.Links {
		for _, from := range expand[l.Orig] {
			for _, to := range expand[l.Dest] {
				a, _ := g.Lookup(from)
				b, _ := g.Lookup(to)
				g.AddLink(a, b, graph.LinkProps{
					Latency: l.Latency, Jitter: l.Jitter,
					Bandwidth: l.Up, Loss: l.Loss,
				})
				if !l.Unidirectional {
					g.AddLink(b, a, graph.LinkProps{
						Latency: l.Latency, Jitter: l.Jitter,
						Bandwidth: l.Down, Loss: l.Loss,
					})
				}
			}
		}
	}
	return g, containers, nil
}

// Collapsed is the end-to-end mesh of virtual links between every pair of
// reachable containers — Figure 1 (right) — computed on demand: one
// shortest-path tree per source that is asked about, one materialised Path
// per (source, destination) that is asked for. Each Emulation Manager only
// ever needs the part of the topology that affects its local containers
// (§3), and an eager all-pairs mesh would be quadratic in containers.
type Collapsed struct {
	g     *graph.Graph
	cache map[graph.NodeID]*source
	// prev is the generation this one was derived from, changed the links
	// whose properties differ between the two graphs: a source prev holds
	// whose tree no changed link can alter is adopted, and any other
	// source prev holds is repaired instead of rebuilt.
	// Live cuts prev once this generation has a successor of its own, so
	// held snapshots do not chain.
	prev    *Collapsed
	changed []int
	w       *work
}

// source is one source's tree and the paths materialised from it so far.
// Generations for which the tree Holds share it, paths included: they
// cross tree edges only, and no tree edge changed between them.
type source struct {
	tree  graph.Tree
	paths map[graph.NodeID]*graph.Path
}

// work is what every generation of one Live shares: the shortest-path
// scratch memory and the counters of collapse work actually done.
type work struct {
	scratch graph.Scratch
	stats   CollapseStats
}

// CollapseStats counts lazy collapse work: shortest-path trees built, trees
// adopted unchanged from the previous generation, and paths materialised.
// TreesRepaired counts the built trees that were derived from the previous
// generation's tree by Tree.Repair rather than by a full Dijkstra; it is a
// part of TreesBuilt. carried/(built+carried) is the reuse ratio.
// PathsKept counts the paths a rebuilt or repaired source took over from
// the previous generation because they did not move (Tree.Keeps), where it
// would otherwise have materialised them.
type CollapseStats struct {
	TreesBuilt, TreesCarried, TreesRepaired, PathsMaterialized, PathsKept uint64
}

// Collapse prepares the (lazy) collapsed topology of a built graph. The
// graph must not be mutated afterwards; dynamics clone per state.
func Collapse(g *graph.Graph) *Collapsed {
	return &Collapsed{g: g, cache: make(map[graph.NodeID]*source), w: new(work)}
}

// after prepares the collapse of next, a patched clone of c's graph. Only
// the link chunks the patch copied are compared.
func (c *Collapsed) after(next *graph.Graph) *Collapsed {
	n := &Collapsed{g: next, cache: make(map[graph.NodeID]*source, len(c.cache)), prev: c, w: c.w}
	n.changed = next.ChangedLinks(c.g, nil)
	return n
}

// Path returns the collapsed path src->dst, or nil when dst is not a
// service reachable from src. A path asked for before is a lookup and
// allocation-free; anything else goes through miss.
func (c *Collapsed) Path(src, dst graph.NodeID) *graph.Path {
	if s := c.cache[src]; s != nil {
		if p := s.paths[dst]; p != nil {
			return p
		}
	}
	return c.miss(src, dst)
}

// miss is everything Path does beyond a lookup: adopt the previous
// generation's tree for src when it still holds, repair it when it does
// not, or else (a first ask, or a node or link added) run Dijkstra; then
// take the one path asked for over from the previous generation when it
// did not move, or materialise it, and memoise it. Cold by construction —
// once per (source, destination) per topology state at most, never in the
// steady-state emulation loop.
func (c *Collapsed) miss(src, dst graph.NodeID) *graph.Path {
	s := c.cache[src]
	if s == nil {
		if c.prev != nil {
			s = c.prev.cache[src]
		}
		switch {
		case s != nil && s.tree.Holds(c.g, c.changed):
			c.w.stats.TreesCarried++
		case s != nil && c.prev.g.NumNodes() == c.g.NumNodes() && c.prev.g.NumLinks() == c.g.NumLinks():
			s = &source{tree: s.tree.Repair(c.g, c.changed, &c.w.scratch), paths: make(map[graph.NodeID]*graph.Path)}
			c.w.stats.TreesBuilt++
			c.w.stats.TreesRepaired++
		default:
			s = &source{tree: c.g.Tree(src, &c.w.scratch), paths: make(map[graph.NodeID]*graph.Path)}
			c.w.stats.TreesBuilt++
		}
		c.cache[src] = s
	}
	p := s.paths[dst] // an adopted source may hold it already
	if p == nil && dst >= 0 && int(dst) < c.g.NumNodes() && c.g.Node(dst).Kind == graph.Service {
		if p = c.kept(src, dst, s.tree); p != nil {
			c.w.stats.PathsKept++
		} else if p = s.tree.Path(c.g, dst); p != nil {
			c.w.stats.PathsMaterialized++
		}
		if p != nil {
			s.paths[dst] = p
		}
	}
	return p
}

// kept returns the previous generation's path src->dst when t, src's tree
// in this one, still routes it over the same unchanged links, and nil
// otherwise.
func (c *Collapsed) kept(src, dst graph.NodeID, t graph.Tree) *graph.Path {
	if c.prev == nil {
		return nil
	}
	o := c.prev.cache[src]
	if o == nil {
		return nil
	}
	if p := o.paths[dst]; p != nil && t.Keeps(c.g, c.changed, p) {
		return p
	}
	return nil
}

// State is one topology state: the graph and its collapse, valid from At
// until the next event group applies.
type State struct {
	At        time.Duration
	Graph     *graph.Graph
	Collapsed *Collapsed
}

// Live is the incremental topology state machine: a current graph plus
// the tombstone memory that lets join events restore removed links. It
// applies Event patches at any time — pre-registered dynamic events and
// the runtime-mutation path of the public API alike. Each Apply clones the current graph, patches the clone and
// swaps it in with a collapse derived from the current one (see
// Collapsed), so previously returned States stay valid snapshots.
type Live struct {
	st *State
	// gen counts successful mutations. Consumers that cache state-derived
	// lookups (collapsed paths, link capacity tables) key their caches on
	// it instead of re-deriving every emulation period.
	gen     uint64
	removed map[int]removedLink
}

// removedLink is one tombstoned link: its original properties plus the
// outages holding it down, counted per owner ("link:" or "node:"
// prefixed). Every leave adds one hold for its owner — also on links
// already down, so overlapping outages stack, two leaves by the same
// owner included — and every join releases one hold of its own owner;
// the link is restored when no hold remains. Without this provenance,
// one actor's join would resurrect links a concurrent, still-active
// failure intended to keep down — an interleaving the runtime-mutation
// API (Churn over a topology with scheduled failures) makes routine.
type removedLink struct {
	props graph.LinkProps
	holds map[string]int
}

func (rl removedLink) clone() removedLink {
	holds := make(map[string]int, len(rl.holds))
	for o, n := range rl.holds {
		holds[o] = n
	}
	return removedLink{props: rl.props, holds: holds}
}

func linkOwner(orig, dest string) string { return "link:" + orig + "|" + dest }
func nodeOwner(name string) string       { return "node:" + name }

// hold adds one hold by owner on link li, taking the link down if it is
// live.
func hold(g *graph.Graph, removed map[int]removedLink, li int, owner string) {
	if !g.LinkRemoved(li) {
		removed[li] = removedLink{g.Link(li).LinkProps, map[string]int{owner: 1}}
		g.RemoveLink(li)
	} else if rl, ok := removed[li]; ok {
		rl.holds[owner]++
	}
}

// release drops one hold by owner on tombstoned link li — none when the
// owner holds none — and restores the link once no hold remains.
func release(g *graph.Graph, removed map[int]removedLink, li int, owner string) {
	rl := removed[li]
	switch n := rl.holds[owner]; {
	case n == 0:
		return
	case n > 1:
		rl.holds[owner] = n - 1
		return
	}
	delete(rl.holds, owner)
	if len(rl.holds) == 0 {
		g.SetLinkProps(li, rl.props)
		delete(removed, li)
	}
}

// NewLive starts the state machine at the given (built) graph, time 0.
func NewLive(g *graph.Graph) *Live {
	return &Live{
		st:      &State{At: 0, Graph: g, Collapsed: Collapse(g)},
		gen:     1,
		removed: make(map[int]removedLink),
	}
}

// Gen returns the live topology's mutation generation: 1 at creation,
// incremented by every successful Apply/ApplyIf. A cache built at
// generation g is valid exactly while Gen() == g.
func (l *Live) Gen() uint64 { return l.gen }

// CollapseStats returns the collapse work done so far on behalf of every
// state this Live has produced.
func (l *Live) CollapseStats() CollapseStats { return l.st.Collapsed.w.stats }

// State returns the current state. Apply installs a fresh State rather
// than mutating the returned one, so callers may hold it as a snapshot.
func (l *Live) State() *State { return l.st }

// Apply atomically applies a group of simultaneous events at time at:
// either every event applies and the current state advances, or the
// error is returned and the state is untouched. Events grouped into one
// Apply produce a single state; SortAndGroup groups events at identical
// timestamps that way.
func (l *Live) Apply(at time.Duration, evs ...Event) error {
	return l.ApplyIf(at, nil, evs...)
}

// ApplyIf is Apply with an invariant check on the candidate state,
// evaluated before the state machine advances: if check returns an
// error, the current state, tombstones and counters are untouched. The
// runtime uses it to veto event groups whose result it could not
// operate on (e.g. outgrowing the metadata link-id space).
func (l *Live) ApplyIf(at time.Duration, check func(*State) error, evs ...Event) error {
	if len(evs) == 0 {
		return nil
	}
	next := l.st.Graph.Clone()
	removed := make(map[int]removedLink, len(l.removed))
	for k, v := range l.removed {
		removed[k] = v.clone()
	}
	for _, e := range evs {
		if err := applyEvent(next, e, removed); err != nil {
			return err
		}
	}
	st := &State{At: at, Graph: next, Collapsed: l.st.Collapsed.after(next)}
	if check != nil {
		if err := check(st); err != nil {
			return err
		}
	}
	l.st.Collapsed.prev, l.st.Collapsed.changed = nil, nil
	l.st = st
	l.gen++
	l.removed = removed
	return nil
}

// SortAndGroup orders events by time (stable, so same-time events keep
// their registration order) and splits them into same-timestamp groups.
func SortAndGroup(evs []Event) [][]Event {
	sorted := append([]Event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	var groups [][]Event
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].At == sorted[i].At {
			j++
		}
		groups = append(groups, sorted[i:j])
		i = j
	}
	return groups
}

// DryRun verifies that evs would apply cleanly in timestamp order
// against g, returning the final state (so callers can also validate
// invariants of the end result, e.g. the runtime's link-id-space bound).
// It is how deploy-time code validates pre-registered events before the
// experiment starts, without paying for path computation. g itself is
// never mutated: Apply patches clones.
func DryRun(g *graph.Graph, evs []Event) (*State, error) {
	live := NewLive(g)
	for _, group := range SortAndGroup(evs) {
		if err := live.Apply(group[0].At, group...); err != nil {
			return nil, err
		}
	}
	return live.State(), nil
}

// props returns a declared link's properties as a patch that sets them
// all, so that a declaration and a SetLink event are held to one rule
// (check). A unidirectional link has no download bandwidth to check.
func (l LinkDef) props() LinkPatch {
	p := LinkPatch{Latency: &l.Latency, Jitter: &l.Jitter, Up: &l.Up, Loss: &l.Loss}
	if !l.Unidirectional {
		p.Down = &l.Down
	}
	return p
}

// check rejects patch values no link can carry. Bandwidth in particular
// must stay positive — a negative one is the graph's tombstone sentinel,
// and would take the link down with no tombstone to bring it back — and
// shortest paths assume non-negative latencies.
func (p LinkPatch) check() error {
	switch {
	case p.Latency != nil && *p.Latency < 0:
		return fmt.Errorf("negative latency %v", *p.Latency)
	case p.Jitter != nil && *p.Jitter < 0:
		return fmt.Errorf("negative jitter %v", *p.Jitter)
	case p.Up != nil && *p.Up <= 0:
		return fmt.Errorf("non-positive upload bandwidth %v", *p.Up)
	case p.Down != nil && *p.Down <= 0:
		return fmt.Errorf("non-positive download bandwidth %v", *p.Down)
	case p.Loss != nil && !(*p.Loss >= 0 && *p.Loss <= 1):
		return fmt.Errorf("loss %v outside [0,1]", float64(*p.Loss))
	}
	return nil
}

func applyEvent(g *graph.Graph, e Event, removed map[int]removedLink) error {
	if e.Kind == EvSetLink || e.Kind == EvLinkJoin {
		if err := e.Props.check(); err != nil {
			return fmt.Errorf("topology: event %v %s->%s: %v", e.Kind, e.Orig, e.Dest, err)
		}
	}
	switch e.Kind {
	case EvSetLink:
		// Patch live links in place; a link currently down keeps its
		// patched properties in the tombstone, so it comes back changed.
		ids := linksBetween(g, e.Orig, e.Dest)
		down := tombstonedBetween(g, removed, e.Orig, e.Dest)
		if len(ids) == 0 && len(down) == 0 {
			return fmt.Errorf("topology: event %v: no link %s->%s", e.Kind, e.Orig, e.Dest)
		}
		for _, pair := range ids {
			patchLink(g, pair.fwd, e.Props, true)
			if pair.rev >= 0 {
				patchLink(g, pair.rev, e.Props, false)
			}
		}
		for _, li := range down {
			rl := removed[li]
			rl.props = patchProps(rl.props, e.Props, nameMatches(names(g, g.Link(li).From), e.Orig))
			removed[li] = rl
		}
	case EvLinkLeave:
		// Take live links down under this event's ownership; links
		// already down (by a node-leave, say) gain a hold, so overlapping
		// outages stack instead of erroring — Churn over scheduled link
		// failures hits this interleaving.
		owner := linkOwner(e.Orig, e.Dest)
		ids := linksBetween(g, e.Orig, e.Dest)
		down := tombstonedBetween(g, removed, e.Orig, e.Dest)
		if len(ids) == 0 && len(down) == 0 {
			return fmt.Errorf("topology: link-leave: no link %s->%s", e.Orig, e.Dest)
		}
		for _, pair := range ids {
			hold(g, removed, pair.fwd, owner)
			if pair.rev >= 0 {
				hold(g, removed, pair.rev, owner)
			}
		}
		for _, li := range down {
			hold(g, removed, li, owner)
		}
	case EvLinkJoin:
		// Release one of this event's holds on tombstoned links between
		// the endpoints; each is restored (with its stored, patched
		// props) once no other outage still holds it. With no tombstones
		// at all, add a fresh pair with the patch properties.
		owner := linkOwner(e.Orig, e.Dest)
		tomb := tombstonedBetween(g, removed, e.Orig, e.Dest)
		if len(tomb) > 0 {
			for _, li := range tomb {
				rl := removed[li]
				rl.props = patchProps(rl.props, e.Props, nameMatches(names(g, g.Link(li).From), e.Orig))
				removed[li] = rl
				release(g, removed, li, owner)
			}
			break
		}
		a, ok1 := g.Lookup(e.Orig)
		b, ok2 := g.Lookup(e.Dest)
		if !ok1 || !ok2 {
			return fmt.Errorf("topology: link-join references unknown endpoints %s->%s", e.Orig, e.Dest)
		}
		var lp graph.LinkProps
		fwd := g.AddLink(a, b, lp)
		rev := g.AddLink(b, a, lp)
		patchLink(g, fwd, e.Props, true)
		patchLink(g, rev, e.Props, false)
	case EvNodeLeave, EvNodeJoin:
		// Every link touching the node gains (leave) or releases (join)
		// one hold. Leaves of the same name stack: when two actors took
		// the node down (scheduled NodeDown plus churn, say), the first
		// join only drops one hold — the node's links come back with the
		// last join, so neither actor's outage ends early. Links down for
		// someone else's reasons only stay down. (Leave/join must use the
		// same declared name to pair.)
		ids := expandNodeName(g, e.Name)
		if len(ids) == 0 {
			return fmt.Errorf("topology: %v of unknown %q", e.Kind, e.Name)
		}
		owner := nodeOwner(e.Name)
		for li := 0; li < g.NumLinks(); li++ {
			if !touches(g.Link(li), ids) {
				continue
			}
			if e.Kind == EvNodeLeave {
				hold(g, removed, li, owner)
			} else if _, down := removed[li]; down {
				release(g, removed, li, owner)
			}
		}
	}
	return nil
}

// touches reports whether link l starts or ends at one of ids.
func touches(l graph.Link, ids []graph.NodeID) bool {
	for _, id := range ids {
		if l.From == id || l.To == id {
			return true
		}
	}
	return false
}

// tombstonedBetween returns the tombstoned link ids between two declared
// endpoints, in either direction (replica names expand by prefix, like
// linksBetween).
func tombstonedBetween(g *graph.Graph, removed map[int]removedLink, orig, dest string) []int {
	var out []int
	for li := range removed {
		l := g.Link(li)
		from, to := names(g, l.From), names(g, l.To)
		if nameMatches(from, orig) && nameMatches(to, dest) ||
			nameMatches(from, dest) && nameMatches(to, orig) {
			out = append(out, li)
		}
	}
	sort.Ints(out)
	return out
}

// expandNodeName resolves a declared name to graph nodes: an exact match,
// or all replica nodes "name-i" of a replicated service.
func expandNodeName(g *graph.Graph, name string) []graph.NodeID {
	if id, ok := g.Lookup(name); ok {
		return []graph.NodeID{id}
	}
	var out []graph.NodeID
	prefix := name + "-"
	for _, n := range g.Nodes() {
		if len(n.Name) > len(prefix) && n.Name[:len(prefix)] == prefix {
			out = append(out, n.ID)
		}
	}
	return out
}

func names(g *graph.Graph, id graph.NodeID) string { return g.Node(id).Name }

type linkPair struct{ fwd, rev int }

// nameMatches reports whether a graph node name matches a declared name:
// exact, or replica expansion ("sv-0" matches "sv").
func nameMatches(nodeName, declared string) bool {
	if nodeName == declared {
		return true
	}
	return len(nodeName) > len(declared) &&
		nodeName[:len(declared)] == declared && nodeName[len(declared)] == '-'
}

// linksBetween finds live link ids orig->dest (fwd) and dest->orig (rev),
// in ascending order of fwd. Service names expand to their replicas'
// nodes by prefix match. Each forward link is paired with the first live
// link back along it, in id order, that no earlier pair took; a forward
// link an earlier pair took as its reverse is skipped.
//
// No link is scanned by name: orig is resolved by one pass over the nodes,
// the forward links are those nodes' out-links whose head dest matches,
// and a reverse link is an out-link of the head. The pass uses
// nameMatches, not expandNodeName, which would let an exact name hide its
// replica-named siblings.
func linksBetween(g *graph.Graph, orig, dest string) []linkPair {
	var buf [8]int
	fwd := buf[:0]
	for _, n := range g.Nodes() {
		if !nameMatches(n.Name, orig) {
			continue
		}
		for _, li := range g.OutLinks(n.ID) {
			if !g.LinkRemoved(li) && nameMatches(names(g, g.Link(li).To), dest) {
				fwd = append(fwd, li)
			}
		}
	}
	slices.Sort(fwd)
	var out []linkPair
	used := make(map[int]bool)
	for _, li := range fwd {
		if used[li] {
			continue
		}
		l := g.Link(li)
		pair := linkPair{fwd: li, rev: -1}
		for _, rj := range g.OutLinks(l.To) {
			if rj != li && !g.LinkRemoved(rj) && !used[rj] && g.Link(rj).To == l.From {
				pair.rev = rj
				used[rj] = true
				break
			}
		}
		used[li] = true
		out = append(out, pair)
	}
	return out
}

// patchProps applies the non-nil patch fields; forward links take Up,
// reverse links take Down.
func patchProps(lp graph.LinkProps, p LinkPatch, forward bool) graph.LinkProps {
	if p.Latency != nil {
		lp.Latency = *p.Latency
	}
	if p.Jitter != nil {
		lp.Jitter = *p.Jitter
	}
	if p.Loss != nil {
		lp.Loss = *p.Loss
	}
	if forward && p.Up != nil {
		lp.Bandwidth = *p.Up
	}
	if !forward && p.Down != nil {
		lp.Bandwidth = *p.Down
	}
	if !forward && p.Down == nil && p.Up != nil {
		lp.Bandwidth = *p.Up
	}
	return lp
}

// patchLink is patchProps applied to a live link in place.
func patchLink(g *graph.Graph, id int, p LinkPatch, forward bool) {
	g.SetLinkProps(id, patchProps(g.Link(id).LinkProps, p, forward))
}
