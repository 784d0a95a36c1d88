// The Kollaps runtime: containers, hosts, Emulation Managers and the
// emulation loop of §3/§4.1. One Manager runs per physical host; it spawns
// an Emulation Core per local container, polls each container's TCAL for
// bandwidth usage, disseminates the aggregate to peer Managers through the
// metadata driver, recomputes the RTT-aware min-max allocation, and
// enforces it through htb rates and injected netem loss.
package core

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/dissem"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcal"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
)

// Options tune the runtime.
type Options struct {
	// Period is the emulation loop interval (default 50 ms — the
	// released artifact's value; it bounds the shortest flows Kollaps
	// can shape, §6).
	Period time.Duration
	// Dissem selects and tunes the metadata-dissemination strategy
	// (default: the paper's full-mesh broadcast). NumHosts and Wide are
	// filled in at deployment.
	Dissem dissem.Config
	// Tracer, when non-nil, records the deployment's flight-recorder
	// events (solver passes, dissemination publish/receive, TCAL
	// enforcement, topology mutations, manager kills, failure-detector
	// transitions) keyed on virtual time. nil disables tracing; every
	// hook is a nil-safe no-op, so the emulation loop pays one inlined
	// nil check per hook and stays allocation-free either way.
	Tracer *obs.Tracer
	// Probe, when non-nil, samples emulation accuracy: every Probe.Every
	// periods (offset to mid-period, after every Manager's loop has run)
	// the runtime re-solves the global demand set with a fresh AllocState
	// and records the enforced-vs-oracle share deviation.
	Probe *obs.Probe
}

func (o *Options) defaults() {
	if o.Period <= 0 {
		o.Period = 50 * time.Millisecond
	}
}

const (
	// activeThreshold is the usage rate below which a flow is considered
	// idle.
	activeThreshold = 10 * units.Kbps
	// demandHeadroom multiplies observed usage to form the demand
	// estimate handed to the sharing model, letting growing flows claim
	// more every period.
	demandHeadroom = 2.0
	// metadataPort is the UDP port Managers exchange metadata on.
	metadataPort = 7946
)

// Container is one deployed application container: an IP on the physical
// cluster, a transport stack for its application, and a TCAL shaping its
// egress to every destination.
//
// A Container keeps no copy of its shaping state. The TCAL owns what is
// enforced toward each destination (its qdiscs hold the rate, delay,
// jitter and loss, read back with TCAL().Props), and the runtime's
// collapsed topology owns the path toward it (Runtime.State().Collapsed).
type Container struct {
	Name string
	IP   packet.IP
	Host int
	Node graph.NodeID // node in the emulated topology
	// Stack is the container's transport endpoint; applications Listen
	// and Dial on it.
	Stack *transport.Stack

	tcal *tcal.TCAL
	rt   *Runtime
}

// TCAL exposes the container's shaping layer (tests, experiments).
func (c *Container) TCAL() *tcal.TCAL { return c.tcal }

// Runtime is one Kollaps deployment: the emulated topology as a live
// incremental state machine, the physical cluster, the containers and one
// Emulation Manager per host. Topology changes — pre-registered dynamic
// events and runtime mutations alike — are Event patches applied to the
// live graph on the fly; there is no precomputed state sequence.
type Runtime struct {
	Eng     *sim.Engine
	Cluster *fabric.Network

	live *topology.Live
	wide bool
	// caps is the dense per-link capacity table every Manager hands the
	// allocator, and lats the per-link latencies Managers price remote
	// paths with, both built for topology generation tablesGen (0: never).
	// capsVer is the capacity table's content version: it moves only
	// when a rebuild changed the table's length or some link's capacity,
	// so a latency change leaves it alone. Managers read the tables and
	// never write them.
	caps      []float64
	lats      []time.Duration
	tablesGen uint64
	capsVer   uint64

	// pending holds events registered before Start; Start sorts them,
	// groups same-timestamp events into one atomic application
	// (topology.SortAndGroup) and arms one engine timer per group.
	pending []topology.Event
	evErr   error

	containers []*Container
	byName     map[string]*Container
	byIP       map[packet.IP]*Container

	managers []*Manager
	opts     Options
	started  bool

	// reg holds the deployment's metrics: solver counters per Manager,
	// per-strategy dissemination counters, manager liveness and
	// topology-generation gauges. Every deployment has one: gauges read
	// live state lazily, and hot-path counters are resolved to pointers
	// at deployment, so the loop never touches the registry's maps.
	reg *obs.Registry

	// chaos interposes on every metadata datagram between
	// managerTransport.SendTo and the fabric. It is always present but
	// transparent (and randomness-free) until an experiment arms it, so
	// pre-chaos deployments replay unchanged.
	chaos *chaos.Injector
}

// containerNet adapts a container's egress to its TCAL and its ingress to
// the cluster fabric endpoint.
type containerNet struct {
	rt *Runtime
	c  *Container
}

func (n containerNet) Send(p *packet.Packet) {
	p.AssertLive("core: container Send")
	if n.c.tcal.Shape(p) {
		return
	}
	// Lazy path installation: Emulation Cores only materialize the part
	// of the collapsed mesh their container talks to (§3). A destination
	// that gets no chain (unknown or unreachable) is the TCAL's to drop
	// and count.
	n.rt.point(n.c, p.Dst)
	n.c.tcal.Send(p)
}

func (n containerNet) Register(ip packet.IP, h packet.Handler) {
	n.rt.Cluster.Register(ip, h)
}

// Writable and NotifyWritable forward the container's TSQ backpressure to
// its TCAL (packet.FlowControl). The source is always this container.
func (n containerNet) Writable(src, dst packet.IP, b int) bool {
	return n.c.tcal.Writable(dst, b)
}

func (n containerNet) NotifyWritable(src, dst packet.IP, fn func()) {
	n.c.tcal.NotifyWritable(dst, fn)
}

// The address plan: container i placed on host h is 10.(h+1).(i/250).(i%250)
// and host h's Emulation Manager is 10.255.0.h. Past these limits an octet
// would wrap or a container would land in the managers' subnet.
const (
	MaxHosts      = 254
	MaxContainers = 64000
)

// NewRuntime deploys a built topology graph over a cluster of nHosts
// physical machines (40 GbE star, as in the paper's testbed). Containers
// are placed round-robin unless placement maps a container name to a host
// index. Dynamic behaviour is added separately: register events with
// ScheduleEvents (or use NewRuntimeFromTopology, which pre-registers the
// description's dynamic: events).
func NewRuntime(eng *sim.Engine, g *graph.Graph, nHosts int, placement map[string]int, opts Options) (*Runtime, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil topology graph")
	}
	if nHosts < 1 {
		return nil, fmt.Errorf("core: need at least one host")
	}
	if nHosts > MaxHosts {
		return nil, fmt.Errorf("core: %d hosts exceed the address plan's limit of %d", nHosts, MaxHosts)
	}
	if n := len(g.Services()); n > MaxContainers {
		return nil, fmt.Errorf("core: %d service containers exceed the address plan's limit of %d", n, MaxContainers)
	}
	opts.defaults()
	cluster, hostNodes := fabric.Star(eng, nHosts, 40*units.Gbps, 15*time.Microsecond)
	rt := &Runtime{
		Eng:     eng,
		Cluster: cluster,
		live:    topology.NewLive(g),
		wide:    metadata.Wide(g.NumLinks()),
		byName:  make(map[string]*Container),
		byIP:    make(map[packet.IP]*Container),
		opts:    opts,
		chaos:   chaos.NewInjector(opts.Dissem.Seed, opts.Tracer),
		reg:     obs.NewRegistry(),
	}

	idx := 0
	for _, node := range g.Nodes() {
		if node.Kind != graph.Service {
			continue
		}
		host := idx % nHosts
		if placement != nil {
			if h, ok := placement[node.Name]; ok {
				if h < 0 || h >= nHosts {
					return nil, fmt.Errorf("core: placement of %q on invalid host %d", node.Name, h)
				}
				host = h
			}
		}
		ip := packet.MakeIP(byte(host+1), byte(idx/250), byte(idx%250))
		c := &Container{
			Name: node.Name,
			IP:   ip,
			Host: host,
			Node: node.ID,
			rt:   rt,
		}
		// Attach the container endpoint at its host's fabric node; the
		// stack registers its handler through containerNet.
		cluster.AttachEndpoint(hostNodes[host], ip, nil)
		c.tcal = tcal.New(eng, cluster.Send)
		c.Stack = transport.NewStack(eng, containerNet{rt: rt, c: c}, ip)
		rt.containers = append(rt.containers, c)
		rt.byName[node.Name] = c
		rt.byIP[ip] = c
		idx++
	}

	// One Emulation Manager per host, with a metadata endpoint on the
	// cluster fabric.
	emIPs := make([]packet.IP, nHosts)
	for h := 0; h < nHosts; h++ {
		emIPs[h] = packet.IP{10, 255, 0, byte(h)}
		cluster.AttachEndpoint(hostNodes[h], emIPs[h], nil)
	}
	for h := 0; h < nHosts; h++ {
		m, err := newManager(rt, h, emIPs)
		if err != nil {
			return nil, err
		}
		rt.managers = append(rt.managers, m)
	}
	for _, c := range rt.containers {
		rt.managers[c.Host].locals = append(rt.managers[c.Host].locals, c)
	}
	rt.registerMetrics()
	return rt, nil
}

// NewRuntimeFromTopology builds the experiment description's graph,
// deploys it, and pre-registers its dynamic events.
func NewRuntimeFromTopology(eng *sim.Engine, top *topology.Topology, nHosts int, placement map[string]int, opts Options) (*Runtime, error) {
	if top == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	g, _, err := top.Build()
	if err != nil {
		return nil, err
	}
	rt, err := NewRuntime(eng, g, nHosts, placement, opts)
	if err != nil {
		return nil, err
	}
	if err := rt.ScheduleEvents(top.Events...); err != nil {
		return nil, err
	}
	return rt, nil
}

// Container returns the deployed container by topology node name.
func (rt *Runtime) Container(name string) (*Container, bool) {
	c, ok := rt.byName[name]
	return c, ok
}

// Containers returns all deployed containers in topology order.
func (rt *Runtime) Containers() []*Container { return rt.containers }

// Managers returns the per-host Emulation Managers.
func (rt *Runtime) Managers() []*Manager { return rt.managers }

// State returns the currently active topology state.
func (rt *Runtime) State() *topology.State { return rt.live.State() }

// Start launches the Emulation Managers' loops and arms timers for the
// pre-registered dynamic events. Call once before Engine.Run.
func (rt *Runtime) Start() {
	if rt.started {
		return
	}
	rt.started = true
	for _, m := range rt.managers {
		m.start()
	}
	rt.startProbe()
	pending := rt.pending
	rt.pending = nil
	rt.schedule(pending)
}

// ScheduleEvents registers topology events to apply at their absolute
// virtual times. Before Start, events accumulate (and are dry-run
// validated, so a bad pre-registered scenario fails at deploy time, like
// the old offline precompute did); after Start, each call's events are
// armed immediately and same-timestamp events within one call apply
// atomically as one group. Scheduling in the virtual past is an error.
func (rt *Runtime) ScheduleEvents(evs ...topology.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if !rt.started {
		all := append(append([]topology.Event(nil), rt.pending...), evs...)
		final, err := topology.DryRun(rt.live.State().Graph, all)
		if err != nil {
			return err
		}
		// Same veto applyGroup enforces at fire time, moved to deploy
		// time for pre-registered events: fresh link-joins must not
		// outgrow the 1-byte link-id space fixed by the initial graph.
		if !rt.wide && metadata.Wide(final.Graph.NumLinks()) {
			return fmt.Errorf("core: pre-registered link-joins grow the topology to %d links, past the 1-byte link-id space the initial graph fixes; declare the links in the topology instead", final.Graph.NumLinks())
		}
		rt.pending = all
		return nil
	}
	now := rt.Eng.Now()
	for _, e := range evs {
		if e.At < now {
			return fmt.Errorf("core: event %v at %v scheduled in the past (now %v)", e.Kind, e.At, now)
		}
	}
	rt.schedule(evs)
	return nil
}

// ApplyEvents applies events to the live topology at the current virtual
// time, atomically: either all apply or none. It is the immediate-mutation
// path of the public API and requires a started runtime.
func (rt *Runtime) ApplyEvents(evs ...topology.Event) error {
	if !rt.started {
		return fmt.Errorf("core: ApplyEvents before Start")
	}
	return rt.applyGroup(evs)
}

// EventError returns the first error a scheduled event produced when it
// fired (nil when every application succeeded so far). Scheduled events
// run inside engine timers, where there is no caller to hand the error
// to; the experiment surfaces it after Run.
func (rt *Runtime) EventError() error { return rt.evErr }

// schedule arms one engine timer per same-timestamp group.
func (rt *Runtime) schedule(evs []topology.Event) {
	for _, group := range topology.SortAndGroup(evs) {
		group := group
		rt.Eng.At(group[0].At, func() {
			if err := rt.applyGroup(group); err != nil && rt.evErr == nil {
				rt.evErr = err
			}
		})
	}
}

// applyGroup advances the live topology by one event group and re-points
// every installed TCAL chain at the new collapsed paths (or removes the
// chain when its destination became unreachable).
func (rt *Runtime) applyGroup(evs []topology.Event) error {
	// The metadata wire encoding's link-id width was fixed at deploy from
	// the initial graph; a link-join that creates *fresh* links (instead
	// of restoring tombstones) can push ids past the narrow 1-byte space,
	// which would silently wrap on the wire and corrupt every manager's
	// view. Veto such groups before the state advances — declare the
	// links up front (they can start removed via an event at t=0) so
	// deploy sizes the id space.
	err := rt.live.ApplyIf(rt.Eng.Now(), func(st *topology.State) error {
		if !rt.wide && metadata.Wide(st.Graph.NumLinks()) {
			return fmt.Errorf("core: runtime link-join grew the topology to %d links, past the 1-byte link-id space fixed at deploy; declare the links in the topology instead", st.Graph.NumLinks())
		}
		return nil
	}, evs...)
	if err != nil {
		return err
	}
	if tr := rt.opts.Tracer; tr != nil {
		now := rt.Eng.Now()
		for _, e := range evs {
			var kind obs.Kind
			switch e.Kind {
			case topology.EvSetLink:
				kind = obs.KindLinkSet
			case topology.EvLinkLeave:
				kind = obs.KindLinkFail
			case topology.EvLinkJoin:
				kind = obs.KindLinkHeal
			case topology.EvNodeLeave:
				kind = obs.KindNodeLeave
			default:
				kind = obs.KindNodeJoin
			}
			if kind == obs.KindNodeLeave || kind == obs.KindNodeJoin {
				tr.Record(now, kind, -1, obs.PackName(e.Name), 0)
			} else {
				tr.Record(now, kind, -1, obs.PackName(e.Orig), obs.PackName(e.Dest))
			}
		}
	}
	for _, c := range rt.containers {
		for _, dstIP := range c.tcal.Destinations() {
			rt.point(c, dstIP)
		}
	}
	return nil
}

// linkCaps returns the dense per-link capacity table for the current
// topology generation, with its content version: equal versions mean
// equal tables, whatever moved in between. Link capacities only move
// when the live topology mutates, so the table is built once per
// generation for the whole deployment, not per period or per Manager.
// Tombstoned links keep their negative sentinel: the allocator prices
// them as zero-capacity constraints, exactly like the seed's map build.
func (rt *Runtime) linkCaps() ([]float64, uint64) {
	rt.linkTables()
	return rt.caps, rt.capsVer
}

// linkLats returns the dense per-link latency table for the current
// topology generation, and the generation: every Manager sums it over
// the links of every remote path it prices, which a flat table serves
// faster than the graph's chunked link table.
func (rt *Runtime) linkLats() ([]time.Duration, uint64) {
	rt.linkTables()
	return rt.lats, rt.tablesGen
}

// linkTables builds caps and lats for the current generation, once, and
// bumps capsVer when the capacities it wrote differ from the last ones.
func (rt *Runtime) linkTables() {
	gen := rt.live.Gen()
	if rt.tablesGen == gen {
		return
	}
	g := rt.State().Graph
	n := g.NumLinks()
	changed := rt.capsVer == 0 || n != len(rt.caps)
	rt.caps, rt.lats = grow(rt.caps, n), grow(rt.lats, n)
	caps, lats := rt.caps, rt.lats[:len(rt.caps)]
	for l := range caps {
		link := g.Link(l)
		if c := float64(link.Bandwidth); caps[l] != c {
			caps[l], changed = c, true
		}
		lats[l] = link.Latency
	}
	if changed {
		rt.capsVer++
	}
	rt.tablesGen = gen
}

// path returns the collapsed path from container c toward dstIP under
// the current topology state, or nil when dstIP is no container or is
// unreachable. It caches nothing itself: the collapse memoises every
// (source, destination) pair it has resolved, and a topology event
// installs a new collapse.
func (rt *Runtime) path(c *Container, dstIP packet.IP) *graph.Path {
	dst, ok := rt.byIP[dstIP]
	if !ok {
		return nil
	}
	return rt.live.State().Collapsed.Path(c.Node, dst.Node)
}

// point makes container c's TCAL chain toward dstIP carry the collapsed
// path under the current topology state: installed on a first send,
// changed in place (counters, backlog and parked senders kept) after a
// topology event, and removed when the destination is unknown or
// unreachable.
func (rt *Runtime) point(c *Container, dstIP packet.IP) {
	p := rt.path(c, dstIP)
	if p == nil {
		c.tcal.RemovePath(dstIP)
		return
	}
	if err := c.tcal.InstallPath(dstIP, p.LinkProps); err != nil {
		// The address plan gives every container distinct last two
		// octets, so only a bug reaches here.
		panic(fmt.Sprintf("core: %v", err))
	}
}

// KillManager kills host's Emulation Manager: its emulation loop stops,
// its Publish is muted, and its control datagrams are dropped both ways.
// The host's containers keep running — only the control plane died, so
// traffic continues under the last enforced allocations while peers
// detect the silence and route around it. Killing an already-dead
// manager is an error.
func (rt *Runtime) KillManager(host int) error {
	if host < 0 || host >= len(rt.managers) {
		return fmt.Errorf("core: KillManager(%d): host out of range [0,%d)", host, len(rt.managers))
	}
	m := rt.managers[host]
	if m.dead {
		return fmt.Errorf("core: KillManager(%d): manager already dead", host)
	}
	m.dead = true
	m.kills++
	rt.opts.Tracer.Record(rt.Eng.Now(), obs.KindManagerKill, int32(host), 0, 0)
	return nil
}

// RestartManager revives a killed Emulation Manager as a fresh process:
// its dissemination endpoint is rebuilt from scratch (no peer views, no
// ack baselines, no suspicions), so recovery exercises the strategies'
// re-admission paths, not warm in-memory state. Restarting a live
// manager is an error.
func (rt *Runtime) RestartManager(host int) error {
	if host < 0 || host >= len(rt.managers) {
		return fmt.Errorf("core: RestartManager(%d): host out of range [0,%d)", host, len(rt.managers))
	}
	m := rt.managers[host]
	if !m.dead {
		return fmt.Errorf("core: RestartManager(%d): manager is not dead", host)
	}
	old := m.node.Stats()
	if err := m.newNode(); err != nil {
		return err
	}
	// Control-plane counters are deployment observability, not process
	// state: keep them monotonic across restarts so experiments that
	// subtract warmup snapshots (bytes/period, staleness) stay valid.
	// Field-wise adoption, not a struct copy — the counters are atomics.
	m.node.Stats().AdoptFrom(old)
	// The TCAL usage counters are drained on read by the emulation loop,
	// which stopped polling while dead: drain them now, or the first
	// live pass would read the whole outage's traffic as one period's
	// rate and publish demands inflated by a factor of the downtime.
	for _, c := range m.locals {
		for _, dst := range c.tcal.Destinations() {
			c.tcal.Poll(dst)
		}
	}
	m.dead = false
	rt.opts.Tracer.Record(rt.Eng.Now(), obs.KindManagerRestart, int32(host), 0, 0)
	return nil
}

// ManagerDown reports whether host's Emulation Manager is currently
// killed. Out-of-range hosts report false.
func (rt *Runtime) ManagerDown(host int) bool {
	return host >= 0 && host < len(rt.managers) && rt.managers[host].dead
}

// ManagerKills returns how many times host's Emulation Manager has been
// killed — a generation token: automation that kills a manager and
// schedules its restart compares it at restart time, so it only revives
// its *own* kill and never silently undoes a later one by another actor.
func (rt *Runtime) ManagerKills(host int) int {
	if host < 0 || host >= len(rt.managers) {
		return 0
	}
	return rt.managers[host].kills
}

// MetadataTraffic sums the metadata bytes sent and received across all
// Managers — the quantity Figures 3 and 4 report.
func (rt *Runtime) MetadataTraffic() (sent, received int64) {
	for _, m := range rt.managers {
		s := m.node.Stats()
		sent += s.BytesSent.Value()
		received += s.BytesRecv.Value()
	}
	return sent, received
}

// DissemStats returns every Manager's dissemination counters; fold them
// with dissem.Summarize for deployment-wide totals.
func (rt *Runtime) DissemStats() []*dissem.Stats {
	out := make([]*dissem.Stats, len(rt.managers))
	for i, m := range rt.managers {
		out[i] = m.node.Stats()
	}
	return out
}

// TopologyGen returns the live topology's generation counter: 1 at
// deploy, +1 per applied event group. The number of topology changes
// applied so far is therefore TopologyGen()-1.
func (rt *Runtime) TopologyGen() uint64 { return rt.live.Gen() }

// Tracer returns the deployment's flight recorder (nil when tracing is
// disabled).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.opts.Tracer }

// Chaos returns the deployment's control-plane fault injector. It is
// never nil: an unarmed injector is a transparent passthrough.
func (rt *Runtime) Chaos() *chaos.Injector { return rt.chaos }

// Metrics returns the deployment's metrics registry.
func (rt *Runtime) Metrics() *obs.Registry { return rt.reg }

// AccuracyProbe returns the deployment's accuracy probe (nil when none
// was configured).
func (rt *Runtime) AccuracyProbe() *obs.Probe { return rt.opts.Probe }

// registerMetrics publishes the deployment's observable state in the
// metrics registry: per-manager dissemination and liveness gauges (the
// gauge closures read through the Manager, so a restart's fresh node is
// picked up automatically) and deployment-level topology/time gauges.
// Solver counters are registered by each Manager itself, which keeps the
// returned pointers on its hot path.
func (rt *Runtime) registerMetrics() {
	reg := rt.reg
	reg.Gauge("kollaps_topology_generation", func() float64 { return float64(rt.live.Gen()) })
	// What following the topology costs: trees built, trees a generation
	// adopted unchanged from the one before, the built trees that were
	// repaired from the one before rather than run from scratch, paths
	// materialised, and paths a rebuilt tree took over from the one before
	// because they did not move. carried/(built+carried) is the reuse
	// ratio across events.
	reg.Gauge("kollaps_topology_trees_built_total", func() float64 { return float64(rt.live.CollapseStats().TreesBuilt) })
	reg.Gauge("kollaps_topology_trees_carried_total", func() float64 { return float64(rt.live.CollapseStats().TreesCarried) })
	reg.Gauge("kollaps_topology_trees_repaired_total", func() float64 { return float64(rt.live.CollapseStats().TreesRepaired) })
	reg.Gauge("kollaps_topology_paths_materialized_total", func() float64 { return float64(rt.live.CollapseStats().PathsMaterialized) })
	reg.Gauge("kollaps_topology_paths_kept_total", func() float64 { return float64(rt.live.CollapseStats().PathsKept) })
	reg.Gauge("kollaps_virtual_time_seconds", func() float64 { return rt.Eng.Now().Seconds() })
	reg.Gauge("kollaps_hosts", func() float64 { return float64(len(rt.managers)) })
	reg.Gauge("kollaps_containers", func() float64 { return float64(len(rt.containers)) })
	strategy := rt.opts.Dissem.Kind.String()
	for _, m := range rt.managers {
		m := m
		labels := fmt.Sprintf(`host="%d",strategy="%s"`, m.host, strategy)
		gauge := func(name, extra string, read func(*dissem.Stats) float64) {
			full := "kollaps_dissem_" + name + "{" + labels + extra + "}"
			reg.Gauge(full, func() float64 { return read(m.node.Stats()) })
		}
		for _, c := range dissem.Counters {
			c := c
			gauge(c.Name, "", func(s *dissem.Stats) float64 { return float64(c.Of(s).Value()) })
		}
		gauge("staleness_ms", `,quantile="0.5"`, func(s *dissem.Stats) float64 { return s.Staleness.Percentile(50) })
		gauge("staleness_ms", `,quantile="0.99"`, func(s *dissem.Stats) float64 { return s.Staleness.Percentile(99) })
		hostLabel := fmt.Sprintf(`{host="%d"}`, m.host)
		reg.Gauge("kollaps_manager_down"+hostLabel, func() float64 {
			if m.dead {
				return 1
			}
			return 0
		})
		reg.Gauge("kollaps_manager_iterations"+hostLabel, func() float64 { return float64(m.Iterations) })
	}
	reg.Gauge("kollaps_chaos_faults_total", func() float64 { return float64(rt.chaos.Stats().Total()) })
	if p := rt.opts.Probe; p != nil {
		reg.Gauge("kollaps_accuracy_mean_share_deviation", func() float64 { return p.Mean.Last() })
		reg.Gauge("kollaps_accuracy_max_share_deviation", func() float64 { return p.Max.Last() })
		reg.Gauge("kollaps_accuracy_samples", func() float64 { return float64(p.Samples) })
	}
}
