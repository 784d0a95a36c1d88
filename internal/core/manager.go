package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/wire"
)

// Manager is one host's Emulation Manager. It aggregates the local
// Emulation Cores' measurements, disseminates them to peer Managers over
// UDP (the Aeron substitute) through the configured dissemination
// strategy, and runs the §4.1 emulation loop:
//
//	(1) clear local flow state, (2) query TCAL usage, (3) disseminate,
//	(4) compute global path/link usage, (5) enforce bandwidth.
//
// The loop is the control-plane hot path — at Table-4 scale it runs every
// period on every host over thousands of remote flows — so all of its
// intermediate state (flow lists, demand vectors, allocator scratch, wire
// records and their link arrays, the dense capacity table) lives in
// per-Manager buffers reused across periods: a steady-state iteration
// performs no heap allocation.
type Manager struct {
	rt     *Runtime
	host   int
	locals []*Container
	stack  *transport.Stack
	emIPs  []packet.IP

	// node is the manager's endpoint of the dissemination subsystem: it
	// owns the wire exchange with peers and the fused remote-flow view.
	node dissem.Node

	// dead marks a killed Emulation Manager: its loop is muted and its
	// datagrams are dropped both ways, while the host's containers keep
	// running against their last enforced allocations (only the control
	// plane died). kills counts KillManager calls — a generation token
	// that lets churn-style automation tell whether the kill it scheduled
	// a restart for was superseded by another actor. Set through
	// Runtime.KillManager / RestartManager.
	dead  bool
	kills int

	// Iterations counts completed emulation loops.
	Iterations int64

	// chaosTo is the peer sendChaos is passing a datagram to, read by
	// deliverChaos; chaosDeliver and sendLater are deliverChaos and
	// sendDeferred bound once, so a send under chaos builds no closure.
	chaosTo      int
	chaosDeliver func(time.Duration, []byte)
	sendLater    func(*packet.Packet)

	// Hot-path observability counters, resolved once at construction:
	// from the deployment's metrics registry when one is configured,
	// else private. They are always non-nil, so the emulation loop
	// increments unconditionally — a pointer increment, no branches, no
	// allocation.
	solveRuns  *metrics.Counter // enforce calls that reached the sharing model
	solveNs    *metrics.Counter // cumulative wall-clock ns in those calls
	solveFlows *metrics.Counter // flow entries fed to the sharing model
	entReused  *metrics.Counter // entitlement passes answered from entMemo
	demDerived *metrics.Counter // demand-aware passes equal to the entitlement pass
	tcalSets   *metrics.Counter // enforced TCAL bandwidth changes

	// ---- per-period scratch, reused across iterations ----

	// alloc is the indexed min-max solver's arena.
	alloc AllocState
	// caps is the dense per-link capacity table handed to the allocator,
	// rebuilt only when the live topology's generation moves.
	caps    []float64
	capsGen uint64

	flowsBuf  []localFlow
	allBuf    []FlowDemand
	greedyBuf []FlowDemand
	wdBuf     []Allocation
	entBuf    []Allocation // the entitlement pass's output, valid for entMemo's key
	entMemo   entitlementMemo
	rfBuf     []dissem.RemoteFlow
	rlinks    []int // arena backing remote FlowDemand.Links

	// msg and its records/link arena back the local report; disseminate()
	// hands it to the dissemination node within the same iteration, and
	// every dissemination strategy copies or serializes what it keeps, so
	// reusing the storage next period is safe. The dissem test harness
	// publishes from storage it overwrites the moment Publish returns,
	// which is what holds every strategy to that rule.
	msg      metadata.Message
	recBuf   []metadata.FlowRecord
	recLinks []uint16
}

// managerTransport adapts the cluster fabric's UDP stack to
// dissem.Transport. Byte accounting lives in the node's Stats — the
// node counts exactly what it hands this transport. Frames come from the
// engine's pool, and SendTo takes each one back: the fabric releases it
// with its packet, or it returns to the pool at once.
type managerTransport struct{ m *Manager }

// Frame serves the dissemination node a frame from the engine's pool.
func (t managerTransport) Frame(n int) []byte { return t.m.rt.Eng.Packets().Frame(n) }

func (t managerTransport) SendTo(host int, frame []byte) {
	m := t.m
	switch {
	case m.dead:
		// A killed manager's datagrams never reach the wire.
		m.rt.Eng.Packets().ReleaseFrame(frame)
	case m.rt.chaos.Active():
		m.sendChaos(host, frame)
	default:
		m.sendWire(host, frame)
	}
}

// sendWire puts one metadata datagram on the cluster fabric.
func (m *Manager) sendWire(host int, frame []byte) {
	port := m.rt.opts.MetadataPort
	m.stack.SendFrame(m.emIPs[host], port, port, frame)
}

// sendChaos routes one datagram through the armed chaos injector, which
// may drop, mutate, duplicate, or defer it. Every delivery is a copy in a
// frame of its own, so no two packets share a frame and the original goes
// back to the pool once the injector returns.
func (m *Manager) sendChaos(host int, frame []byte) {
	m.chaosTo = host
	m.rt.chaos.Send(m.rt.Eng.Now(), m.host, host, frame, m.chaosDeliver)
	m.rt.Eng.Packets().ReleaseFrame(frame)
}

// deliverChaos sends one delivery the injector decided on for sendChaos's
// datagram. A deferred copy rides a typed engine event, so chaos latency
// composes with the fabric's own. Chaos delays are not monotone, so this
// is AtPacket and not a sim.Line.
func (m *Manager) deliverChaos(d time.Duration, p []byte) {
	frame := append(m.rt.Eng.Packets().Frame(len(p)), p...)
	if d <= 0 {
		m.sendWire(m.chaosTo, frame)
		return
	}
	port := m.rt.opts.MetadataPort
	pkt := m.stack.FrameDatagram(m.emIPs[m.chaosTo], port, port, frame)
	m.rt.Eng.AtPacket(m.rt.Eng.Now()+d, m.sendLater, pkt)
}

// sendDeferred puts a delayed chaos delivery on the wire, unless the
// sender died while it was held.
func (m *Manager) sendDeferred(p *packet.Packet) {
	if m.dead {
		p.Release()
		return
	}
	m.rt.Cluster.Send(p)
}

// localFlow is one (source container, destination container) aggregate.
type localFlow struct {
	src    *Container
	dstIP  packet.IP
	rate   units.Bandwidth // observed egress rate over the last period
	demand units.Bandwidth // observed ingress (requested) rate
	alloc  units.Bandwidth // allocation currently enforced
	links  []int
	rtt    time.Duration
}

func newManager(rt *Runtime, host int, emIPs []packet.IP) (*Manager, error) {
	m := &Manager{
		rt:    rt,
		host:  host,
		emIPs: emIPs,
	}
	m.chaosDeliver, m.sendLater = m.deliverChaos, m.sendDeferred
	if reg := rt.opts.Registry; reg != nil {
		label := fmt.Sprintf(`{host="%d"}`, host)
		m.solveRuns = reg.Counter("kollaps_solver_runs_total" + label)
		m.solveNs = reg.Counter("kollaps_solver_wall_ns_total" + label)
		m.solveFlows = reg.Counter("kollaps_solver_flows_total" + label)
		m.entReused = reg.Counter("kollaps_solver_entitlement_reused_total" + label)
		m.demDerived = reg.Counter("kollaps_solver_demand_derived_total" + label)
		m.tcalSets = reg.Counter("kollaps_tcal_shaping_ops_total" + label)
	} else {
		m.solveRuns = &metrics.Counter{}
		m.solveNs = &metrics.Counter{}
		m.solveFlows = &metrics.Counter{}
		m.entReused = &metrics.Counter{}
		m.demDerived = &metrics.Counter{}
		m.tcalSets = &metrics.Counter{}
	}
	if err := m.newNode(); err != nil {
		return nil, err
	}
	m.stack = transport.NewStack(rt.Eng, rt.Cluster, emIPs[host])
	m.stack.HandleFrame(rt.opts.MetadataPort, m.onMetadata)
	return m, nil
}

// newNode builds a fresh dissemination endpoint. A restarted manager
// gets a new one — like a restarted process, it remembers nothing: no
// peer views, no ack baselines, no overlay suspicions.
func (m *Manager) newNode() error {
	cfg := m.rt.opts.Dissem
	cfg.NumHosts = len(m.emIPs)
	cfg.Wide = m.rt.wide
	cfg.Tracer = m.rt.opts.Tracer
	node, err := dissem.New(cfg, m.host, managerTransport{m})
	if err != nil {
		return err
	}
	m.node = node
	return nil
}

// Host returns the manager's host index.
func (m *Manager) Host() int { return m.host }

// Down reports whether the manager is currently killed.
func (m *Manager) Down() bool { return m.dead }

// MetadataSent returns the cumulative metadata bytes this Manager sent.
func (m *Manager) MetadataSent() int64 { return m.node.Stats().BytesSent.Value() }

// DissemStats exposes the manager's control-plane counters.
func (m *Manager) DissemStats() *dissem.Stats { return m.node.Stats() }

// Node exposes the manager's dissemination endpoint (tests, experiments).
func (m *Manager) Node() dissem.Node { return m.node }

func (m *Manager) start() {
	m.rt.Eng.Every(m.rt.opts.Period, m.iterate)
}

// onMetadata feeds one inbound control datagram to the node, which
// decodes into its own storage: the frame is dead when Receive returns.
func (m *Manager) onMetadata(_ packet.IP, frame []byte) {
	if m.dead {
		return // inbound datagrams to a killed manager are dropped
	}
	now := m.rt.Eng.Now()
	m.rt.opts.Tracer.Record(now, obs.KindReceive, int32(m.host), int64(len(frame)), 0)
	m.node.Receive(now, frame)
}

// iterate is one emulation loop pass. It is the root of the 0 allocs/op
// contract: once warm, a pass allocates nothing — with local flows whose
// enforced rate changes, with tracing and metrics on, and with
// InjectLoss. The datagrams it sends are no exception: their frames and
// packets come from the engine's pool, which the fabric refills as it
// delivers. TestEnforceAllocationContract meters iterate itself on those
// inputs; BenchmarkIterate and `cmd/benchcheck -iterate` gate the
// collect-merge-enforce part in CI. Slow paths (arena growth, a topology
// generation's first path lookups) amortise to nothing.
func (m *Manager) iterate() {
	if m.dead {
		return // killed: no polling, no dissemination, no enforcement
	}
	m.Iterations++
	period := m.rt.opts.Period

	// (1)+(2): poll every local container's TCAL for usage since the
	// last pass and build the host's report. On a real host the Emulation
	// Cores hand their reports over through shared memory; in-process the
	// Manager reads the TCAL counters directly.
	flows := m.collectLocal(period)

	// (3): disseminate the local aggregate. Only active flows are
	// reported, which is what keeps metadata traffic proportional to
	// hosts, not containers (§5.2).
	m.disseminate()

	// (4): merge remote reports into the global flow set.
	all := m.globalFlows(flows)

	// (5): allocate and enforce on local flows.
	m.enforce(flows, all)
}

// collectLocal builds the active local flow list from TCAL counters.
func (m *Manager) collectLocal(period time.Duration) []localFlow {
	flows := m.flowsBuf[:0]
	for _, c := range m.locals {
		// The TCAL maintains its destination set in sorted order; the
		// per-period scan no longer re-sorts an unchanged set.
		for _, dstIP := range c.tcal.Destinations() {
			sent := c.tcal.Usage(dstIP)
			req := c.tcal.Requested(dstIP)
			rate := units.Bandwidth(float64(sent*8) / period.Seconds())
			demand := units.Bandwidth(float64(req*8) / period.Seconds())
			// An ACK-clocked (or TSQ-parked) sender can offer nothing
			// for one period while its queue still drains; activity and
			// demand consider both directions of the qdisc.
			if demand < rate {
				demand = rate
			}
			p := m.rt.cachedPath(c, dstIP)
			if p == nil {
				continue // unknown destination or unreachable path
			}
			if demand < m.rt.opts.ActiveThreshold {
				// Idle: release the allocation back to the path max so
				// a future flow starts unthrottled.
				if c.lastAlloc[dstIP] != p.Bandwidth {
					_ = c.tcal.SetBandwidth(dstIP, p.Bandwidth)
					_ = c.tcal.InjectCongestionLoss(dstIP, 0)
					c.lastAlloc[dstIP] = p.Bandwidth
					m.tcalSets.Inc()
					m.rt.opts.Tracer.Record(m.rt.Eng.Now(), obs.KindTCALApply,
						int32(m.host), int64(p.Bandwidth), obs.PackIP([4]byte(dstIP)))
				}
				continue
			}
			flows = append(flows, localFlow{
				src: c, dstIP: dstIP, rate: rate, demand: demand,
				links: p.Links, rtt: p.RTT(),
				alloc: c.lastAlloc[dstIP],
			})
		}
	}
	m.flowsBuf = flows
	// The report's records and their link arrays come from per-Manager
	// arenas: disseminate() publishes the report within this same
	// iteration and the dissemination node copies/serializes what it
	// keeps, so the storage is free again next period.
	recs := m.recBuf[:0]
	arena := m.recLinks[:0]
	for i := range flows {
		start := len(arena)
		for _, l := range flows[i].links {
			arena = append(arena, uint16(l))
		}
		recs = append(recs, metadata.FlowRecord{
			BPS:   clampU32(int64(flows[i].rate)),
			Links: arena[start:len(arena):len(arena)],
		})
	}
	m.recBuf, m.recLinks = recs, arena
	m.msg = metadata.Message{Host: uint16(m.host), Flows: recs}
	return flows
}

// disseminate hands this period's local report to the dissemination
// node, which decides what actually crosses the network.
func (m *Manager) disseminate() {
	now := m.rt.Eng.Now()
	m.rt.opts.Tracer.Record(now, obs.KindPublish, int32(m.host), int64(len(m.msg.Flows)), 0)
	m.node.Publish(now, &m.msg)
}

// globalFlows merges local flows with the dissemination node's remote
// view into the allocator's input. Remote flows are identified by their
// link lists; aggregated records (Count > 1) keep their count as the
// entry's Weight — the solver treats a Weight-w entry exactly like w
// duplicate flows, without materializing them.
func (m *Manager) globalFlows(local []localFlow) []FlowDemand {
	now := m.rt.Eng.Now()
	stale := 3 * m.rt.opts.Period
	g := m.rt.State().Graph
	nLinks := g.NumLinks()

	all := m.allBuf[:0]
	for i := range local {
		all = append(all, FlowDemand{
			ID:     LocalFlowID(m.host, i),
			Links:  local[i].links,
			RTT:    local[i].rtt,
			Demand: m.demandLocal(&local[i]),
		})
	}
	m.rfBuf = m.node.AppendRemoteFlows(now, stale, m.rfBuf[:0])
	arena := m.rlinks[:0]
	stats := m.node.Stats()
	for i := range m.rfBuf {
		rf := &m.rfBuf[i]
		start := len(arena)
		var lat time.Duration
		for _, l := range rf.Links {
			if int(l) >= nLinks {
				// A link id outside the live graph's id space comes from a
				// stale or corrupt report: it has no capacity or latency to
				// price and nothing to enforce against. Drop the id (the
				// seed fed it to the allocator as a phantom) and count it.
				stats.StaleLinks.Inc()
				continue
			}
			lat += g.Link(int(l)).Latency
			arena = append(arena, int(l))
		}
		links := arena[start:len(arena):len(arena)]
		if len(links) == 0 && len(rf.Links) > 0 {
			continue // every link was stale: nothing left to constrain
		}
		count := int(rf.Count)
		if count < 1 {
			count = 1
		}
		per := units.Bandwidth(float64(rf.BPS)/float64(count) + 0.5)
		demand := m.demandOf(per)
		// A usage report older than one period (hierarchical aggregation
		// delay) cannot safely cap the flow: a low stale reading would
		// hand its share to competitors and oversubscribe the link, since
		// contention is emulated purely through this allocation. Treat
		// such flows as greedy — they get at most their RTT-weighted
		// share, never less, and the next fresh report re-enables the §3
		// maximization step.
		if rf.Age > m.rt.opts.Period+m.rt.opts.Period/2 {
			demand = 0
		}
		all = append(all, FlowDemand{
			ID:     RemoteFlowID(i),
			Links:  links,
			RTT:    2 * lat,
			Demand: demand,
			Weight: count,
		})
	}
	m.rlinks = arena
	m.allBuf = all
	return all
}

// demandLocal estimates a local flow's demand for the sharing model. A
// flow using at least half of its current allocation is treated as greedy
// (demand unbounded): it receives its full RTT-weighted share, which is
// what makes greedy iperf flows land exactly on the Figure 8 break-points.
// A flow using less is application-limited; it is capped at headroom ×
// usage so the maximization step can hand the slack to competitors while
// still letting the flow ramp exponentially if its demand grows (§3).
func (m *Manager) demandLocal(f *localFlow) units.Bandwidth {
	if f.alloc <= 0 || f.demand*2 >= f.alloc {
		return 0 // greedy
	}
	return units.Bandwidth(float64(f.demand) * m.rt.opts.DemandHeadroom)
}

// demandOf applies the same rule to remote flows, where only usage is
// known: usage-based demand with headroom, switching to greedy once the
// flow reports substantial usage. Remote allocations are computed by the
// flow's own Manager anyway; this estimate only shapes how much of the
// shared links we reserve for them.
func (m *Manager) demandOf(usage units.Bandwidth) units.Bandwidth {
	return units.Bandwidth(float64(usage) * m.rt.opts.DemandHeadroom)
}

// linkCaps returns the dense per-link capacity table for the current
// topology generation. Link capacities only move when the live topology
// mutates, so the table is rebuilt per generation, not per period.
// Tombstoned links keep their negative sentinel: the allocator prices
// them as zero-capacity constraints, exactly like the seed's map build.
func (m *Manager) linkCaps() []float64 {
	gen := m.rt.live.Gen()
	if m.capsGen == gen {
		return m.caps
	}
	g := m.rt.State().Graph
	n := g.NumLinks()
	m.caps = grow(m.caps, n)
	for l := 0; l < n; l++ {
		m.caps[l] = float64(g.Link(l).Bandwidth)
	}
	m.capsGen = gen
	return m.caps
}

// enforce applies the allocation to local flows: htb rate per destination
// plus injected loss when the application demands more than its share.
func (m *Manager) enforce(local []localFlow, all []FlowDemand) {
	if len(all) == 0 {
		return
	}
	now := m.rt.Eng.Now()
	m.rt.opts.Tracer.Record(now, obs.KindSolveStart, int32(m.host), int64(len(all)), 0)
	// The solve-duration metric is real elapsed time by design: it
	// measures this host's solver, not the simulation. The sanctioned
	// exception to the no-wall-clock rule.
	wallStart := time.Now() //kollaps:wallclock
	caps := m.linkCaps()
	// Two passes of the sharing model. The demand-aware pass implements
	// the §3 maximization step: application-limited flows release their
	// surplus to competitors. The greedy pass computes each flow's
	// entitlement — its RTT-weighted max-min share if it were saturating.
	// A flow's own htb is set to the larger of the two, so an idle flow's
	// ramp-up is never throttled below its fair share (the next period
	// rebalances), while competitors enjoy the maximized allocation.
	//
	// A pass is solved only when its answer can change. Demand jitter
	// does not reach the greedy input, so it usually equals last period's
	// (entMemo): the same inputs in the same order give the same floats,
	// and last period's output stands. The demand-aware pass is the
	// greedy pass bit for bit whenever no demand binds below the fill
	// level its flow froze at (demandSlack).
	entitled := m.entBuf
	if m.entMemo.matches(m.capsGen, all) {
		m.entReused.Inc()
	} else {
		greedy := append(m.greedyBuf[:0], all...)
		for i := range greedy {
			greedy[i].Demand = 0
		}
		m.greedyBuf = greedy
		entitled = m.alloc.Allocate(caps, greedy, m.entBuf)
		m.entBuf = entitled
		m.entMemo.record(m.capsGen, all, m.alloc.level)
	}
	withDemand := entitled
	if demandSlack(all, m.entMemo.level) {
		m.demDerived.Inc()
	} else {
		withDemand = m.alloc.Allocate(caps, all, m.wdBuf)
		m.wdBuf = withDemand
	}
	wall := time.Since(wallStart).Nanoseconds() //kollaps:wallclock
	m.solveRuns.Inc()
	m.solveNs.Add(wall)
	m.solveFlows.Add(int64(len(all)))
	m.rt.opts.Tracer.Record(now, obs.KindSolveEnd, int32(m.host), int64(len(all)), wall)
	for i := range local {
		f := &local[i]
		// Local flows occupy the first len(local) slots.
		rate := withDemand[i].Rate
		if entitled[i].Rate > rate {
			rate = entitled[i].Rate
		}
		if rate <= 0 {
			rate = units.Kbps
		}
		if f.src.lastAlloc[f.dstIP] != rate {
			_ = f.src.tcal.SetBandwidth(f.dstIP, rate)
			f.src.lastAlloc[f.dstIP] = rate
			m.tcalSets.Inc()
			m.rt.opts.Tracer.Record(now, obs.KindTCALApply,
				int32(m.host), int64(rate), obs.PackIP([4]byte(f.dstIP)))
		}
		// §3 "Congestion": expose oversubscription as packet loss so
		// loss-based congestion control backs off. Off by default in
		// this substrate (the tail-dropping htb already provides the
		// signal; see Options.InjectLoss); when enabled it is gated on
		// sustained oversubscription and capped so it cannot starve
		// SACK recovery of retransmissions.
		if m.rt.opts.InjectLoss {
			var extra units.Loss
			if f.demand > rate+rate/10 {
				f.src.overSub[f.dstIP]++
			} else {
				f.src.overSub[f.dstIP] = 0
			}
			if f.src.overSub[f.dstIP] >= 3 {
				extra = netem.LossForOversubscription(f.demand, rate)
				if extra > 0.25 {
					extra = 0.25
				}
			}
			_ = f.src.tcal.InjectCongestionLoss(f.dstIP, extra)
		}
	}
}

// entitlementMemo is the key of the Manager's last entitlement solve —
// every input the greedy pass reads, in order, with links copied out of
// the per-period arenas — plus that solve's per-flow fill levels, copied
// out of AllocState so the next solve cannot overwrite them.
type entitlementMemo struct {
	gen   uint64 // capacity-table generation; 0 (never live) until recorded
	flows []memoFlow
	links []int // every flow's links, concatenated in flow order
	level []float64
}

type memoFlow struct {
	id     FlowID
	rtt    time.Duration
	weight int
	end    int // end of this flow's links in entitlementMemo.links
}

// matches reports whether flows, with demands ignored, are exactly the
// recorded entitlement input under capacity generation gen.
func (k *entitlementMemo) matches(gen uint64, flows []FlowDemand) bool {
	if k.gen != gen || len(k.flows) != len(flows) {
		return false
	}
	start := 0
	for i := range flows {
		f, e := &flows[i], &k.flows[i]
		if f.ID != e.id || f.RTT != e.rtt || f.Weight != e.weight ||
			!slices.Equal(f.Links, k.links[start:e.end]) {
			return false
		}
		start = e.end
	}
	return true
}

// record makes flows (demands ignored) under generation gen the memo key,
// with level the fill levels of its greedy solve.
func (k *entitlementMemo) record(gen uint64, flows []FlowDemand, level []float64) {
	k.gen = gen
	k.flows, k.links = k.flows[:0], k.links[:0]
	for i := range flows {
		f := &flows[i]
		k.links = append(k.links, f.Links...)
		k.flows = append(k.flows, memoFlow{id: f.ID, rtt: f.RTT, weight: f.Weight, end: len(k.links)})
	}
	k.level = append(k.level[:0], level...)
}

// clampU32 saturates a signed rate into the 32-bit BPS wire field via
// the shared helper, so clamps surface in wire.Saturations.
//
//kollaps:saturates
func clampU32(v int64) uint32 { return wire.U32FromInt64(v, nil) }
