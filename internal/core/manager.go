package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/metrics"
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
	entMissCap *metrics.Counter // entitlement solves no slot's capacity version matched
	entMissIn  *metrics.Counter // entitlement solves a slot's capacities but not its flows matched
	demDerived *metrics.Counter // demand-aware passes equal to the entitlement pass
	demFit     *metrics.Counter // demand-aware passes where every demand fits
	tcalSets   *metrics.Counter // enforced TCAL bandwidth changes
	viewReused *metrics.Counter // view blocks whose priced entries were kept
	viewPriced *metrics.Counter // view blocks priced anew

	// ---- per-period scratch, reused across iterations ----

	// alloc is the indexed min-max solver's arena.
	alloc AllocState

	flowsBuf []localFlow
	// allBuf is the allocator's input: the local entries, then from
	// remote.at on the remote ones, which outlive the period.
	allBuf  []FlowDemand
	remote  remoteView
	viewBuf []dissem.OriginView
	wdBuf   []Allocation
	entMemo entitlementMemo // the last two entitlement passes, keys and outputs

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
	m.stack.SendFrame(m.emIPs[host], metadataPort, metadataPort, frame)
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
	pkt := m.stack.FrameDatagram(m.emIPs[m.chaosTo], metadataPort, metadataPort, frame)
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
	alloc  units.Bandwidth // TCAL rate at collect time, kept: enforce may move it before demandLocal reads it
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
	reg, label := rt.reg, fmt.Sprintf(`{host="%d"}`, host)
	m.solveRuns = reg.Counter("kollaps_solver_runs_total" + label)
	m.solveNs = reg.Counter("kollaps_solver_wall_ns_total" + label)
	m.solveFlows = reg.Counter("kollaps_solver_flows_total" + label)
	m.entReused = reg.Counter("kollaps_solver_entitlement_reused_total" + label)
	missed := fmt.Sprintf(`kollaps_solver_entitlement_missed_total{host="%d",cause=`, host)
	m.entMissCap = reg.Counter(missed + `"capacity"}`)
	m.entMissIn = reg.Counter(missed + `"input"}`)
	m.demDerived = reg.Counter("kollaps_solver_demand_derived_total" + label)
	m.demFit = reg.Counter("kollaps_solver_demand_fit_total" + label)
	m.tcalSets = reg.Counter("kollaps_tcal_shaping_ops_total" + label)
	m.viewReused = reg.Counter("kollaps_view_origins_reused_total" + label)
	m.viewPriced = reg.Counter("kollaps_view_origins_rebuilt_total" + label)
	if err := m.newNode(); err != nil {
		return nil, err
	}
	m.stack = transport.NewStack(rt.Eng, rt.Cluster, emIPs[host])
	m.stack.HandleFrame(metadataPort, m.onMetadata)
	return m, nil
}

// newNode builds a fresh dissemination endpoint. A restarted manager
// gets a new one — like a restarted process, it remembers nothing: no
// peer views, no ack baselines, no overlay suspicions. The fresh node
// issues shape stamps from the start again, so no priced view block may
// outlive the node that stamped it.
func (m *Manager) newNode() error {
	m.remote.blocks = m.remote.blocks[:0]
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
// enforced rate changes, and with tracing and metrics on. The datagrams
// it sends are no exception: their frames and packets come from the
// engine's pool, which the fabric refills as it delivers.
// TestEnforceAllocationContract meters iterate itself on those inputs;
// BenchmarkIterate and `cmd/benchcheck -iterate` gate the
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
			sent, req := c.tcal.Poll(dstIP)
			rate := units.Bandwidth(float64(sent*8) / period.Seconds())
			demand := units.Bandwidth(float64(req*8) / period.Seconds())
			// An ACK-clocked (or TSQ-parked) sender can offer nothing
			// for one period while its queue still drains; activity and
			// demand consider both directions of the qdisc.
			if demand < rate {
				demand = rate
			}
			p := m.rt.path(c, dstIP)
			if p == nil {
				continue // unknown destination or unreachable path
			}
			enforced, _ := c.tcal.Props(dstIP)
			if demand < activeThreshold {
				// Idle: release the allocation back to the path max so
				// a future flow starts unthrottled.
				m.shape(c, dstIP, enforced.Bandwidth, p.Bandwidth)
				continue
			}
			flows = append(flows, localFlow{
				src: c, dstIP: dstIP, rate: rate, demand: demand,
				links: p.Links, rtt: p.RTT(),
				alloc: enforced.Bandwidth,
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
			Count: 1,
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
//
// The remote entries outlive the period. The node lends its view one
// block per origin, each with a shape stamp (dissem.OriginView). While a
// block's origin, stamp and record count and the topology generation
// repeat, its entries keep their ids, links, RTTs and weights, and only
// their demands are rewritten from fresh usage. The first block that
// differs is priced anew, and so is every block after it: RemoteFlowID
// numbers the records of the whole view, so a changed block moves the
// ids of its successors.
//
// This walk is the view read the staleness statistics describe: each
// block is sampled once, at its age, weighted by its record count.
func (m *Manager) globalFlows(local []localFlow) []FlowDemand {
	now, period := m.rt.Eng.Now(), m.rt.opts.Period
	lats, gen := m.rt.linkLats()
	v := &m.remote
	if v.gen != gen {
		v.gen, v.blocks = gen, v.blocks[:0]
	}
	nl := len(local)
	all := m.placeLocal(nl)
	for i := range local {
		all[i] = FlowDemand{
			ID:     LocalFlowID(m.host, i),
			Links:  local[i].links,
			RTT:    local[i].rtt,
			Demand: m.demandLocal(&local[i]),
		}
	}
	m.viewBuf = m.node.AppendView(now, dissem.ExpireAfter*period, m.viewBuf[:0])
	st := m.node.Stats()
	var stale, reused, priced int64
	id, end := 0, 0 // the block's first RemoteFlowID index; end of the remote entries so far
	for b := range m.viewBuf {
		o := &m.viewBuf[b]
		st.SampleStaleness(o.Age, o.Len())
		// A usage report older than one period (hierarchical aggregation
		// delay) cannot safely cap the flow: a low stale reading would
		// hand its share to competitors and oversubscribe the link, since
		// contention is emulated purely through this allocation. Treat
		// such flows as greedy — they get at most their RTT-weighted
		// share, never less, and the next fresh report re-enables the §3
		// maximization step.
		greedy := o.Age > period+period/2
		if b < len(v.blocks) && v.blocks[b].prices(o) {
			pb := &v.blocks[b]
			for j := end; j < pb.end; j++ {
				e := &all[nl+j]
				e.Demand = m.remoteDemand(o.BPS(int(v.recOf[j])), e.Weight, greedy)
			}
			end, stale = pb.end, stale+pb.stale
			reused++
		} else {
			all = m.priceBlock(all[:nl+end], b, o, id, lats, greedy)
			end, stale = v.blocks[b].end, stale+v.blocks[b].stale
			priced++
		}
		id += o.Len()
	}
	if priced > 0 || nl+end != len(all) {
		v.priced++
	}
	v.truncate(len(m.viewBuf)) // drops the blocks of origins that left the view
	all = all[:nl+end]
	if stale > 0 {
		st.StaleLinks.Add(stale)
	}
	m.viewReused.Add(reused)
	m.viewPriced.Add(priced)
	m.allBuf = all
	return all
}

// remoteView keeps the remote part of Manager.allBuf across periods:
// one block of priced entries per block of the node's view.
type remoteView struct {
	gen    uint64 // topology generation the blocks were priced under
	at     int    // allBuf index of the first remote entry: the local count
	blocks []pricedBlock
	recOf  []int32 // by remote entry: its record's index in its view block
	links  []int   // arena behind the remote entries' Links
	// priced counts the periods in which a block was priced anew or
	// dropped: while it holds still, so does every remote entry's id,
	// links, RTT and weight, which is what the entitlement memo reads.
	priced uint64
}

// pricedBlock is one view block's entries: priced under its origin,
// stamp and record count.
type pricedBlock struct {
	origin   uint16
	stamp    uint64
	nrec     int   // records in the view block, priced or dropped
	end      int   // end of its entries, counted from remote.at
	linksEnd int   // end of its entries' links in remoteView.links
	stale    int64 // link ids dropped as outside the topology
}

// prices reports whether b holds the pricing of view block o: the same
// origin, the same shape stamp and as many records.
func (b *pricedBlock) prices(o *dissem.OriginView) bool {
	return b.origin == o.Origin && b.stamp == o.Stamp && b.nrec == o.Len()
}

// truncate keeps the first n blocks and their entries' bookkeeping.
func (v *remoteView) truncate(n int) {
	v.blocks = v.blocks[:n]
	end, linksEnd := 0, 0
	if n > 0 {
		end, linksEnd = v.blocks[n-1].end, v.blocks[n-1].linksEnd
	}
	v.recOf, v.links = v.recOf[:end], v.links[:linksEnd]
}

// placeLocal sizes allBuf for n local entries in front of the remote
// ones, moving the remote entries when the local count changed.
func (m *Manager) placeLocal(n int) []FlowDemand {
	buf, at := m.allBuf, m.remote.at
	if n == at {
		return buf
	}
	nr := len(buf) - at
	if n > at {
		buf = slices.Grow(buf, n-at)
	}
	moved := buf[:n+nr]
	copy(moved[n:], buf[at:at+nr])
	m.remote.at = n
	return moved
}

// priceBlock appends the entries of view block o, the b-th, whose first
// record is remote record id, to all, which ends with block b-1's
// entries, and records the block in its place.
func (m *Manager) priceBlock(all []FlowDemand, b int, o *dissem.OriginView, id int, lats []time.Duration, greedy bool) []FlowDemand {
	v := &m.remote
	v.truncate(b)
	var stale int64
	for r := 0; r < o.Len(); r++ {
		bps, count, links := o.Record(r)
		start := len(v.links)
		var lat time.Duration
		for _, l := range links {
			if int(l) >= len(lats) {
				// A link id outside the live graph's id space comes from a
				// stale or corrupt report: it has no capacity or latency to
				// price and nothing to enforce against. Drop the id (the
				// seed fed it to the allocator as a phantom) and count it.
				stale++
				continue
			}
			lat += lats[l]
			v.links = append(v.links, int(l))
		}
		path := v.links[start:len(v.links):len(v.links)]
		if len(path) == 0 && len(links) > 0 {
			continue // every link was stale: nothing left to constrain
		}
		w := max(int(count), 1)
		all = append(all, FlowDemand{
			ID:     RemoteFlowID(id + r),
			Links:  path,
			RTT:    2 * lat,
			Demand: m.remoteDemand(bps, w, greedy),
			Weight: w,
		})
		v.recOf = append(v.recOf, int32(r))
	}
	v.blocks = append(v.blocks, pricedBlock{
		origin: o.Origin, stamp: o.Stamp, nrec: o.Len(),
		end: len(all) - v.at, linksEnd: len(v.links), stale: stale,
	})
	return all
}

// remoteDemand is a remote record's demand per underlying flow: its
// usage split evenly over its weight, through demandOf, or 0 (greedy)
// when its report is too old to cap it.
func (m *Manager) remoteDemand(bps uint32, weight int, greedy bool) units.Bandwidth {
	if greedy {
		return 0
	}
	return m.demandOf(units.Bandwidth(float64(bps)/float64(weight) + 0.5))
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
	return units.Bandwidth(float64(f.demand) * demandHeadroom)
}

// demandOf applies the same rule to remote flows, where only usage is
// known: usage-based demand with headroom, switching to greedy once the
// flow reports substantial usage. Remote allocations are computed by the
// flow's own Manager anyway; this estimate only shapes how much of the
// shared links we reserve for them.
func (m *Manager) demandOf(usage units.Bandwidth) units.Bandwidth {
	return units.Bandwidth(float64(usage) * demandHeadroom)
}

// enforcedRate is the rate a flow's htb is set to from its two solver
// passes: the larger of the demand-aware share and the entitlement, and
// never below 1 Kb/s. The accuracy probe's oracle applies the same rule.
func enforcedRate(withDemand, entitled units.Bandwidth) units.Bandwidth {
	rate := max(withDemand, entitled)
	if rate <= 0 {
		rate = units.Kbps
	}
	return rate
}

// enforce applies the allocation to local flows: each destination's htb
// is set to its flow's enforcedRate when that differs from the rate the
// TCAL holds. The path's netem (delay, jitter, loss) stays as installed.
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
	caps, capsVer := m.rt.linkCaps()
	// Two passes of the sharing model. The demand-aware pass implements
	// the §3 maximization step: application-limited flows release their
	// surplus to competitors. The greedy pass computes each flow's
	// entitlement — its RTT-weighted max-min share if it were saturating.
	// A flow's own htb is set to the larger of the two, so an idle flow's
	// ramp-up is never throttled below its fair share (the next period
	// rebalances), while competitors enjoy the maximized allocation.
	//
	// A pass is solved only when its answer can change. Demand jitter
	// does not reach the greedy input, so it usually equals one of the
	// last two greedy inputs solved (entMemo): the same inputs in the same
	// order give the same floats, and that solve's output stands. The
	// demand-aware pass is the greedy pass bit for bit whenever no demand
	// binds below the fill level its flow froze at (demandSlack); and when
	// every demand fits its links (demandFits), each flow freezes at its
	// demand without a solve.
	memo := &m.entMemo
	slot, miss := memo.entitlement(&m.alloc, caps, capsVer, m.remote.priced, len(local), all)
	switch miss {
	case memoHit:
		m.entReused.Inc()
	case missCapacity:
		m.entMissCap.Inc()
	case missInput:
		m.entMissIn.Inc()
	}
	entitled := memo.out[slot]
	withDemand := entitled
	if demandSlack(all, memo.level[slot]) {
		m.demDerived.Inc()
	} else if m.alloc.demandFits(caps, all) {
		m.demFit.Inc()
		withDemand = fitAllocation(all, m.wdBuf)
		m.wdBuf = withDemand
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
		enforced, _ := f.src.tcal.Props(f.dstIP)
		m.shape(f.src, f.dstIP, enforced.Bandwidth, enforcedRate(withDemand[i].Rate, entitled[i].Rate))
	}
}

// shape sets c's htb toward dst to rate when it holds another one,
// counting and tracing the change: the emulation loop's one rate writer.
func (m *Manager) shape(c *Container, dst packet.IP, held, rate units.Bandwidth) {
	if held == rate {
		return
	}
	_ = c.tcal.SetBandwidth(dst, rate)
	m.tcalSets.Inc()
	m.rt.opts.Tracer.Record(m.rt.Eng.Now(), obs.KindTCALApply, int32(m.host), int64(rate), obs.PackIP([4]byte(dst)))
}

// entitlementMemo keeps the Manager's last two entitlement solves, one
// per slot: the key — every input the greedy pass reads, in order, with
// links copied out of the per-period arenas, and the capacity table's
// version — that solve's per-flow fill levels, copied out of AllocState so
// the next solve cannot overwrite them, and its output. Two, because a
// flow active in alternate periods (a 10 Hz ping against the 50 ms period)
// makes the input alternate between two flow sets.
//
// Each field is one backing array for both slots, slot i in its i-th
// half, so a growth costs one allocation per field, not one per slot.
type entitlementMemo struct {
	last  int       // the slot that answered or was recorded most recently
	caps  [2]uint64 // capacity version of the slot's solve (Runtime.linkCaps); 0: empty
	view  [2]uint64 // remoteView.priced when the slot was recorded
	flows [2][]memoFlow
	links [2][]int // every flow's links, concatenated in flow order
	level [2][]float64
	out   [2][]Allocation

	flowsBack []memoFlow
	linksBack []int
	levelBack []float64
	outBack   []Allocation
	greedy    []FlowDemand // a miss's solver input: the flows, demands zeroed
}

type memoFlow struct {
	id     FlowID
	rtt    time.Duration
	weight int
	end    int // end of this flow's links in its slot's links
}

// memoMiss says why entitlement solved: missCapacity when no slot was
// solved under the current capacity version, missInput when one was but
// no slot's flows match.
type memoMiss uint8

const (
	memoHit memoMiss = iota
	missCapacity
	missInput
)

// entitlement returns the slot whose output is the greedy pass over flows
// (demands ignored) under capacity table caps, whose version is ver, and
// remote view view. On a miss it solves with s into the least recent slot
// and records the key there. The first nLocal flows are the local
// entries; a slot's remote ones after them are compared only when the
// remote view was priced anew since it was recorded.
func (k *entitlementMemo) entitlement(s *AllocState, caps []float64, ver, view uint64, nLocal int, flows []FlowDemand) (int, memoMiss) {
	miss := missCapacity
	for _, i := range [2]int{k.last, 1 - k.last} {
		if k.caps[i] != ver {
			continue
		}
		miss = missInput
		if k.matches(i, view, nLocal, flows) {
			k.last = i
			return i, memoHit
		}
	}
	greedy := append(k.greedy[:0], flows...)
	for j := range greedy {
		greedy[j].Demand = 0
	}
	k.greedy = greedy
	i := 1 - k.last
	k.outBack = growPair(k.outBack, &k.out, len(flows))
	k.out[i] = s.Allocate(caps, greedy, k.out[i])
	k.record(i, ver, view, flows, s.level)
	return i, miss
}

// matches reports whether flows are slot i's input, given its capacity
// version matched.
func (k *entitlementMemo) matches(i int, view uint64, nLocal int, flows []FlowDemand) bool {
	if len(k.flows[i]) != len(flows) {
		return false
	}
	if k.view[i] == view {
		flows = flows[:nLocal]
	}
	links, start := k.links[i], 0
	for j := range flows {
		f, e := &flows[j], &k.flows[i][j]
		if f.ID != e.id || f.RTT != e.rtt || f.Weight != e.weight ||
			!slices.Equal(f.Links, links[start:e.end]) {
			return false
		}
		start = e.end
	}
	return true
}

// record makes flows (demands ignored) under capacity version ver and
// remote view view slot i's key, with level the fill levels of its greedy
// solve, and makes slot i the most recent.
func (k *entitlementMemo) record(i int, ver, view uint64, flows []FlowDemand, level []float64) {
	nl := 0
	for j := range flows {
		nl += len(flows[j].Links)
	}
	k.flowsBack = growPair(k.flowsBack, &k.flows, len(flows))
	k.linksBack = growPair(k.linksBack, &k.links, nl)
	k.levelBack = growPair(k.levelBack, &k.level, len(level))
	k.caps[i], k.view[i], k.last = ver, view, i
	k.flows[i], k.links[i] = k.flows[i][:0], k.links[i][:0]
	for j := range flows {
		f := &flows[j]
		k.links[i] = append(k.links[i], f.Links...)
		k.flows[i] = append(k.flows[i], memoFlow{id: f.ID, rtt: f.RTT, weight: f.Weight, end: len(k.links[i])})
	}
	k.level[i] = append(k.level[i][:0], level...)
}

// growPair makes each half of back hold at least n elements. A growth
// allocates both halves at once, at least doubling them, and moves each
// slot's part (which lies in its half, capped at its end) to its new
// half, contents and length kept.
func growPair[T any](back []T, part *[2][]T, n int) []T {
	h := len(back) / 2
	if n <= h {
		return back
	}
	nh := max(n, 2*h)
	nb := make([]T, 2*nh)
	for i := range part {
		part[i] = append(nb[i*nh:i*nh:(i+1)*nh], part[i]...)
	}
	return nb
}

// clampU32 saturates a signed rate into the 32-bit BPS wire field via
// the shared helper, so clamps surface in wire.Saturations.
//
//kollaps:saturates
func clampU32(v int64) uint32 { return wire.U32FromInt64(v, nil) }
