package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/units"
)

// peer stands in for host 1 of a Manager's deployment: it seals reports
// exactly as a live peer's Publish does, each datagram carrying the next
// envelope sequence number — a Manager's node accepts nothing else.
type peer struct {
	node dissem.Node
	to   int
	last []byte
}

func newPeer(tb testing.TB, m *Manager) *peer {
	cfg := m.rt.opts.Dissem
	cfg.NumHosts, cfg.Wide = len(m.emIPs), m.rt.wide
	p := &peer{to: m.host}
	node, err := dissem.New(cfg, 1, p)
	if err != nil {
		tb.Fatal(err)
	}
	p.node = node
	return p
}

func (p *peer) SendTo(host int, payload []byte) {
	if host == p.to {
		p.last = payload
	}
}

// seal returns msg as the peer's next datagram to the Manager.
func (p *peer) seal(msg *metadata.Message) []byte {
	p.node.Publish(0, msg)
	return p.last
}

// enforceRig drives one Manager the way benchIterate does — collectLocal,
// globalFlows, enforce — with the runtime's own loop never started, so
// the test decides what each pass sees: the peer report, the local
// offered load and the topology.
type enforceRig struct {
	t      *testing.T
	rt     *Runtime
	m      *Manager
	peer   *peer
	report metadata.Message
	// paths the remote records take: real collapsed paths, so remote
	// flows contend with the local ones on their links
	paths [][]uint16
	// localFlows counts the local flows enforced over all passes.
	localFlows int
}

func newEnforceRig(t *testing.T, opts Options) *enforceRig {
	rt := buildRuntime(t, fig8YAML, 2, opts)
	m := rt.managers[0]
	for _, c := range m.locals {
		for _, d := range rt.containers {
			if d != c {
				rt.point(c, d.IP)
			}
		}
	}
	r := &enforceRig{t: t, rt: rt, m: m, peer: newPeer(t, m)}
	for _, pair := range [][2]string{{"c2", "s2"}, {"c3", "s3"}, {"c1", "s1"}, {"s5", "c5"}} {
		src, _ := rt.Container(pair[0])
		dst, _ := rt.Container(pair[1])
		var links []uint16
		for _, l := range rt.path(src, dst.IP).Links {
			links = append(links, uint16(l))
		}
		r.paths = append(r.paths, links)
	}
	return r
}

// setReport makes the peer report one record per bps entry, on the
// rig's paths in turn.
func (r *enforceRig) setReport(bps ...uint32) {
	r.report = metadata.Message{Host: 1}
	for i, b := range bps {
		r.report.Flows = append(r.report.Flows, metadata.FlowRecord{BPS: b, Links: r.paths[i%len(r.paths)]})
	}
}

// offer runs one emulation period of local traffic: local container j
// offers k·(j+1) 1200-byte datagrams (k = 300 saturates every local flow,
// making it greedy in the model; small k leaves it demand-capped) and the
// engine advances a period.
func (r *enforceRig) offer(k int) {
	rt, m := r.rt, r.m
	for j, c := range m.locals {
		dst := rt.containers[(j*5+7)%len(rt.containers)]
		if dst == c {
			continue
		}
		for p := 0; p < k*(j+1); p++ {
			c.Stack.SendUDP(dst.IP, 9, 9, 1200, nil)
		}
	}
	rt.Eng.Run(rt.Eng.Now() + rt.opts.Period)
}

// pass runs one emulation period: the local containers offer k (see
// offer), the peer report arrives, and the manager collects, merges and
// enforces. Then every result is checked against two fresh solves.
func (r *enforceRig) pass(k int) {
	t, rt, m := r.t, r.rt, r.m
	t.Helper()
	r.offer(k)
	period := rt.opts.Period
	if m.dead {
		return
	}
	m.node.Receive(rt.Eng.Now(), r.peer.seal(&r.report))
	derived := m.demDerived.Value()
	flows := m.collectLocal(period)
	all := m.globalFlows(flows)
	m.enforce(flows, all)
	r.localFlows += len(flows)
	if len(all) == 0 {
		return
	}

	caps, _ := rt.linkCaps()
	var a, b AllocState
	wantWD := a.Allocate(caps, all, nil)
	greedy := append([]FlowDemand(nil), all...)
	for i := range greedy {
		greedy[i].Demand = 0
	}
	wantEnt := b.Allocate(caps, greedy, nil)
	memo := &m.entMemo
	sameAllocations(t, "entitlement pass", memo.out[memo.last], wantEnt)
	if m.demDerived.Value() != derived {
		sameAllocations(t, "derived demand-aware pass", wantWD, wantEnt)
	} else {
		sameAllocations(t, "demand-aware pass", m.wdBuf, wantWD)
	}
	for i := range flows {
		f := &flows[i]
		want := max(wantWD[i].Rate, wantEnt[i].Rate)
		if want <= 0 {
			want = units.Kbps
		}
		if props, _ := f.src.tcal.Props(f.dstIP); props.Bandwidth != want {
			t.Fatalf("local flow %d enforced %d, fresh solves give %d", i, props.Bandwidth, want)
		}
	}
}

func (r *enforceRig) setLink(orig, dest string, p topology.LinkPatch) {
	r.t.Helper()
	if err := r.rt.applyGroup([]topology.Event{{At: r.rt.Eng.Now(), Kind: topology.EvSetLink, Orig: orig, Dest: dest, Props: p}}); err != nil {
		r.t.Fatal(err)
	}
}

// TestEnforceMatchesFreshSolves is the Manager-level differential for
// the memoised entitlement pass and the derived demand-aware pass: across
// steady periods, demand jitter, flows joining and leaving, reordered
// records, link changes and a manager kill/restart, both result vectors
// and every enforced rate equal two fresh solves exactly — and each of
// hit, miss, derived and solved actually occurs.
func TestEnforceMatchesFreshSolves(t *testing.T) {
	r := newEnforceRig(t, Options{})
	m := r.m
	// Large reports are greedy in the model (demand = 2× usage); small
	// ones bind below their share.
	const hi, lo = 40_000_000, 300_000
	const greedy = 300
	r.setReport(hi, hi, hi, hi)
	for i := 0; i < 5; i++ { // steady, no demand binding
		r.pass(greedy)
	}
	for i := 0; i < 4; i++ { // remote demand jitter above the share
		r.setReport(hi+uint32(i)*1000, hi-uint32(i)*977, hi, hi)
		r.pass(greedy)
	}
	for i := 0; i < 6; i++ { // remote and local demand jitter, both sides of the share
		r.setReport(hi+uint32(i)*1000, lo+uint32(i)*977, hi, lo)
		r.pass(3 + i)
	}
	r.setReport(hi, lo, hi, lo, hi) // a remote flow joins...
	r.pass(2)
	r.pass(2)
	r.setReport(hi, lo, hi, lo) // ...and leaves
	r.pass(2)
	// Two records swap order: equal RTTs, so only the links tell them apart.
	r.paths[0], r.paths[1] = r.paths[1], r.paths[0]
	r.setReport(hi, lo, hi, lo)
	r.pass(2)
	r.pass(2)
	lat, bw := 30*time.Millisecond, 20*units.Mbps
	r.setLink("b1", "b2", topology.LinkPatch{Latency: &lat})
	r.pass(2)
	r.pass(2)
	r.setLink("b1", "b2", topology.LinkPatch{Up: &bw})
	r.pass(4)
	r.pass(4)
	if err := r.rt.KillManager(0); err != nil {
		t.Fatal(err)
	}
	r.pass(3)
	r.pass(3)
	if err := r.rt.RestartManager(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.pass(1 + i)
	}
	r.setReport(hi, hi, hi, hi)
	r.pass(greedy)
	r.pass(greedy)

	runs, reused, derived := m.solveRuns.Value(), m.entReused.Value(), m.demDerived.Value()
	t.Logf("%d enforce calls over %d local flows: %d entitlement reused, %d demand-aware derived",
		runs, r.localFlows, reused, derived)
	if reused == 0 || reused == runs || derived == 0 || derived == runs || r.localFlows == 0 {
		t.Fatalf("paths not all exercised: %d runs, %d reused, %d derived, %d local flows",
			runs, reused, derived, r.localFlows)
	}
}

// TestEnforceMemoSlots is the differential for the entitlement memo's two
// slots and its capacity version: every pass is checked against two fresh
// solves, and each step asserts whether the memo answered and, when it
// did not, why. Two reports alternate; a latency change the flows do not
// cross leaves the key alone, one they cross moves their RTTs, and a
// capacity change or a link's leave and rejoin moves the capacities.
func TestEnforceMemoSlots(t *testing.T) {
	r := newEnforceRig(t, Options{})
	m := r.m
	// The local flows are greedy. A's four remote records bind below
	// their greedy share; B's eight greedy records on the same paths
	// halve the shares, so B's fill levels, read for A's input, would
	// certify A's demands.
	const hi, mid, k = 40_000_000, 8_000_000, 300
	r.setReport(mid, mid, mid, mid)
	a := r.report
	r.setReport(hi, hi, hi, hi, hi, hi, hi, hi)
	b := r.report
	step := func(name string, rep *metadata.Message, want string) {
		t.Helper()
		r.report = *rep
		hit, capMiss, inMiss := m.entReused.Value(), m.entMissCap.Value(), m.entMissIn.Value()
		r.pass(k)
		got := "hit"
		switch {
		case m.entMissCap.Value() != capMiss:
			got = "capacity"
		case m.entMissIn.Value() != inMiss:
			got = "input"
		case m.entReused.Value() == hit:
			got = "nothing"
		}
		if got != want {
			t.Fatalf("%s: memo answered %q, want %q", name, got, want)
		}
	}
	step("first A", &a, "capacity")
	step("first B", &b, "input")
	for i := 0; i < 3; i++ {
		step("alternating A", &a, "hit")
		step("alternating B", &b, "hit")
	}

	lat := 30 * time.Millisecond
	r.setLink("s4", "b3", topology.LinkPatch{Latency: &lat})
	step("latency off every path, A", &a, "hit")
	step("latency off every path, B", &b, "hit")

	r.setLink("b1", "b2", topology.LinkPatch{Latency: &lat})
	step("latency on a path, A", &a, "input")
	step("latency on a path, B", &b, "input")
	step("new RTTs, A", &a, "hit")
	step("new RTTs, B", &b, "hit")

	bw := 20 * units.Mbps
	r.setLink("b1", "b2", topology.LinkPatch{Up: &bw})
	step("capacity, A", &a, "capacity")
	step("capacity, B", &b, "input")
	step("new capacity, A", &a, "hit")
	step("new capacity, B", &b, "hit")

	for _, kind := range []topology.EventKind{topology.EvLinkLeave, topology.EvLinkJoin} {
		ev := topology.Event{At: r.rt.Eng.Now(), Kind: kind, Orig: "b2", Dest: "b3"}
		if err := r.rt.applyGroup([]topology.Event{ev}); err != nil {
			t.Fatal(err)
		}
		step(kind.String()+", A", &a, "capacity")
		step(kind.String()+", B", &b, "input")
		step(kind.String()+" settled, A", &a, "hit")
	}
	t.Logf("%d enforce calls: %d reused, %d capacity misses, %d input misses, %d derived",
		m.solveRuns.Value(), m.entReused.Value(), m.entMissCap.Value(), m.entMissIn.Value(), m.demDerived.Value())
}

// TestEnforceFitsMatchFreshSolves is the Manager-level differential for
// the demand-aware pass that demandFits answers: with every local and
// remote flow application-limited and small, each pass's results and
// enforced rates equal two fresh solves, and the certificate answers
// most passes; a greedy remote record then forces the solve again.
func TestEnforceFitsMatchFreshSolves(t *testing.T) {
	r := newEnforceRig(t, Options{})
	m := r.m
	const lo = 300_000
	r.setReport(lo, lo, lo, lo)
	for i := 0; i < 8; i++ {
		r.setReport(lo+uint32(i)*977, lo, lo-uint32(i)*311, lo)
		r.pass(1 + i%3)
	}
	fits := m.demFit.Value()
	r.setReport(40_000_000, lo, lo, lo)
	r.pass(1)
	r.pass(1)
	t.Logf("%d enforce calls: %d demand-aware passes certified, %d derived",
		m.solveRuns.Value(), m.demFit.Value(), m.demDerived.Value())
	if fits < 4 || m.demFit.Value() != fits {
		t.Fatalf("certified %d of the first 8 passes and %d of the 2 greedy ones; want ≥ 4 and 0",
			fits, m.demFit.Value()-fits)
	}
}

// TestEnforceAllocationContract holds iterate — the whole loop pass:
// collect, disseminate, merge, enforce — to 0 heap objects once warm,
// the datagrams it sends included: their frames and packets come from the
// engine's pool, and the peer manager's delivery handed the previous
// period's back. Local flows are active (between metered passes the
// containers offer a period of real traffic and the peer's report
// arrives). Reports A, B and C differ in one remote record's path each.
// On the hit path A and B alternate, which the memo's two slots answer;
// on the miss path A, B and C cycle, so every pass finds neither slot
// holding its input, solves, and moves the local flows' enforced rates.
// The rig runs bare, and with the flight recorder and registry.
func TestEnforceAllocationContract(t *testing.T) {
	// A collection starting mid-pass can allocate on the runtime's behalf.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"bare", Options{}},
		{"traced", Options{Tracer: obs.NewTracer(1 << 10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newEnforceRig(t, tc.opts)
			m, rt := r.m, r.rt
			sent := m.node.Stats().DatagramsSent.Value

			r.setReport(40_000_000, 300_000, 40_000_000, 300_000)
			reportA := r.report
			r.setReport(40_000_000, 300_000, 40_000_000, 300_000)
			r.report.Flows[1].Links = r.paths[2]
			reportB := r.report
			r.setReport(40_000_000, 300_000, 40_000_000, 300_000)
			r.report.Flows[0].Links = r.paths[3]
			reportC := r.report
			reports := [3]*metadata.Message{&reportA, &reportB, &reportC}

			const k, warm, measured = 20, 8, 40
			over, calls := 0, 0 // passes that allocated, of all metered
			period := func(report *metadata.Message, metered bool) {
				r.offer(k)
				m.node.Receive(rt.Eng.Now(), r.peer.seal(report))
				if !metered {
					m.iterate()
					return
				}
				// The staleness histogram keeps exact samples and grows
				// (amortised, up to its cap) as the view is read; emptied,
				// it refills the capacity warm-up gave it.
				m.node.Stats().Staleness.Reset()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m.iterate()
				runtime.ReadMemStats(&after)
				if after.Mallocs != before.Mallocs {
					over++
				}
				calls++
			}
			// Both decode buffers, every arena, both memo slots at every
			// input's size: C, A, B cycled, which leaves A and B in the slots.
			for i := 0; i < 3*warm; i++ {
				period(reports[(i+2)%3], false)
			}
			sends, reused, sets := sent(), m.entReused.Value(), m.tcalSets.Value()
			for i := 0; i < measured; i++ {
				period(reports[i%2], true)
			}
			if got := m.entReused.Value() - reused; got != measured {
				t.Fatalf("hit path reused the entitlement pass %d of %d times", got, measured)
			}
			reused, hitSets := m.entReused.Value(), m.tcalSets.Value()-sets
			for i := 0; i < measured; i++ {
				period(reports[(i+2)%3], true) // C first: A and B are in the slots
			}
			if got := m.entReused.Value() - reused; got != 0 {
				t.Fatalf("miss path reused the entitlement pass %d times, want 0", got)
			}
			missSets := m.tcalSets.Value() - sets - hitSets
			// MemStats counts the whole process: a pass during which the
			// runtime starts an OS thread shows that thread's handful of
			// objects. A pass that allocates on its own account does so
			// every time it runs that path, so the contract fails when more
			// than one pass in twenty allocated.
			if over*20 > calls {
				t.Fatalf("%d of %d passes allocated", over, calls)
			}
			t.Logf("%d passes, %d datagrams, %d local flows, rate changes: %d hit / %d miss",
				calls, sent()-sends, len(m.flowsBuf), hitSets, missSets)
			if sent()-sends < int64(calls) || len(m.flowsBuf) == 0 || missSets < measured {
				t.Fatalf("rig misconfigured: %d datagrams, %d local flows, %d miss-path rate changes over %d passes",
					sent()-sends, len(m.flowsBuf), missSets, measured)
			}
		})
	}
}
