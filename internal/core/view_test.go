package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/metadata"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/units"
)

// globalFlowsRebuild is globalFlows as it was before the remote view
// outlived the period: every period it copies the whole view into
// RemoteFlows and prices every record anew. It is kept as the oracle the
// kept view is checked against (FuzzGlobalFlowsMatchesRebuild).
func (m *Manager) globalFlowsRebuild(local []localFlow) []FlowDemand {
	now := m.rt.Eng.Now()
	stale := dissem.ExpireAfter * m.rt.opts.Period
	lats, _ := m.rt.linkLats()
	nLinks := len(lats)

	var all []FlowDemand
	for i := range local {
		all = append(all, FlowDemand{
			ID:     LocalFlowID(m.host, i),
			Links:  local[i].links,
			RTT:    local[i].rtt,
			Demand: m.demandLocal(&local[i]),
		})
	}
	rfs := m.node.AppendRemoteFlows(now, stale, nil)
	var arena []int
	stats := m.node.Stats()
	for i := range rfs {
		rf := &rfs[i]
		// The view is read once per period, here: every record is sampled
		// at its age, as a block of one.
		stats.SampleStaleness(rf.Age, 1)
		start := len(arena)
		var lat time.Duration
		for _, l := range rf.Links {
			if int(l) >= nLinks {
				stats.StaleLinks.Inc()
				continue
			}
			lat += lats[l]
			arena = append(arena, int(l))
		}
		links := arena[start:len(arena):len(arena)]
		if len(links) == 0 && len(rf.Links) > 0 {
			continue
		}
		count := int(rf.Count)
		if count < 1 {
			count = 1
		}
		per := units.Bandwidth(float64(rf.BPS)/float64(count) + 0.5)
		demand := m.demandOf(per)
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
	return all
}

// viewHosts is the view rig's deployment: manager 0, whose view is
// checked, and three peers whose reports fill it.
const viewHosts = 4

// viewRig runs two identical deployments side by side, feeding both the
// same reports, events and faults; each period manager 0 of the first
// merges its view with globalFlows and that of the second with
// globalFlowsRebuild, and the two must agree exactly.
type viewRig struct {
	tb      testing.TB
	rts     [2]*Runtime
	reports [viewHosts]metadata.Message
	silent  [viewHosts]int // periods the peer stays silent
	paths   [][]uint16     // real container-to-container paths
	stale   uint16         // the first link id past the initial topology
	joined  bool           // a link-join brought stale and stale+1 into range
	local   []localFlow
	down    int // periods manager 0 stays killed
	rng     *rand.Rand
	// checked counts the periods compared; hits and misses the view
	// blocks reused and priced anew.
	checked, hits, misses int
}

func newViewRig(tb testing.TB, kind dissem.Kind) *viewRig {
	r := &viewRig{tb: tb, rng: rand.New(rand.NewSource(int64(kind) + 1))}
	for i := range r.rts {
		r.rts[i] = buildRuntime(tb, fig8YAML, viewHosts, Options{Dissem: dissem.Config{Kind: kind, Seed: 3}})
	}
	rt := r.rts[0]
	for _, pair := range [][2]string{{"c2", "s2"}, {"c3", "s3"}, {"c1", "s1"}, {"s5", "c5"}, {"c4", "s4"}, {"c6", "s6"}} {
		src, _ := rt.Container(pair[0])
		dst, _ := rt.Container(pair[1])
		var links []uint16
		for _, l := range rt.path(src, dst.IP).Links {
			links = append(links, uint16(l))
		}
		r.paths = append(r.paths, links)
	}
	r.stale = uint16(rt.State().Graph.NumLinks())
	for h := 1; h < viewHosts; h++ {
		r.reports[h].Host = uint16(h)
		r.join(h)
		r.join(h)
	}
	r.setLocal(2)
	return r
}

// join adds a record on a drawn path to peer h's report; two records of
// one report may share a path (an aggregate of Count 2 where the
// strategy folds).
func (r *viewRig) join(h int) {
	r.reports[h].Flows = append(r.reports[h].Flows, metadata.FlowRecord{Links: r.paths[r.rng.Intn(len(r.paths))]})
}

// leave drops peer h's last record.
func (r *viewRig) leave(h int) {
	if n := len(r.reports[h].Flows); n > 0 {
		r.reports[h].Flows = r.reports[h].Flows[:n-1]
	}
}

// repath moves peer h's first record to another path.
func (r *viewRig) repath(h int) {
	fl := r.reports[h].Flows
	if len(fl) == 0 {
		r.join(h)
		return
	}
	i := slices.IndexFunc(r.paths, func(p []uint16) bool { return slices.Equal(p, fl[0].Links) })
	fl[0].Links = r.paths[(i+1)%len(r.paths)]
}

// setLocal makes manager 0's local flows n records on the rig's paths,
// alternately greedy and demand-capped.
func (r *viewRig) setLocal(n int) {
	r.local = r.local[:0]
	for i := 0; i < n; i++ {
		var links []int
		for _, l := range r.paths[i%len(r.paths)] {
			links = append(links, int(l))
		}
		r.local = append(r.local, localFlow{
			links:  links,
			rtt:    time.Duration(i+1) * 10 * time.Millisecond,
			demand: units.Bandwidth(i+1) * 3 * units.Mbps,
			alloc:  10 * units.Mbps,
		})
	}
}

// apply runs one topology event on both deployments.
func (r *viewRig) apply(e topology.Event) {
	for _, rt := range r.rts {
		e.At = rt.Eng.Now()
		if err := rt.applyGroup([]topology.Event{e}); err != nil {
			r.tb.Fatal(err)
		}
	}
}

// manage kills or restarts manager 0 of both deployments.
func (r *viewRig) manage(kill bool) {
	for _, rt := range r.rts {
		op := rt.RestartManager
		if kill {
			op = rt.KillManager
		}
		if err := op(0); err != nil {
			r.tb.Fatal(err)
		}
	}
}

// Script ops, one per period, in a script byte's low nibble (12 to 15
// are opSteady); the high nibble picks the peer or the value.
const (
	opSteady      = iota // usage moves, nothing else
	opRepath             // a record changes path
	opJoin               // a flow joins a report
	opLeave              // a flow leaves one
	opSilence            // a peer stops reporting for six periods: its view ages past 1.5 periods, then expires
	opLatency            // a latency event
	opBandwidth          // a bandwidth event
	opLocal              // manager 0's local flow count changes
	opRestart            // manager 0 is killed, and restarted two periods later while a peer's path changes
	opStaleLink          // a record gains a link id past the topology
	opStaleRecord        // a record whose every link is past the topology joins
	opLinkJoin           // a link-join brings those ids into range
)

// step runs one scripted period and compares the two merges.
func (r *viewRig) step(op byte) {
	h, arg := 1+int(op>>4)%(viewHosts-1), int(op>>4)
	switch op & 0xf {
	case opRepath:
		r.repath(h)
	case opJoin:
		r.join(h)
	case opLeave:
		r.leave(h)
	case opSilence:
		r.silent[h] = 6
	case opLatency:
		lat := time.Duration(1+arg) * time.Millisecond
		r.apply(topology.Event{Kind: topology.EvSetLink, Orig: "b1", Dest: "b2", Props: topology.LinkPatch{Latency: &lat}})
	case opBandwidth:
		bw := units.Bandwidth(5+arg) * units.Mbps
		r.apply(topology.Event{Kind: topology.EvSetLink, Orig: "c3", Dest: "b1", Props: topology.LinkPatch{Up: &bw}})
	case opLocal:
		r.setLocal(arg % 4)
	case opRestart:
		if r.down == 0 {
			r.manage(true)
			r.down = 3
		}
	case opStaleLink:
		r.join(h)
		fl := r.reports[h].Flows
		fl[len(fl)-1].Links = append(slices.Clip(fl[len(fl)-1].Links), r.stale+uint16(arg%2))
	case opStaleRecord:
		r.reports[h].Flows = append(r.reports[h].Flows, metadata.FlowRecord{Links: []uint16{r.stale, r.stale + 1}})
	case opLinkJoin:
		if !r.joined {
			lat, bw := 2*time.Millisecond, 20*units.Mbps
			r.apply(topology.Event{Kind: topology.EvLinkJoin, Orig: "c1", Dest: "b3", Props: topology.LinkPatch{Latency: &lat, Up: &bw, Down: &bw}})
			r.joined = true
		}
	}
	if r.down > 0 {
		if r.down--; r.down == 0 {
			r.manage(false)
			r.repath(1) // the fresh node's first stamps meet a new path
		}
	}
	r.period()
}

// period publishes every live report with fresh usage, runs both
// deployments for one emulation period and compares manager 0's merges.
func (r *viewRig) period() {
	for h := 1; h < viewHosts; h++ {
		for i := range r.reports[h].Flows {
			r.reports[h].Flows[i].BPS = uint32(1_000_000 + r.rng.Intn(4_000_000))
		}
	}
	for _, rt := range r.rts {
		now := rt.Eng.Now()
		for h, m := range rt.managers {
			switch {
			case h == 0 && !m.dead:
				m.node.Publish(now, &metadata.Message{})
			case h > 0 && r.silent[h] == 0:
				m.node.Publish(now, &r.reports[h])
			}
		}
		rt.Eng.Run(now + rt.opts.Period)
	}
	for h := range r.silent {
		if r.silent[h] > 0 {
			r.silent[h]--
		}
	}
	a, b := r.rts[0].managers[0], r.rts[1].managers[0]
	if a.dead {
		return
	}
	reused, priced := a.viewReused.Value(), a.viewPriced.Value()
	got := a.globalFlows(r.local)
	want := b.globalFlowsRebuild(r.local)
	r.checked++
	r.hits += int(a.viewReused.Value() - reused)
	r.misses += int(a.viewPriced.Value() - priced)
	if err := sameFlowDemands(got, want); err != nil {
		r.tb.Fatalf("period %d: globalFlows differs from the rebuild: %v", r.checked, err)
	}
	sa, sb := a.node.Stats(), b.node.Stats()
	if sa.StaleLinks.Value() != sb.StaleLinks.Value() {
		r.tb.Fatalf("period %d: StaleLinks %d, rebuild %d", r.checked, sa.StaleLinks.Value(), sb.StaleLinks.Value())
	}
	ha, hb := &sa.Staleness, &sb.Staleness
	if ha.Count() != hb.Count() || ha.Mean() != hb.Mean() || ha.Percentile(100) != hb.Percentile(100) ||
		ha.Percentile(50) != hb.Percentile(50) || ha.Percentile(99) != hb.Percentile(99) {
		r.tb.Fatalf("period %d: staleness histogram of %d samples differs from the rebuild's %d", r.checked, ha.Count(), hb.Count())
	}
}

// sameFlowDemands reports where two allocator inputs differ; an empty
// path equals a nil one.
func sameFlowDemands(got, want []FlowDemand) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.ID != w.ID || g.RTT != w.RTT || g.Demand != w.Demand || g.Weight != w.Weight || !slices.Equal(g.Links, w.Links) {
			return fmt.Errorf("entry %d is %+v, want %+v", i, *g, *w)
		}
	}
	return nil
}

// viewSeeds are FuzzGlobalFlowsMatchesRebuild's committed scripts, each
// run under every strategy. Between them they hold every op at least
// once; the second restarts manager 0 before any path has changed, so
// the fresh node re-issues the stamp its predecessor gave the first
// peer's block, for a different path; the fifth silences the last peer
// until its block leaves the view, then lets it return (under Gossip
// with the stamp it left with).
var viewSeeds = [][]byte{
	{opSteady, opSteady, opSteady, opSteady, opSteady, opSteady},
	{opSteady, opSteady, opSteady, opRestart, opSteady, opSteady, opSteady, opSteady, opSteady},
	{opSteady, opSteady, opRepath, opSteady, opRepath | 0x10, opSteady, opJoin | 0x20, opSteady, opLeave, opSteady, opSteady},
	{opSteady, opSilence | 0x10, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady},
	{opSteady, opSilence | 0x20, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady, opSteady},
	{opSteady, opSteady, opLatency, opSteady, opBandwidth | 0x30, opSteady, opLocal | 0x30, opSteady, opLocal, opSteady, opLocal | 0x20, opSteady},
	{opSteady, opStaleLink, opSteady, opStaleRecord | 0x10, opSteady, opStaleLink | 0x20, opSteady, opLinkJoin, opSteady, opSteady},
	{opJoin, opRepath | 0x10, opSilence | 0x20, opLatency | 0x40, opStaleRecord, opRestart, opJoin | 0x10, opLeave | 0x20, opLocal | 0x10, opSteady, opLinkJoin, opRepath, opSteady, opSteady},
}

var viewKinds = []dissem.Kind{dissem.Broadcast, dissem.Delta, dissem.Tree, dissem.Gossip}

func runViewScript(t *testing.T, kind dissem.Kind, script []byte) *viewRig {
	r := newViewRig(t, kind)
	for _, op := range script {
		r.step(op)
	}
	return r
}

func FuzzGlobalFlowsMatchesRebuild(f *testing.F) {
	for _, kind := range viewKinds {
		for _, script := range viewSeeds {
			f.Add(uint8(kind), script)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, script []byte) {
		if len(script) > 64 {
			t.Skip()
		}
		runViewScript(t, viewKinds[int(kind)%len(viewKinds)], script)
	})
}

// TestViewSeedsReuseBlocks checks that the seeds exercise what they are
// for: every strategy's merge prices blocks, and all but Tree (whose
// stamps are conservative) reuse some.
func TestViewSeedsReuseBlocks(t *testing.T) {
	for _, kind := range viewKinds {
		checked, hits, misses := 0, 0, 0
		for _, script := range viewSeeds {
			r := runViewScript(t, kind, script)
			checked, hits, misses = checked+r.checked, hits+r.hits, misses+r.misses
		}
		t.Logf("%v: %d periods compared, %d blocks reused, %d priced", kind, checked, hits, misses)
		if misses == 0 || (kind != dissem.Tree) != (hits > 0) {
			t.Errorf("%v: %d periods compared, %d blocks reused, %d priced", kind, checked, hits, misses)
		}
	}
}

// TestRestartDropsPricedBlocks: a restarted manager's fresh node issues
// the stamp its predecessor gave the first peer's block again, now for a
// different path, and the merge prices the new path (each step compares
// it with the rebuild).
func TestRestartDropsPricedBlocks(t *testing.T) {
	r := newViewRig(t, dissem.Broadcast)
	m := r.rts[0].managers[0]
	r.step(opSteady)
	r.step(opSteady)
	before := m.remote.blocks[0]
	_, _, links := m.viewBuf[0].Record(0)
	oldPath := slices.Clone(links)
	r.step(opRestart)
	r.step(opSteady)
	r.step(opSteady) // restarts manager 0 and moves peer 1's first record
	after := &m.viewBuf[0]
	if after.Origin != before.origin || after.Stamp != before.stamp || after.Len() != before.nrec {
		t.Fatalf("no stamp collision: block (origin %d, stamp %d, %d records) before the restart, (%d, %d, %d) after",
			before.origin, before.stamp, before.nrec, after.Origin, after.Stamp, after.Len())
	}
	if _, _, links := after.Record(0); slices.Equal(links, oldPath) {
		t.Fatalf("the colliding block kept its path %v", links)
	}
}

// TestStaleLinks pins the accounting of link ids past the topology:
// such an id is dropped from the path it is priced on and counted once
// per period, whether its block is priced anew or reused; a record left
// with no link is dropped without moving the RemoteFlowID of the records
// after it; and once a link-join brings the ids into range they are
// priced, and no longer counted.
func TestStaleLinks(t *testing.T) {
	r := newEnforceRig(t, Options{})
	rt, m := r.rt, r.m
	stale := uint16(rt.State().Graph.NumLinks())
	report := metadata.Message{Host: 1, Flows: []metadata.FlowRecord{
		{BPS: 1_000_000, Links: append(slices.Clone(r.paths[0]), stale)},
		{BPS: 2_000_000, Links: []uint16{stale, stale + 1}},
		{BPS: 3_000_000, Links: r.paths[1]},
	}}
	period := func(wantPriced bool, want ...FlowDemand) {
		t.Helper()
		report.Flows[0].BPS += 1000 // usage moves, the shape holds
		rt.Eng.Run(rt.Eng.Now() + rt.opts.Period)
		m.node.Receive(rt.Eng.Now(), r.peer.seal(&report))
		priced := m.viewPriced.Value()
		all := m.globalFlows(nil)
		if got := m.viewPriced.Value() > priced; got != wantPriced {
			t.Fatalf("block priced anew: %v, want %v", got, wantPriced)
		}
		if len(all) != len(want) {
			t.Fatalf("%d remote entries, want %d: %+v", len(all), len(want), all)
		}
		for i := range want {
			if all[i].ID != want[i].ID || !slices.Equal(all[i].Links, want[i].Links) {
				t.Fatalf("entry %d is %v on %v, want %v on %v", i, all[i].ID, all[i].Links, want[i].ID, want[i].Links)
			}
		}
	}
	ints := func(links ...uint16) []int {
		var out []int
		for _, l := range links {
			out = append(out, int(l))
		}
		return out
	}
	counted := m.node.Stats().StaleLinks.Value
	before := FlowDemand{ID: RemoteFlowID(0), Links: ints(r.paths[0]...)}
	last := FlowDemand{ID: RemoteFlowID(2), Links: ints(r.paths[1]...)}
	period(true, before, last)
	if got := counted(); got != 3 {
		t.Fatalf("StaleLinks %d after the first period, want 3", got)
	}
	period(false, before, last)
	if got := counted(); got != 6 {
		t.Fatalf("StaleLinks %d after the reused period, want 6", got)
	}

	lat, bw := 2*time.Millisecond, 20*units.Mbps
	if err := rt.applyGroup([]topology.Event{{At: rt.Eng.Now(), Kind: topology.EvLinkJoin, Orig: "c1", Dest: "b3",
		Props: topology.LinkPatch{Latency: &lat, Up: &bw, Down: &bw}}}); err != nil {
		t.Fatal(err)
	}
	if n := rt.State().Graph.NumLinks(); n <= int(stale)+1 {
		t.Fatalf("the link-join left %d links, want more than %d", n, stale+1)
	}
	joined := []FlowDemand{
		{ID: RemoteFlowID(0), Links: ints(report.Flows[0].Links...)},
		{ID: RemoteFlowID(1), Links: ints(stale, stale+1)},
		last,
	}
	period(true, joined...)
	period(false, joined...)
	if got := counted(); got != 6 {
		t.Fatalf("StaleLinks %d once the ids are in range, want 6", got)
	}
}

// TestWriteViewFuzzCorpus pins the committed corpus under
// testdata/fuzz/FuzzGlobalFlowsMatchesRebuild/ to viewSeeds;
// WRITE_FUZZ_CORPUS=1 regenerates it.
func TestWriteViewFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzGlobalFlowsMatchesRebuild")
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	i := 0
	for _, kind := range viewKinds {
		for _, script := range viewSeeds {
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			i++
			content := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%s)\n", byte(kind), strconv.Quote(string(script)))
			if write {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("missing committed corpus file %s (regenerate with WRITE_FUZZ_CORPUS=1): %v", name, err)
			}
			if string(got) != content {
				t.Errorf("%s is stale vs viewSeeds (regenerate with WRITE_FUZZ_CORPUS=1)", name)
			}
		}
	}
}

// sealer seals reports from any origin for one receiving node, in frames
// from a pool that takes each back once the node has read it.
type sealer struct {
	node dissem.Node
	pool packet.Pool
	last []byte
}

func (s *sealer) Frame(n int) []byte           { return s.pool.Frame(n) }
func (s *sealer) SendTo(_ int, payload []byte) { s.last = payload }

// deliver seals msg and hands it to to.
func (s *sealer) deliver(to dissem.Node, now time.Duration, msg *metadata.Message) {
	s.node.Publish(now, msg)
	to.Receive(now, s.last)
	s.pool.ReleaseFrame(s.last)
}

// BenchmarkGlobalFlows merges a view of cbr_mesh64's shape — 63
// broadcast peers reporting four flows each — with four local flows.
// Each op one report arrives and the view is merged: on the hit path the
// report moves only usage, so every block is reused and only demands are
// rewritten; on the miss path the first peer's report changes a path
// every time, so every block is priced anew (RemoteFlowID moves the
// blocks after a changed one). Both are 0 allocs/op.
func BenchmarkGlobalFlows(b *testing.B) {
	const peers, perPeer = 63, 4
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			rt := buildRuntime(b, fig8YAML, 2, Options{})
			m := rt.managers[0]
			node, err := dissem.New(dissem.Config{NumHosts: peers + 1, Wide: rt.wide}, 0, &sealer{})
			if err != nil {
				b.Fatal(err)
			}
			m.node = node
			s := &sealer{}
			if s.node, err = dissem.New(dissem.Config{NumHosts: 2, Wide: rt.wide}, 1, s); err != nil {
				b.Fatal(err)
			}
			nLinks := rt.State().Graph.NumLinks()
			reports := make([]metadata.Message, peers+1)
			for h := 1; h <= peers; h++ {
				reports[h].Host = uint16(h)
				for f := 0; f < perPeer; f++ {
					i := h*perPeer + f
					reports[h].Flows = append(reports[h].Flows, metadata.FlowRecord{
						BPS:   uint32(1_000_000 + i*7919),
						Links: []uint16{uint16(i % nLinks), uint16((i * 5) % nLinks), uint16((i * 11) % nLinks)},
					})
				}
			}
			now := rt.Eng.Now()
			for h := 1; h <= peers; h++ {
				s.deliver(m.node, now, &reports[h])
			}
			paths := [2][]uint16{{0, 1, 2}, reports[1].Flows[0].Links}
			local := make([]localFlow, 4)
			for i := range local {
				local[i] = localFlow{links: []int{i, i + 1}, rtt: 20 * time.Millisecond, demand: units.Mbps, alloc: 10 * units.Mbps}
			}
			m.globalFlows(local)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &reports[1]
				r.Flows[0].BPS++
				if miss {
					r.Flows[0].Links = paths[i%2]
				}
				s.deliver(m.node, now, r)
				m.globalFlows(local)
			}
			b.StopTimer()
			if reused := m.viewReused.Value(); miss != (reused == 0) {
				b.Fatalf("%s path reused %d blocks", name, reused)
			}
		})
	}
}
