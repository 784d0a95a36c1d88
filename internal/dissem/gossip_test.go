package dissem

import (
	"testing"
	"time"

	"repro/internal/metadata"
)

// The gossip strategy's contract, pinned against the broadcast oracle:
// the fused view converges to exactly the union of every live peer's
// current report, with O(N·Fanout) steady-state datagrams, novelty
// crossing the deployment in at most a couple of periods, and anti-entropy
// pulls repairing anything the push waves miss — so neither manager death
// nor lossy sampling can cost completeness, only latency.

const goPeriod = 50 * time.Millisecond

// TestGossipConvergesToOracle: from a cold start, every node's view must
// become exactly the broadcast oracle (all peers' reports, summed per
// path) and stay there.
func TestGossipConvergesToOracle(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 32} {
		msgs := foMsgs(n, 1)
		h := newHarness(t, Config{Kind: Gossip, Fanout: 3}, n)
		for r := 0; r < 6; r++ {
			h.round(goPeriod, msgs)
		}
		if ok, why := viewsMatchOracle(h, msgs); !ok {
			t.Fatalf("N=%d: gossip never converged to the oracle: %s", n, why)
		}
		// And it tracks: change every host's usage, reconverge fast.
		msgs = foMsgs(n, 3)
		for r := 0; r < 3; r++ {
			h.round(goPeriod, msgs)
		}
		if ok, why := viewsMatchOracle(h, msgs); !ok {
			t.Fatalf("N=%d: gossip lost track of changed usage: %s", n, why)
		}
	}
}

// TestGossipSteadyStateCost: once converged on a stable workload, a
// period costs exactly N·Fanout push datagrams (the ring tiling), each
// carrying only the version vector — no record payload, no pulls, no
// forwards. This is the infect-and-die property: a rumor everyone knows
// is no longer told.
func TestGossipSteadyStateCost(t *testing.T) {
	const n, fanout = 16, 4
	msgs := foMsgs(n, 1)
	h := newHarness(t, Config{Kind: Gossip, Fanout: fanout}, n)
	for r := 0; r < 8; r++ {
		h.round(goPeriod, msgs)
	}
	h.sent = nil
	h.round(goPeriod, msgs)
	if want := n * fanout; len(h.sent) != want {
		t.Fatalf("steady-state datagrams per period = %d, want exactly %d (N·Fanout); broadcast would send %d", len(h.sent), want, n*(n-1))
	}
	for _, s := range h.sent {
		p := unsealed(s.payload)
		if p[0] != msgGossip {
			t.Fatalf("steady state sent a %d-type datagram, want pushes only", p[0])
		}
		entries, _, ok := checkGossip(p, n, false)
		if !ok {
			t.Fatalf("undecodable steady-state push from %d", s.from)
		}
		if entries != 0 {
			t.Fatalf("steady-state push from %d to %d carries %d entries, want vv-only (rumor should have died)", s.from, s.to, entries)
		}
	}
}

// TestGossipNoveltyPropagatesFast: one host's usage changes; the change
// must reach every view within two periods — one for hosts the seeded
// wave covers directly, one more for stragglers repaired by vv pulls.
func TestGossipNoveltyPropagatesFast(t *testing.T) {
	const n = 32
	msgs := foMsgs(n, 1)
	h := newHarness(t, Config{Kind: Gossip, Fanout: 4}, n)
	for r := 0; r < 8; r++ {
		h.round(goPeriod, msgs)
	}
	msgs[9] = hostMsg(9, metadata.FlowRecord{BPS: 777_000, Links: []uint16{9, 200}})
	h.round(goPeriod, msgs)
	h.round(goPeriod, msgs)
	for v := 0; v < n; v++ {
		if v == 9 {
			continue
		}
		totals := viewTotals(h.nodes[v].RemoteFlows(h.now, foMaxAge))
		got := totals[pathKey([]uint16{9, 200})]
		if got[0] != 777_000 || got[1] != 1 {
			t.Fatalf("node %d sees %v for host 9's changed flow two periods after the change", v, got)
		}
	}
}

// TestGossipPullHealsIsolatedNode: a node cut off from all inbound
// traffic misses several content changes; on heal, the first version
// vector it sees must trigger a pull that rebuilds its view within one
// period — anti-entropy, not a slow re-walk of the epidemic.
func TestGossipPullHealsIsolatedNode(t *testing.T) {
	const n, victim = 16, 5
	msgs := foMsgs(n, 1)
	h := newHarness(t, Config{Kind: Gossip, Fanout: 4}, n)
	for r := 0; r < 6; r++ {
		h.round(goPeriod, msgs)
	}
	// Isolate the victim's inbound while every host's content changes.
	h.drop = func(from, to int, payload []byte) bool { return to == victim }
	msgs = foMsgs(n, 2)
	for r := 0; r < 4; r++ {
		h.round(goPeriod, msgs)
	}
	h.drop = nil
	h.sent = nil
	h.round(goPeriod, msgs)
	var pulled bool
	for _, s := range h.sent {
		if s.from == victim && unsealed(s.payload)[0] == msgGossipPull {
			pulled = true
		}
	}
	if !pulled {
		t.Fatal("victim saw newer version vectors but never pulled")
	}
	totals := viewTotals(h.nodes[victim].RemoteFlows(h.now, foMaxAge))
	want := oracleTotals(msgs, nil, victim)
	for k, w := range want {
		if got, ok := totals[k]; !ok || got != w {
			t.Fatalf("victim path %v = %v after heal, want %v (pull did not rebuild the view)", keyLinks(k), totals[k], w)
		}
	}
}

// TestGossipSuspicionCostsLatencyNotCompleteness: severing the direct
// link from one host to one viewer — long enough for the viewer to
// suspect it — must not cost the viewer sight of that host's flows: the
// epidemic routes around the dead link. That is the property that makes
// gossip the churn-friendly strategy: there is no overlay edge whose
// loss blinds anyone.
func TestGossipSuspicionCostsLatencyNotCompleteness(t *testing.T) {
	const n, src, viewer = 8, 2, 3
	msgs := foMsgs(n, 1)
	// Fanout 2 at N=8: suspicion threshold is SuspectAfter·⌈7/2⌉ = 8.
	h := newHarness(t, Config{Kind: Gossip, Fanout: 2, SuspectAfter: 2}, n)
	for r := 0; r < 6; r++ {
		h.round(goPeriod, msgs)
	}
	h.drop = func(from, to int, payload []byte) bool { return from == src && to == viewer }
	for r := 0; r < 20; r++ {
		h.round(goPeriod, msgs)
		totals := viewTotals(h.nodes[viewer].RemoteFlows(h.now, foMaxAge))
		for _, links := range [][]uint16{{src, 200}, {src, 201}} {
			if got := totals[pathKey(links)]; got[1] != 1 {
				t.Fatalf("round %d: viewer lost sight of host %d's flow %v with only the direct link down", r, src, links)
			}
		}
	}
	if h.nodes[viewer].Stats().Suspicions.Value() == 0 {
		t.Fatal("viewer never suspected the silent host (threshold not exercised)")
	}
	// Heal: the periodic probe clears the suspicion from the first
	// datagram heard.
	h.drop = nil
	for r := 0; r < 6; r++ {
		h.round(goPeriod, msgs)
	}
	if h.nodes[viewer].Stats().Recoveries.Value() == 0 {
		t.Fatal("suspicion never healed after the link returned")
	}
	if ok, why := viewsMatchOracle(h, msgs); !ok {
		t.Fatalf("views diverged after suspicion heal: %s", why)
	}
}

// TestGossipRestartOutversionsOldContent: a manager that dies and comes
// back with *different* flows must replace its old report in every view —
// content versions are seeded from virtual time, so a fresh node's first
// report outversions everything its previous life published instead of
// being dropped as a replay.
func TestGossipRestartOutversionsOldContent(t *testing.T) {
	const n = 8
	msgs := foMsgs(n, 1)
	h := newHarness(t, Config{Kind: Gossip, Fanout: 3}, n)
	for r := 0; r < 6; r++ {
		h.round(goPeriod, msgs)
	}
	h.kill(1)
	for r := 0; r < 2; r++ { // a short blip: nobody suspects host 1 yet
		h.round(goPeriod, msgs)
	}
	h.restart(t, 1)
	msgs[1] = hostMsg(1, metadata.FlowRecord{BPS: 123_456, Links: []uint16{77, 78}})
	for r := 0; r < 4; r++ {
		h.round(goPeriod, msgs)
	}
	if ok, why := viewsMatchOracle(h, msgs); !ok {
		t.Fatalf("restarted host's new report never replaced its old one: %s", why)
	}
}

// TestGossipViewExpiryTracksOrigin: a silent origin's flows must leave
// every view once its heartbeat exceeds the expiry window (maxAge plus
// the documented diffusion allowance), even though its entry — and its
// version — are retained so stale version vectors cannot resurrect it.
func TestGossipViewExpiryTracksOrigin(t *testing.T) {
	const n = 8
	msgs := foMsgs(n, 1)
	h := newHarness(t, Config{Kind: Gossip, Fanout: 3}, n)
	for r := 0; r < 6; r++ {
		h.round(goPeriod, msgs)
	}
	h.kill(1)
	// Expiry is maxAge + 2/3 diffusion allowance = 5 periods here.
	for r := 0; r < 12; r++ {
		h.round(goPeriod, msgs)
	}
	for v := 0; v < n; v++ {
		if v == 1 {
			continue
		}
		totals := viewTotals(h.nodes[v].RemoteFlows(h.now, foMaxAge))
		for _, links := range [][]uint16{{1, 200}, {1, 201}} {
			if _, still := totals[pathKey(links)]; still {
				t.Fatalf("node %d still sees dead host 1's flow %v long past expiry", v, links)
			}
		}
	}
	// And long after: stale version vectors must not resurrect it.
	for r := 0; r < 10; r++ {
		h.round(goPeriod, msgs)
	}
	if ok, why := viewsMatchOracle(h, msgs); !ok {
		t.Fatalf("dead origin resurrected or views diverged: %s", why)
	}
}
