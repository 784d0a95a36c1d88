package dissem

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/packet"
)

// The allocation contract: once a deployment is warm, a node allocates
// nothing — given a transport that recycles frames (FrameSource), as the
// core runtime's does. Every Publish and every Receive of the measured
// periods is metered on its own, so the contract holds per call and per
// message kind: a Receive that sends nothing (a broadcast report, a tree
// down-aggregate at a leaf, an un-acked delta diff, a gossip push
// carrying no novelty), an ack, a relay, a forward, a Publish and
// reading the view into a warmed buffer all allocate nothing.

// meter is a transport that queues datagrams the way a fabric does —
// delivered after the sending call returns — counts sends, and serves
// frames from a pool that takes each one back once it has been received.
type meter struct {
	queue, batch []meterDatagram
	sends        int
	pool         packet.Pool
}

type meterDatagram struct {
	to      int
	payload []byte
}

type meterTr struct{ m *meter }

func (t meterTr) Frame(n int) []byte { return t.m.pool.Frame(n) }

func (t meterTr) SendTo(host int, payload []byte) {
	t.m.sends++
	t.m.queue = append(t.m.queue, meterDatagram{host, payload})
}

// deliver hands every queued datagram, and whatever it triggers, to its
// node through run, recycling each frame once Receive returns.
func (m *meter) deliver(nodes []Node, now time.Duration, run func(d meterDatagram, receive func())) {
	for len(m.queue) > 0 {
		m.batch, m.queue = m.queue, m.batch[:0]
		for _, d := range m.batch {
			run(d, func() { nodes[d.to].Receive(now, d.payload) })
			m.pool.ReleaseFrame(d.payload)
		}
	}
}

// call runs f and reports how many heap objects it allocated.
func (m *meter) call(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

func TestAllocationContract(t *testing.T) {
	const (
		n       = 32
		period  = 50 * time.Millisecond
		maxWarm = 400
	)
	// A collection starting mid-call can allocate on the runtime's behalf.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, row := range []struct {
		name string
		kind Kind
	}{
		{"broadcast", Broadcast}, {"delta", Delta}, {"tree", Tree}, {"gossip", Gossip},
	} {
		kind := row.kind
		for _, demand := range []string{"jittering", "stable"} {
			t.Run(row.name+"/"+demand, func(t *testing.T) {
				measure := 4
				if kind == Delta {
					measure = 10 // spans a resync
				}
				m := &meter{queue: make([]meterDatagram, 0, 1<<14), batch: make([]meterDatagram, 0, 1<<14)}
				nodes := make([]Node, n)
				for h := range nodes {
					// No false suspicion (Gossip's sampling can starve a link for
					// a while): the first probe would grow its buffers mid-window.
					node, err := New(Config{Kind: kind, NumHosts: n, Wide: true, Seed: 5, ResyncEvery: 8, SuspectAfter: 50},
						h, meterTr{m})
					if err != nil {
						t.Fatal(err)
					}
					nodes[h] = node
				}
				var now time.Duration
				view := make([]RemoteFlow, 0, 16*n)
				excess := map[string]int{} // call kind -> objects beyond the contract
				calls := map[string]int{}
				round := func(r int, metered bool) {
					now += period
					msgs := benchWorkload(n, 0)
					if demand == "jittering" {
						msgs = benchWorkload(n, r)
					}
					run := func(what string, f func()) {
						if !metered {
							f()
							return
						}
						calls[what]++
						if x := m.call(f); x != 0 {
							excess[what] += x
						}
					}
					for h, node := range nodes {
						run("Publish", func() { node.Publish(now, msgs[h]) })
					}
					m.deliver(nodes, now, func(d meterDatagram, receive func()) {
						sends := m.sends
						what := "Receive(report)"
						if kind != Broadcast {
							what = fmt.Sprintf("Receive(type %d)", unsealed(d.payload)[0])
						}
						run(what, receive)
						if metered && m.sends == sends {
							calls[what+" sending nothing"]++
						}
					})
					for _, node := range nodes {
						run("AppendRemoteFlows", func() { view = node.AppendRemoteFlows(now, 3*period, view[:0]) })
					}
				}
				// Warm until every buffer has reached its working size: a fixed
				// floor, and for Gossip until every node holds a version vector
				// for every peer (they are allocated on first contact).
				warm := 0
				for ; warm < 40 || !gossipMet(nodes); warm++ {
					if warm == maxWarm {
						t.Fatalf("deployment still cold after %d periods", warm)
					}
					round(warm, false)
				}
				for r := 0; r < measure; r++ {
					// The staleness histogram keeps exact samples and grows
					// (amortized, up to its cap) as views are read; emptied, it
					// refills the capacity warm-up gave it.
					for _, node := range nodes {
						node.Stats().Staleness.Reset()
					}
					round(warm+r, true)
					runtime.GC()
				}
				// MemStats counts the whole process, and the runtime and the
				// test framework allocate a handful of objects of their own
				// per run; anything a node does shows up once per call.
				for what, x := range excess {
					if x*20 > calls[what] {
						t.Errorf("%s: %d objects allocated over %d calls, want 0", what, x, calls[what])
					}
				}
				if len(view) == 0 || calls["Publish"] != n*measure {
					t.Fatalf("harness misconfigured: view of %d flows, %d publishes", len(view), calls["Publish"])
				}
				// The cases the contract names must actually have been exercised.
				quiet := map[Kind]string{
					Broadcast: "Receive(report)", Delta: fmt.Sprintf("Receive(type %d)", msgDeltaDiff),
					Tree: fmt.Sprintf("Receive(type %d)", msgTreeDown), Gossip: fmt.Sprintf("Receive(type %d)", msgGossip),
				}[kind]
				if calls[quiet+" sending nothing"] == 0 {
					t.Errorf("no %s that sent nothing in the measured window", quiet)
				}
				t.Logf("%d periods: %v", measure, calls)
			})
		}
	}
}

// gossipMet reports whether every gossip node has heard from every peer
// (true for the other strategies).
func gossipMet(nodes []Node) bool {
	for _, node := range nodes {
		g, ok := node.(*gossipNode)
		if !ok {
			return true
		}
		for h, vv := range g.peerVV {
			if vv == nil && h != g.host {
				return false
			}
		}
	}
	return true
}

// BenchmarkPeriod is one emulation period of a 32-manager deployment per
// strategy — every node publishes four jittering flows, every datagram
// (and whatever it triggers) is delivered, every node reads its view —
// the same shape as the bench harness's dissem probe, over a transport
// that recycles frames. One op is one node-period; allocs/op is 0.
func BenchmarkPeriod(b *testing.B) {
	const (
		n      = 32
		period = 50 * time.Millisecond
	)
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		b.Run(kind.String(), func(b *testing.B) {
			m := &meter{}
			nodes := make([]Node, n)
			for h := range nodes {
				node, err := New(Config{Kind: kind, NumHosts: n, Wide: true, Seed: 5}, h, meterTr{m})
				if err != nil {
					b.Fatal(err)
				}
				nodes[h] = node
			}
			var now time.Duration
			var view []RemoteFlow
			workloads := make([][]*metadata.Message, 3)
			for r := range workloads {
				workloads[r] = benchWorkload(n, r)
			}
			round := func(r int) {
				now += period
				for h, node := range nodes {
					node.Publish(now, workloads[r%len(workloads)][h])
				}
				m.deliver(nodes, now, func(_ meterDatagram, receive func()) { receive() })
				for _, node := range nodes {
					view = node.AppendRemoteFlows(now, 3*period, view[:0])
				}
			}
			for r := 0; r < 40; r++ {
				round(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				round(i / n)
			}
		})
	}
}
