package main

import (
	"container/heap"
	"math"
	"time"
)

// Oracles. The checks compare the program's outputs with models the
// harness computes itself — a closed-form RTT-weighted share, a
// progressive-filling pass over the Fig 8 link table, a Dijkstra over
// the harness's own copy of the scale-free graph — so a bug in
// repro/internal/core or repro/internal/graph cannot vouch for itself.

// Goodput is counted in payload bytes while the shapers meter on-wire
// bytes, so a flow holding its full share delivers 2.8 % (UDP, 1448 of
// 1490 bytes) or 4.4 % (TCP, 1448 of 1514) less than the model's rate;
// model_err_mean_pct sits at that offset and moves when enforcement
// drifts. The tolerances are the issue's.
const (
	goodputTolerance = 0.10
	rttTolerance     = 500 * time.Microsecond
)

// rttShares splits one link's capacity among flows in proportion to
// 1/RTT — the paper's §3 closed form, Share(f) = (RTT(f)·Σ 1/RTT(fi))⁻¹.
func rttShares(capacity float64, rtts []time.Duration) []float64 {
	var sum float64
	for _, r := range rtts {
		sum += 1 / r.Seconds()
	}
	out := make([]float64, len(rtts))
	for i, r := range rtts {
		out[i] = capacity / (r.Seconds() * sum)
	}
	return out
}

// modelFlow is one flow of the multi-link model: the links it crosses
// (indices into a capacity table) and its round-trip time.
type modelFlow struct {
	Links []int
	RTT   time.Duration
}

// maxMinShares is weighted max-min fairness with weights 1/RTT by
// progressive filling: find the link whose capacity per unit of
// unfrozen weight is smallest, freeze its flows at weight × that level,
// subtract, repeat. On a single shared link it reduces to rttShares.
func maxMinShares(caps []float64, flows []modelFlow) []float64 {
	left := append([]float64(nil), caps...)
	rate := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	for remaining := len(flows); remaining > 0; {
		best, level := -1, math.Inf(1)
		for l := range left {
			var w float64
			for i, f := range flows {
				if !frozen[i] && crosses(f, l) {
					w += 1 / f.RTT.Seconds()
				}
			}
			if w > 0 && left[l]/w < level {
				best, level = l, left[l]/w
			}
		}
		if best < 0 {
			break
		}
		for i, f := range flows {
			if frozen[i] || !crosses(f, best) {
				continue
			}
			rate[i] = level / f.RTT.Seconds()
			frozen[i] = true
			remaining--
			for _, l := range f.Links {
				left[l] -= rate[i]
			}
		}
	}
	return rate
}

func crosses(f modelFlow, link int) bool {
	for _, l := range f.Links {
		if l == link {
			return true
		}
	}
	return false
}

// fig8Model returns the expected rate (bits/s) of clients 0..active-1
// when exactly those are sending, computed from the fig8Links table:
// client i's path is ci → … → b3 → si over the unique route.
func fig8Model(active int) []float64 {
	idx := make(map[[2]string]int)
	caps := make([]float64, len(fig8Links))
	lat := make([]time.Duration, len(fig8Links))
	for i, l := range fig8Links {
		idx[[2]string{l.A, l.B}] = i
		caps[i] = float64(l.Mbps) * 1e6
		lat[i] = time.Duration(l.LatencyMs) * time.Millisecond
	}
	flows := make([]modelFlow, active)
	for i := range flows {
		c := string(rune('1' + i))
		var hops [][2]string
		if i < 3 {
			hops = [][2]string{{"c" + c, "b1"}, {"b1", "b2"}, {"b2", "b3"}, {"s" + c, "b3"}}
		} else {
			hops = [][2]string{{"c" + c, "b2"}, {"b2", "b3"}, {"s" + c, "b3"}}
		}
		var oneWay time.Duration
		for _, h := range hops {
			flows[i].Links = append(flows[i].Links, idx[h])
			oneWay += lat[idx[h]]
		}
		flows[i].RTT = 2 * oneWay
	}
	return maxMinShares(caps, flows)
}

// meshModel returns each dumbbell flow's expected rate (bits/s): the
// bottleneck is the only contended link, so the closed form applies.
func meshModel(m *meshInputs) []float64 {
	rtts := make([]time.Duration, len(m.Class))
	for i, c := range m.Class {
		oneWay := meshClassLatencyMs[c] + meshBottleneckMs + meshServerMs
		rtts[i] = 2 * time.Duration(oneWay) * time.Millisecond
	}
	return rttShares(m.BottleneckBps, rtts)
}

// latGraph is the harness's copy of the scale-free topology: node names
// interned to ints, undirected links with a mutable latency.
type latGraph struct {
	id   map[string]int
	adj  [][]latEdge
	lat  []time.Duration // per declared link
	dist []time.Duration // Dijkstra scratch
	pq   distHeap
}

type latEdge struct{ to, link int }

func newLatGraph(links []flapLink) *latGraph {
	g := &latGraph{id: make(map[string]int)}
	node := func(name string) int {
		n, ok := g.id[name]
		if !ok {
			n = len(g.adj)
			g.id[name] = n
			g.adj = append(g.adj, nil)
		}
		return n
	}
	for i, l := range links {
		a, b := node(l.A), node(l.B)
		g.adj[a] = append(g.adj[a], latEdge{b, i})
		g.adj[b] = append(g.adj[b], latEdge{a, i})
		g.lat = append(g.lat, l.Latency)
	}
	g.dist = make([]time.Duration, len(g.adj))
	return g
}

const unreachable = time.Duration(math.MaxInt64)

// latency is the shortest one-way latency src→dst (links are
// symmetric, so it is also dst→src), or unreachable.
func (g *latGraph) latency(src, dst string) time.Duration {
	s, ok1 := g.id[src]
	d, ok2 := g.id[dst]
	if !ok1 || !ok2 {
		return unreachable
	}
	for i := range g.dist {
		g.dist[i] = unreachable
	}
	g.dist[s] = 0
	g.pq = append(g.pq[:0], distItem{s, 0})
	for len(g.pq) > 0 {
		it := heap.Pop(&g.pq).(distItem)
		if it.d > g.dist[it.n] {
			continue
		}
		if it.n == d {
			return it.d
		}
		for _, e := range g.adj[it.n] {
			if nd := it.d + g.lat[e.link]; nd < g.dist[e.to] {
				g.dist[e.to] = nd
				heap.Push(&g.pq, distItem{e.to, nd})
			}
		}
	}
	return unreachable
}

type distItem struct {
	n int
	d time.Duration
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
