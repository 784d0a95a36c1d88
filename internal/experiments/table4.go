package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
)

// table4Pairs is how many random service pairs each Table 4 system pings.
const table4Pairs = 50

// table4 reproduces Table 4: mean squared error between observed ping
// RTTs and the theoretical ones on large preferential-attachment
// topologies of the given sizes, for Kollaps (4 hosts), Mininet (single
// host, 1000 elements only) and Maxinet (4 workers + external
// controllers).
func table4(sizes []int, duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Table 4: latency MSE on scale-free topologies (ms^2)",
			Columns: []string{"#Nodes", "#Switches", "Kollaps", "Mininet", "Maxinet"},
		}
		for _, size := range sizes {
			gK := table4Graph(size)
			nodes := len(gK.Services())
			switches := gK.NumNodes() - nodes

			kMSE := table4Kollaps(gK, duration)
			mCell := "NA"
			if size <= baselines.MininetMaxElements {
				mMSE, ok := table4Mininet(table4Graph(size), duration)
				if ok {
					mCell = fmt.Sprintf("%.4f", mMSE)
				}
			}
			xCell := "NA"
			if size < 4000 {
				xCell = fmt.Sprintf("%.4f", table4Maxinet(table4Graph(size), duration))
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%d", size),
				Values: []string{
					fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", switches),
					fmt.Sprintf("%.4f", kMSE), mCell, xCell,
				},
			})
		}
		return result{tables: []*Table{t}}, nil
	}
}

func table4Graph(size int) *graph.Graph {
	return graph.ScaleFree(graph.ScaleFreeOptions{
		Elements:     size,
		EdgesPerNode: 2,
		LinkProps:    graph.LinkProps{Latency: 2 * time.Millisecond, Bandwidth: units.Gbps},
		Rand:         rand.New(rand.NewSource(int64(size))),
	})
}

// pingPair selects deterministic random service pairs.
func pingPairs(g *graph.Graph, n int, seed int64) [][2]graph.NodeID {
	svcs := g.Services()
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]graph.NodeID, 0, n)
	for len(out) < n {
		a := svcs[rng.Intn(len(svcs))]
		b := svcs[rng.Intn(len(svcs))]
		if a != b {
			out = append(out, [2]graph.NodeID{a, b})
		}
	}
	return out
}

func table4Kollaps(g *graph.Graph, duration time.Duration) float64 {
	eng := sim.NewEngine(42)
	rt, err := core.NewRuntime(eng, g, 4, nil, core.Options{})
	if err != nil {
		panic(err)
	}
	rt.Start()
	col := rt.State().Collapsed
	var obs, want []float64
	for _, pr := range pingPairs(g, table4Pairs, 7) {
		src, dst := pr[0], pr[1]
		p := col.Path(src, dst)
		rev := col.Path(dst, src)
		if p == nil || rev == nil {
			continue
		}
		theo := (p.Latency + rev.Latency).Seconds() * 1000
		srcC := containerByNode(rt, src)
		dstC := containerByNode(rt, dst)
		h := &metrics.Histogram{}
		eng.Every(time.Second, func() {
			srcC.Stack.Ping(dstC.IP, 64, func(rtt time.Duration) { h.AddDuration(rtt) })
		})
		collect := func() {
			if h.Count() > 0 {
				obs = append(obs, h.Mean())
				want = append(want, theo)
			}
		}
		eng.At(duration-time.Millisecond, collect)
	}
	eng.Run(duration)
	return metrics.MSE(obs, want)
}

func containerByNode(rt *core.Runtime, node graph.NodeID) *core.Container {
	for _, c := range rt.Containers() {
		if c.Node == node {
			return c
		}
	}
	return nil
}

// fabricPingMSE drives pings over any fabric-based network and compares to
// the theoretical collapsed RTT.
func fabricPingMSE(eng *sim.Engine, nw *fabric.Network, g *graph.Graph, duration time.Duration) float64 {
	col := topology.Collapse(g)
	stacks := make(map[graph.NodeID]*transport.Stack)
	ips := make(map[graph.NodeID]packet.IP)
	idx := 0
	ensure := func(n graph.NodeID) {
		if _, ok := stacks[n]; ok {
			return
		}
		ip := packet.MakeIP(byte(idx/60000), byte(idx/250%250), byte(idx%250))
		idx++
		nw.AttachEndpoint(n, ip, nil)
		stacks[n] = transport.NewStack(eng, nw, ip)
		ips[n] = ip
	}
	var obs, want []float64
	for _, pr := range pingPairs(g, table4Pairs, 7) {
		src, dst := pr[0], pr[1]
		p := col.Path(src, dst)
		rev := col.Path(dst, src)
		if p == nil || rev == nil {
			continue
		}
		ensure(src)
		ensure(dst)
		theo := (p.Latency + rev.Latency).Seconds() * 1000
		h := &metrics.Histogram{}
		s, d := stacks[src], ips[dst]
		eng.Every(time.Second, func() {
			s.Ping(d, 64, func(rtt time.Duration) { h.AddDuration(rtt) })
		})
		eng.At(duration-time.Millisecond, func() {
			if h.Count() > 0 {
				obs = append(obs, h.Mean())
				want = append(want, theo)
			}
		})
	}
	eng.Run(duration)
	return metrics.MSE(obs, want)
}

func table4Mininet(g *graph.Graph, duration time.Duration) (float64, bool) {
	eng := sim.NewEngine(42)
	mn, err := baselines.NewMininet(eng, g)
	if err != nil {
		return 0, false
	}
	return fabricPingMSE(eng, mn.Network, g, duration), true
}

func table4Maxinet(g *graph.Graph, duration time.Duration) float64 {
	eng := sim.NewEngine(42)
	mx := baselines.NewMaxinet(eng, g)
	return fabricPingMSE(eng, mx.Network, g, duration)
}
