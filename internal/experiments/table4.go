package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
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
			if mMSE, err := table4System(table4Graph(size), mininet, duration); err == nil {
				mCell = fmt.Sprintf("%.4f", mMSE)
			}
			xCell := "NA"
			if size < 4000 {
				if xMSE, err := table4System(table4Graph(size), maxinet, duration); err == nil {
					xCell = fmt.Sprintf("%.4f", xMSE)
				}
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
	return pingMSE(eng, g, func(name string) (*transport.Stack, packet.IP) {
		c, _ := rt.Container(name)
		return c.Stack, c.IP
	}, duration)
}

// table4System is Table 4's cell for a non-Kollaps system; it errors
// when the system refuses the topology.
func table4System(g *graph.Graph, nw network, duration time.Duration) (float64, error) {
	d, err := deploy(g, nw)
	if err != nil {
		return 0, err
	}
	return pingMSE(d.eng, g, func(name string) (*transport.Stack, packet.IP) {
		h := d.hosts[name]
		return h.stack, h.ip
	}, duration), nil
}

// pingMSE pings each reachable one of table4Pairs service pairs once a
// second, through the stacks that stack looks up by service name, and
// returns the MSE between the mean observed and the collapsed RTTs.
func pingMSE(eng *sim.Engine, g *graph.Graph, stack func(name string) (*transport.Stack, packet.IP), duration time.Duration) float64 {
	col := topology.Collapse(g)
	var obs, want []float64
	for _, pr := range pingPairs(g, table4Pairs, 7) {
		src, dst := pr[0], pr[1]
		p := col.Path(src, dst)
		rev := col.Path(dst, src)
		if p == nil || rev == nil {
			continue
		}
		theo := (p.Latency + rev.Latency).Seconds() * 1000
		s, _ := stack(g.Node(src).Name)
		_, d := stack(g.Node(dst).Name)
		h := &metrics.Histogram{}
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
