package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/topology"
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
			g := table4Graph(size)
			nodes := len(g.Services())
			vals := []string{fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", g.NumNodes()-nodes), "NA", "NA", "NA"}
			systems := []system{onKollaps(4), mininet}
			if size < 4000 {
				systems = append(systems, maxinet)
			}
			for i, sys := range systems {
				g := table4Graph(size)
				if d, err := deploy(g, sys); err == nil {
					vals[2+i] = fmt.Sprintf("%.4f", pingMSE(d, g, duration))
				}
			}
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d", size), Values: vals})
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

// pingMSE pings each reachable one of table4Pairs service pairs of g
// once a second on d, a deployment of g, and returns the MSE between the
// mean observed and the collapsed RTTs.
func pingMSE(d *deployment, g *graph.Graph, duration time.Duration) float64 {
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
		s, dstIP := d.hosts[g.Node(src).Name].stack, d.hosts[g.Node(dst).Name].ip
		h := &metrics.Histogram{}
		d.eng.Every(time.Second, func() {
			s.Ping(dstIP, 64, func(rtt time.Duration) { h.AddDuration(rtt) })
		})
		d.eng.At(duration-time.Millisecond, func() {
			if h.Count() > 0 {
				obs = append(obs, h.Mean())
				want = append(want, theo)
			}
		})
	}
	d.eng.Run(duration)
	return metrics.MSE(obs, want)
}
