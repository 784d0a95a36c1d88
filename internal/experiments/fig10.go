package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/aws"
	"repro/internal/topology"
	"repro/internal/units"
)

// fig10Geo builds the §5.6 Cassandra deployment: 4 replica pairs
// (local coordinator in Frankfurt, remote copy in Sydney — or Seoul for
// the what-if, at latencyScale 0.5) plus 4 YCSB clients in Frankfurt.
func fig10Geo(latencyScale float64) *topology.Topology {
	var services []aws.GeoService
	for i := 0; i < 4; i++ {
		services = append(services,
			aws.GeoService{Name: fmt.Sprintf("local-%d", i), Region: aws.EUCentral1},
			aws.GeoService{Name: fmt.Sprintf("remote-%d", i), Region: aws.APSoutheast2},
			aws.GeoService{Name: fmt.Sprintf("ycsb-%d", i), Region: aws.EUCentral1},
		)
	}
	top, err := aws.GeoTopology(services, units.Gbps, latencyScale)
	if err != nil {
		panic(err)
	}
	return top
}

// fig10Point runs the YCSB workload at one aggregate target rate and
// returns (achieved ops/s, mean read ms, mean update ms, overall ms).
func fig10Point(d *deployment, totalRate float64, duration time.Duration) (float64, float64, float64, float64) {
	cl, err := apps.DeployCassandra(d.eng, d, 4, totalRate/4)
	if err != nil {
		panic(err)
	}
	d.eng.Run(duration)
	var done int64
	var readSum, updSum float64
	var reads, upds int
	for _, y := range cl.Clients {
		done += y.Completed
		readSum += y.ReadLat.Mean() * float64(y.ReadLat.Count())
		updSum += y.UpdateLat.Mean() * float64(y.UpdateLat.Count())
		reads += y.ReadLat.Count()
		upds += y.UpdateLat.Count()
	}
	if reads+upds == 0 {
		return 0, 0, 0, 0
	}
	// Each kind's mean is over its own completions: updates wait on the
	// remote replica, so fewer of them complete than reads.
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return float64(done) / duration.Seconds(), mean(readSum, reads), mean(updSum, upds), mean(readSum+updSum, reads+upds)
}

// fig10Targets are Figure 10's aggregate YCSB target rates (ops/s).
var fig10Targets = []float64{500, 1000, 2000, 3000, 4000, 5000}

// fig10 reproduces Figure 10: the throughput/latency curve of the
// geo-replicated Cassandra on "EC2" (the bare-metal ground truth fabric)
// versus Kollaps.
func fig10(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Figure 10: geo-replicated Cassandra + YCSB, EC2 vs Kollaps",
			Columns: []string{"EC2 ops/s", "EC2 lat(ms)", "Kollaps ops/s", "Kollaps lat(ms)"},
		}
		for _, target := range fig10Targets {
			// "EC2": the target topology as a physical network.
			e2tp, _, _, e2lat := fig10Point(mustDeploy(fig10Geo(1), baremetal), target, duration)
			ktp, _, _, klat := fig10Point(mustDeploy(fig10Geo(1), onKollaps(5)), target, duration)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("target %.0f", target),
				Values: []string{
					fmt.Sprintf("%.0f", e2tp), fmt.Sprintf("%.1f", e2lat),
					fmt.Sprintf("%.0f", ktp), fmt.Sprintf("%.1f", klat),
				},
			})
		}
		return result{tables: []*Table{t}}, nil
	}
}

// fig11 reproduces Figure 11: the what-if of halving all inter-region
// latencies (moving the Sydney replicas to Seoul): read/update latencies
// at the original and halved topologies, at Figure 10's target rates
// up to 4000 ops/s.
func fig11(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Figure 11: what-if halved latency (Sydney -> Seoul)",
			Columns: []string{"orig read(ms)", "orig update(ms)", "halved read(ms)", "halved update(ms)", "orig ops/s", "halved ops/s"},
		}
		for _, target := range fig10Targets[:5] {
			ftp, fr, fu, _ := fig10Point(mustDeploy(fig10Geo(1), onKollaps(5)), target, duration)
			htp, hr, hu, _ := fig10Point(mustDeploy(fig10Geo(0.5), onKollaps(5)), target, duration)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("target %.0f", target),
				Values: []string{
					fmt.Sprintf("%.1f", fr), fmt.Sprintf("%.1f", fu),
					fmt.Sprintf("%.1f", hr), fmt.Sprintf("%.1f", hu),
					fmt.Sprintf("%.0f", ftp), fmt.Sprintf("%.0f", htp),
				},
			})
		}
		return result{tables: []*Table{t}}, nil
	}
}
