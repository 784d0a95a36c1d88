package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/aws"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/units"
)

// fig9 reproduces Figure 9: client latencies (50th/90th percentile) of
// BFT-SMaRt (4 replicas) and Wheat (5 replicas, weighted votes) deployed
// across five EC2 regions, emulated by Kollaps from the measured
// inter-region latency matrix. One replica and one client per region.
func fig9(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Figure 9: BFT-SMaRt (B) and Wheat (W) client latency (ms)",
			Columns: []string{"B p50", "B p90", "W p50", "W p90"},
		}
		regions := aws.WheatRegions()
		bft := fig9Run(regions[:4], apps.SMRConfig{}, duration)
		wheat := fig9Run(regions, apps.WheatWeights(5), duration)
		for i, r := range regions {
			t.Rows = append(t.Rows, Row{Label: string(r), Values: []string{
				fmt.Sprintf("%.0f", bft[i].Percentile(50)), fmt.Sprintf("%.0f", bft[i].Percentile(90)),
				fmt.Sprintf("%.0f", wheat[i].Percentile(50)), fmt.Sprintf("%.0f", wheat[i].Percentile(90)),
			}})
		}
		return result{tables: []*Table{t}}, nil
	}
}

// fig9Run deploys replicas in replicaRegions and one client in each of
// the five regions; returns each client's latency histogram.
func fig9Run(replicaRegions []aws.Region, cfg apps.SMRConfig, duration time.Duration) []*metrics.Histogram {
	var services []aws.GeoService
	for i, r := range replicaRegions {
		services = append(services, aws.GeoService{Name: fmt.Sprintf("replica-%d", i), Region: r})
	}
	clientRegions := aws.WheatRegions()
	for i, r := range clientRegions {
		services = append(services, aws.GeoService{Name: fmt.Sprintf("client-%d", i), Region: r})
	}
	top, err := aws.GeoTopology(services, units.Gbps, 1)
	if err != nil {
		panic(err)
	}
	d := mustDeploy(top, onKollaps(5))
	var ips []packet.IP
	for i := range replicaRegions {
		ips = append(ips, d.hosts[fmt.Sprintf("replica-%d", i)].ip)
	}
	for i := range replicaRegions {
		apps.NewSMRReplica(d.eng, d.hosts[fmt.Sprintf("replica-%d", i)].stack, i, ips, cfg)
	}
	var clients []*apps.SMRClient
	for i := range clientRegions {
		clients = append(clients, apps.NewSMRClient(d.eng, d.hosts[fmt.Sprintf("client-%d", i)].stack, i, ips, 1))
	}
	d.eng.Run(duration)
	out := make([]*metrics.Histogram, len(clients))
	for i, c := range clients {
		c.Stop()
		out[i] = &c.Latencies
	}
	return out
}
