package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/aws"
	"repro/internal/units"
)

// fig4 reproduces Figure 4: a geo-distributed memcached deployment
// (4 emulated AWS regions, one server and three clients per region, each
// server handling two local clients and one remote) emulated on each of
// the given numbers of physical hosts, once with 1 and once with 10
// connections per client. The aggregate client throughput must stay
// constant as the emulation spreads over more hosts, while metadata
// traffic per host stays modest.
func fig4(duration time.Duration, hostCounts []int) runner {
	return func(string) (result, error) {
		return result{tables: []*Table{
			fig4Table(duration, hostCounts, 1),
			fig4Table(duration, hostCounts, 10),
		}}, nil
	}
}

// fig4Table runs Figure 4 with connsPerClient connections per client.
func fig4Table(duration time.Duration, hostCounts []int, connsPerClient int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: geo-distributed memcached, %d conn/client", connsPerClient),
		Columns: []string{"agg ops/s", "metadata KB/s/host"},
	}
	regions := aws.WheatRegions()[:4]
	var services []aws.GeoService
	for i, r := range regions {
		services = append(services, aws.GeoService{Name: fmt.Sprintf("mc%d", i), Region: r})
		for j := 0; j < 3; j++ {
			services = append(services, aws.GeoService{Name: fmt.Sprintf("cl%d-%d", i, j), Region: r})
		}
	}
	top, err := aws.GeoTopology(services, 10*units.Gbps, 1)
	if err != nil {
		panic(err)
	}
	for _, hosts := range hostCounts {
		exp := mustKollaps(top, hosts, nil)
		var clients []*apps.MemtierClient
		for i := range regions {
			srv, _ := exp.Container(fmt.Sprintf("mc%d", i))
			apps.NewKVServer(exp.Eng, srv.Stack, 11211)
			// Two local clients and one remote (from the next region).
			for j := 0; j < 2; j++ {
				cl, _ := exp.Container(fmt.Sprintf("cl%d-%d", i, j))
				clients = append(clients, apps.NewMemtierClient(exp.Eng, cl.Stack, srv.IP, 11211, connsPerClient))
			}
			remote, _ := exp.Container(fmt.Sprintf("cl%d-2", (i+1)%len(regions)))
			clients = append(clients, apps.NewMemtierClient(exp.Eng, remote.Stack, srv.IP, 11211, connsPerClient))
		}
		exp.Run(duration)
		var total int64
		for _, c := range clients {
			total += c.Completed
		}
		sent, _ := exp.MetadataTraffic()
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d hosts", hosts),
			Values: []string{
				fmt.Sprintf("%.0f", float64(total)/duration.Seconds()),
				fmt.Sprintf("%.2f", float64(sent)/duration.Seconds()/1024/float64(hosts)),
			},
		})
	}
	return t
}
