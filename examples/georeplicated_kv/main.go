// Geo-replicated store: the §5.6 Cassandra-style deployment — coordinators
// in Frankfurt replicating to Sydney, YCSB clients issuing a 50/50
// read/update mix. Reads are served locally (ONE); updates wait for the
// cross-region quorum, so their latency carries the Frankfurt-Sydney RTT.
// Then the Figure 11 what-if: the same system with all latencies halved.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/aws"
	"repro/internal/units"
	"repro/kollaps"
)

func run(latencyScale float64) (readP50, updateP50, opsPerSec float64) {
	var services []aws.GeoService
	for i := 0; i < 2; i++ {
		services = append(services,
			aws.GeoService{Name: fmt.Sprintf("local-%d", i), Region: aws.EUCentral1},
			aws.GeoService{Name: fmt.Sprintf("remote-%d", i), Region: aws.APSoutheast2},
			aws.GeoService{Name: fmt.Sprintf("ycsb-%d", i), Region: aws.EUCentral1},
		)
	}
	top, err := aws.GeoTopology(services, units.Gbps, latencyScale)
	if err != nil {
		log.Fatal(err)
	}
	exp := &kollaps.Experiment{Topology: top}
	if err := exp.Deploy(3); err != nil {
		log.Fatal(err)
	}
	cluster, err := apps.DeployCassandra(exp.Eng, exp, 2, 100)
	if err != nil {
		log.Fatal(err)
	}
	const d = 30 * time.Second
	exp.Run(d)
	y := cluster.Clients[0]
	return y.ReadLat.Percentile(50), y.UpdateLat.Percentile(50), cluster.Throughput(d)
}

func main() {
	r1, u1, t1 := run(1)
	fmt.Println("Frankfurt/Sydney deployment (measured EC2 latencies):")
	fmt.Printf("  read p50 %.1f ms   update p50 %.1f ms   throughput %.0f ops/s\n", r1, u1, t1)

	r2, u2, t2 := run(0.5)
	fmt.Println("What-if: all inter-region latencies halved (Sydney -> Seoul):")
	fmt.Printf("  read p50 %.1f ms   update p50 %.1f ms   throughput %.0f ops/s\n", r2, u2, t2)
	fmt.Printf("Update latency ratio: %.2f (the paper's Figure 11 expectation: ~0.5)\n", u2/u1)
}
