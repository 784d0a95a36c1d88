package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/transport"
	"repro/internal/units"
)

// Table2Rates are the emulated link capacities of Table 2.
var Table2Rates = []units.Bandwidth{
	128 * units.Kbps, 256 * units.Kbps, 512 * units.Kbps,
	128 * units.Mbps, 256 * units.Mbps, 512 * units.Mbps,
	1 * units.Gbps, 2 * units.Gbps, 4 * units.Gbps,
}

// table2 reproduces Table 2: bandwidth shaping accuracy of Kollaps,
// Mininet and Trickle (default and tuned) on a point-to-point client/server
// topology, one iperf flow per target rate.
func table2(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Table 2: bandwidth shaping accuracy (iperf goodput vs nominal)",
			Columns: []string{"Kollaps", "Mininet", "trickle(def.)", "trickle(tuned)"},
		}
		for _, rate := range Table2Rates {
			k := iperf(mustDeploy(mustYAML(table2Topology(rate)), onKollaps(2)), transport.Cubic, duration)
			mCell := "N/A" // >1Gb/s: the real tool refuses too
			if mn, err := deploy(mustGraph(mustYAML(table2Topology(rate))), mininet); err == nil {
				m := iperf(mn, transport.Cubic, duration)
				mCell = fmt.Sprintf("%s (%s)", mbps(m), pct(m, float64(rate)))
			}
			td := table2Trickle(rate, duration, baselines.TrickleOptions{Window: 5 * time.Second})
			tt := table2Trickle(rate, duration, baselines.Tuned(rate))
			t.Rows = append(t.Rows, Row{
				Label: rate.String(),
				Values: []string{
					fmt.Sprintf("%s (%s)", mbps(k), pct(k, float64(rate))),
					mCell,
					fmt.Sprintf("%s (%s)", mbps(td), pct(td, float64(rate))),
					fmt.Sprintf("%s (%s)", mbps(tt), pct(tt, float64(rate))),
				},
			})
		}
		return result{tables: []*Table{t}}, nil
	}
}

// table2Topology is the point-to-point client/server description.
func table2Topology(rate units.Bandwidth) string {
	return fmt.Sprintf(`
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "iperf"
  links:
    orig: c1
    dest: sv
    latency: 1
    up: %s
    down: %s
`, rate, rate)
}

func table2Trickle(rate units.Bandwidth, d time.Duration, opt baselines.TrickleOptions) float64 {
	// Trickle shapes in userspace over an *unshaped* fat path.
	bm := mustDeploy(mustYAML(table2Topology(10*units.Gbps)), baremetal)
	c1, sv := bm.hosts["c1"], bm.hosts["sv"]
	server := apps.NewIperfServer(bm.eng, sv.stack, 5201, false)
	conn := c1.stack.Dial(sv.ip, 5201, transport.Cubic)
	sh := baselines.NewTrickle(bm.eng, conn, rate, opt)
	need := int64(rate.Bps()*d.Seconds()*4) + 1<<20
	sh.Write(int(need))
	bm.eng.Run(d)
	return float64(server.Received) * 8 / d.Seconds()
}
