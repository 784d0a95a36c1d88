package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/transport"
)

// fig3Config is one dumbbell configuration of Figure 3.
type fig3Config struct{ Containers, Flows int }

// fig3Configs are the paper's (containers, flows) tuples.
var fig3Configs = []fig3Config{
	{20, 10}, {40, 10}, {40, 20}, {80, 10}, {80, 20}, {80, 40},
	{160, 10}, {160, 20}, {160, 40}, {160, 80},
}

// fig3Hosts are the physical host counts of Figure 3's columns.
var fig3Hosts = []int{1, 2, 3, 4}

// fig3 reproduces Figure 3: Kollaps metadata network usage on dumbbell
// topologies with varying containers, flows and hosts. Metadata traffic
// must grow with hosts, not with containers.
func fig3(duration time.Duration, configs []fig3Config) runner {
	return func(string) (result, error) {
		cols := make([]string, len(fig3Hosts))
		for i, h := range fig3Hosts {
			cols[i] = fmt.Sprintf("%d hosts", h)
		}
		t := &Table{
			Title:   "Figure 3: metadata network traffic (KB/s total)",
			Columns: cols,
		}
		for _, cfg := range configs {
			vals := make([]string, len(fig3Hosts))
			for i, h := range fig3Hosts {
				rate := fig3Run(cfg, h, duration)
				vals[i] = fmt.Sprintf("%.1f", rate/1024)
			}
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("c=%d f=%d", cfg.Containers, cfg.Flows),
				Values: vals,
			})
		}
		return result{tables: []*Table{t}}, nil
	}
}

// fig3Run deploys one dumbbell and returns total metadata bytes/s sent.
func fig3Run(cfg fig3Config, hosts int, duration time.Duration) float64 {
	side := cfg.Containers / 2
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for i := 0; i < side; i++ {
		fmt.Fprintf(&b, "    name: c%d\n", i)
	}
	for i := 0; i < side; i++ {
		fmt.Fprintf(&b, "    name: sv%d\n", i)
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n  links:\n")
	b.WriteString("    orig: b1\n    dest: b2\n    latency: 5\n    up: 50Mbps\n")
	for i := 0; i < side; i++ {
		fmt.Fprintf(&b, "    orig: c%d\n    dest: b1\n    latency: 1\n    up: 100Mbps\n", i)
		fmt.Fprintf(&b, "    orig: sv%d\n    dest: b2\n    latency: 1\n    up: 100Mbps\n", i)
	}
	exp := mustKollaps(mustYAML(b.String()), hosts, nil)
	for f := 0; f < cfg.Flows && f < side; f++ {
		cli, _ := exp.Container(fmt.Sprintf("c%d", f))
		srv, _ := exp.Container(fmt.Sprintf("sv%d", f))
		apps.NewIperfServer(exp.Eng, srv.Stack, 5201, false)
		apps.NewIperfClient(exp.Eng, cli.Stack, srv.IP, 5201, transport.Cubic)
	}
	exp.Run(duration)
	sent, _ := exp.MetadataTraffic()
	return float64(sent) / duration.Seconds()
}
