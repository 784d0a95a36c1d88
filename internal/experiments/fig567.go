package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/transport"
)

// fig5YAML is the three-host / 1 Gb/s switch topology of §5.3.
const fig5YAML = `
experiment:
  services:
    name: c1
    name: c2
    name: sv
  bridges:
    name: sw
  links:
    orig: c1
    dest: sw
    latency: 0.2
    up: 1Gbps
    orig: c2
    dest: sw
    latency: 0.2
    up: 1Gbps
    orig: sv
    dest: sw
    latency: 0.2
    up: 1Gbps
`

// fig5Systems are the three systems of the accuracy experiments, in
// column order: bare metal (the ground truth), Kollaps on 3 hosts, and
// the Mininet baseline.
func fig5Systems() []system { return []system{baremetal, onKollaps(3), mininet} }

// fig5 reproduces Figure 5: deviation of Kollaps and Mininet from the
// bare-metal baseline for long-lived (iperf) and short-lived (wrk2) flows
// under Cubic and Reno.
func fig5(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Figure 5: deviation from bare-metal (1 Gb/s switch)",
			Columns: []string{"baremetal", "kollaps", "mininet", "kollaps dev", "mininet dev"},
		}
		for _, cc := range []transport.CongestionControl{transport.Cubic, transport.Reno} {
			cc := cc
			long := func(d *deployment) float64 { return iperf(d, cc, duration) }
			t.Rows = append(t.Rows, fig5Row("long-lived "+cc.String(), long))

			short := func(d *deployment) float64 {
				c1, sv := d.hosts["c1"], d.hosts["sv"]
				apps.NewHTTPServer(sv.stack, 80, 200, 64*1024)
				w := apps.NewWrkClient(d.eng, c1.stack, sv.ip, 80, 100, 200, 64*1024, cc)
				d.eng.Run(duration)
				return float64(w.Completed) / duration.Seconds()
			}
			t.Rows = append(t.Rows, fig5Row("short-lived "+cc.String(), short))
		}
		return result{tables: []*Table{t}}, nil
	}
}

// iperf runs one iperf flow from c1 to sv under cc for dur, the workload
// of Table 2 and of Figure 5's long-lived rows, and returns its goodput
// in bits/s.
func iperf(d *deployment, cc transport.CongestionControl, dur time.Duration) float64 {
	c1, sv := d.hosts["c1"], d.hosts["sv"]
	server := apps.NewIperfServer(d.eng, sv.stack, 5201, false)
	apps.NewIperfClient(d.eng, c1.stack, sv.ip, 5201, cc)
	d.eng.Run(dur)
	return float64(server.Received) * 8 / dur.Seconds()
}

// fig5Row runs workload, which returns what it measured, on each of
// Figure 5's systems.
func fig5Row(label string, workload func(*deployment) float64) Row {
	var vals [3]float64
	for i, sys := range fig5Systems() {
		vals[i] = workload(mustDeploy(mustYAML(fig5YAML), sys))
	}
	dev := func(v float64) string {
		if vals[0] == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", math.Abs(1-v/vals[0])*100)
	}
	return Row{Label: label, Values: []string{
		fmt.Sprintf("%.3g", vals[0]), fmt.Sprintf("%.3g", vals[1]), fmt.Sprintf("%.3g", vals[2]),
		dev(vals[1]), dev(vals[2]),
	}}
}

// fig6YAML is the 100 Mb/s HTTP topology of §5.3's curl experiment.
const fig6YAML = `
experiment:
  services:
    name: server
    name: client
  bridges:
    name: sw
  links:
    orig: server
    dest: sw
    latency: 0.5
    up: 100Mbps
    orig: client
    dest: sw
    latency: 0.5
    up: 100Mbps
`

// fig6 reproduces Figure 6: HTTP server throughput with 1-8 curl
// clients (a new connection per request) on bare metal, Kollaps and
// Mininet. Mininet's per-connection switch-state cost makes it collapse as
// client count grows.
func fig6(duration time.Duration) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Figure 6: HTTP throughput (Mb/s) vs concurrent curl clients",
			Columns: []string{"baremetal", "kollaps", "mininet"},
		}
		for _, clients := range []int{1, 2, 4, 8} {
			clients := clients
			vals := make([]string, 3)
			for i, sys := range fig5Systems() {
				d := mustDeploy(mustYAML(fig6YAML), sys)
				server, client := d.hosts["server"], d.hosts["client"]
				apps.NewHTTPServer(server.stack, 80, 200, 64*1024)
				var curls []*apps.CurlClient
				for j := 0; j < clients; j++ {
					curls = append(curls, apps.NewCurlClient(d.eng, client.stack, server.ip, 80, 200, 64*1024, transport.Cubic))
				}
				d.eng.Run(duration)
				var bytes int64
				for _, c := range curls {
					bytes += c.BytesIn
				}
				vals[i] = fmt.Sprintf("%.1f", float64(bytes)*8/duration.Seconds()/1e6)
			}
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%dx curl", clients), Values: vals})
		}
		return result{tables: []*Table{t}}, nil
	}
}

// fig7 reproduces Figure 7: mixed long- and short-lived flows across
// three hosts; the wrk2 client is active only in the middle third of the
// run. Reported is the deviation of each system from bare metal for the
// long flow's bytes and the short flow's completed requests, per phase.
func fig7(phase time.Duration) runner {
	return func(string) (result, error) {
		duration := 3 * phase
		type measured struct{ iperfBits, wrkReqs float64 }
		run := func(sys system) measured {
			d := mustDeploy(mustYAML(fig5YAML), sys)
			h1, h2, sv := d.hosts["c1"], d.hosts["c2"], d.hosts["sv"]
			// Host 1 serves HTTP and drives iperf to host 3 (sv).
			apps.NewHTTPServer(h1.stack, 80, 200, 64*1024)
			server := apps.NewIperfServer(d.eng, sv.stack, 5201, false)
			apps.NewIperfClient(d.eng, h1.stack, sv.ip, 5201, transport.Cubic)
			// Host 2 runs wrk2 against host 1 during the middle phase.
			var w *apps.WrkClient
			d.eng.At(phase, func() {
				w = apps.NewWrkClient(d.eng, h2.stack, h1.ip, 80, 100, 200, 64*1024, transport.Cubic)
			})
			d.eng.At(2*phase, func() { w.Stop() })
			d.eng.Run(duration)
			out := measured{iperfBits: float64(server.Received) * 8 / duration.Seconds()}
			if w != nil {
				out.wrkReqs = float64(w.Completed) / phase.Seconds()
			}
			return out
		}
		systems := fig5Systems()
		base := run(systems[0])
		kol := run(systems[1])
		mn := run(systems[2])
		dev := func(v, b float64) string {
			if b == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1f%%", math.Abs(1-v/b)*100)
		}
		t := &Table{
			Title:   "Figure 7: mixed flows — deviation from bare-metal",
			Columns: []string{"baremetal", "kollaps", "mininet", "kollaps dev", "mininet dev"},
		}
		t.Rows = append(t.Rows,
			Row{Label: "iperf (Mb/s avg)", Values: []string{
				fmt.Sprintf("%.1f", base.iperfBits/1e6), fmt.Sprintf("%.1f", kol.iperfBits/1e6),
				fmt.Sprintf("%.1f", mn.iperfBits/1e6),
				dev(kol.iperfBits, base.iperfBits), dev(mn.iperfBits, base.iperfBits)}},
			Row{Label: "wrk2 (req/s)", Values: []string{
				fmt.Sprintf("%.0f", base.wrkReqs), fmt.Sprintf("%.0f", kol.wrkReqs),
				fmt.Sprintf("%.0f", mn.wrkReqs),
				dev(kol.wrkReqs, base.wrkReqs), dev(mn.wrkReqs, base.wrkReqs)}},
		)
		return result{tables: []*Table{t}}, nil
	}
}
