package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/topology"
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

// system runs one workload on one deployment flavour and returns the
// measured value (bits/s or requests/s).
type system struct {
	name string
	run  func(workload func(p apps.StackProvider, eng *sim.Engine) func() float64) float64
}

// fig5Systems builds the three deployments of the accuracy experiments:
// bare metal (ground truth), Kollaps, and the Mininet baseline.
func fig5Systems(yaml string, duration time.Duration) []system {
	mk := func(name string, build func() (apps.StackProvider, *sim.Engine)) system {
		return system{name: name, run: func(workload func(apps.StackProvider, *sim.Engine) func() float64) float64 {
			p, eng := build()
			measure := workload(p, eng)
			eng.Run(duration)
			return measure()
		}}
	}
	onNetwork := func(nw network) func() (apps.StackProvider, *sim.Engine) {
		return func() (apps.StackProvider, *sim.Engine) {
			d, err := deploy(mustGraph(topology.ParseYAML(yaml)), nw)
			if err != nil {
				panic(err)
			}
			return d, d.eng
		}
	}
	return []system{
		mk("baremetal", onNetwork(baremetal)),
		mk("kollaps", func() (apps.StackProvider, *sim.Engine) {
			exp := mustKollaps(yaml, 3, nil)
			return exp, exp.Eng
		}),
		mk("mininet", onNetwork(mininet)),
	}
}

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
			long := func(p apps.StackProvider, eng *sim.Engine) func() float64 {
				cs, _, _ := p.AppStack("c1")
				_, svIP, _ := p.AppStack("sv")
				svs, _, _ := p.AppStack("sv")
				server := apps.NewIperfServer(eng, svs, 5201, false)
				apps.NewIperfClient(eng, cs, svIP, 5201, cc)
				return func() float64 { return float64(server.Received) * 8 / duration.Seconds() }
			}
			t.Rows = append(t.Rows, fig5Row("long-lived "+cc.String(), fig5Systems(fig5YAML, duration), long))

			short := func(p apps.StackProvider, eng *sim.Engine) func() float64 {
				cs, _, _ := p.AppStack("c1")
				svs, svIP, _ := p.AppStack("sv")
				apps.NewHTTPServer(svs, 80, 200, 64*1024)
				w := apps.NewWrkClient(eng, cs, svIP, 80, 100, 200, 64*1024, cc)
				return func() float64 { return float64(w.Completed) / duration.Seconds() }
			}
			t.Rows = append(t.Rows, fig5Row("short-lived "+cc.String(), fig5Systems(fig5YAML, duration), short))
		}
		return result{tables: []*Table{t}}, nil
	}
}

func fig5Row(label string, systems []system, workload func(apps.StackProvider, *sim.Engine) func() float64) Row {
	vals := make([]float64, len(systems))
	for i, s := range systems {
		vals[i] = s.run(workload)
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
			workload := func(p apps.StackProvider, eng *sim.Engine) func() float64 {
				svs, svIP, _ := p.AppStack("server")
				apps.NewHTTPServer(svs, 80, 200, 64*1024)
				cs, _, _ := p.AppStack("client")
				var curls []*apps.CurlClient
				for i := 0; i < clients; i++ {
					curls = append(curls, apps.NewCurlClient(eng, cs, svIP, 80, 200, 64*1024, transport.Cubic))
				}
				return func() float64 {
					var bytes int64
					for _, c := range curls {
						bytes += c.BytesIn
					}
					return float64(bytes) * 8 / duration.Seconds() / 1e6
				}
			}
			vals := make([]string, 3)
			for i, s := range fig5Systems(fig6YAML, duration) {
				vals[i] = fmt.Sprintf("%.1f", s.run(workload))
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
		run := func(s system) measured {
			var out measured
			s.run(func(p apps.StackProvider, eng *sim.Engine) func() float64 {
				h1s, h1IP, _ := p.AppStack("c1")
				h2s, _, _ := p.AppStack("c2")
				svs, svIP, _ := p.AppStack("sv")
				// Host 1 serves HTTP and drives iperf to host 3 (sv).
				apps.NewHTTPServer(h1s, 80, 200, 64*1024)
				server := apps.NewIperfServer(eng, svs, 5201, false)
				apps.NewIperfClient(eng, h1s, svIP, 5201, transport.Cubic)
				// Host 2 runs wrk2 against host 1 during the middle phase.
				var w *apps.WrkClient
				eng.At(phase, func() {
					w = apps.NewWrkClient(eng, h2s, h1IP, 80, 100, 200, 64*1024, transport.Cubic)
				})
				eng.At(2*phase, func() { w.Stop() })
				return func() float64 {
					out.iperfBits = float64(server.Received) * 8 / duration.Seconds()
					if w != nil {
						out.wrkReqs = float64(w.Completed) / phase.Seconds()
					}
					return 0
				}
			})
			return out
		}
		systems := fig5Systems(fig5YAML, duration)
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
