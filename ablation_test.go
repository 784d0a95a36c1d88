// Ablation benchmark for a design choice DESIGN.md calls out: the
// Emulation Manager period, which bounds the shortest shapeable flows (§6).
package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/units"
)

const ablationYAML = `
experiment:
  services:
    name: c1
    name: c2
    name: s1
    name: s2
  bridges:
    name: b1
  links:
    orig: c1
    dest: b1
    latency: 10
    up: 100Mbps
    orig: c2
    dest: b1
    latency: 5
    up: 100Mbps
    orig: s1
    dest: b1
    latency: 5
    up: 100Mbps
    orig: s2
    dest: b1
    latency: 5
    up: 100Mbps
`

// ablationRun measures how quickly two competing flows converge to within
// 10% of their model shares after the second starts, for a given EM period.
func ablationRun(b *testing.B, period time.Duration) time.Duration {
	b.Helper()
	top, err := topology.ParseYAML(ablationYAML)
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(42)
	rt, err := core.NewRuntimeFromTopology(eng, top, 2, nil, core.Options{Period: period})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	c1, _ := rt.Container("c1")
	c2, _ := rt.Container("c2")
	s1, _ := rt.Container("s1")
	s2, _ := rt.Container("s2")
	_ = apps.NewIperfServer(eng, s1.Stack, 5201, false)
	apps.NewIperfClient(eng, c1.Stack, s1.IP, 5201, transport.Cubic)
	var srv2 *apps.IperfServer
	eng.At(5*time.Second, func() {
		srv2 = apps.NewIperfServer(eng, s2.Stack, 5202, false)
		apps.NewIperfClient(eng, c2.Stack, s2.IP, 5202, transport.Cubic)
	})
	// The flows use disjoint access and server links, so flow 2's
	// allocation is its own 100 Mb/s ceiling; convergence time measures
	// how quickly the EM's usage-driven demand estimation opens the htb
	// from idle to full rate after the flow appears.
	var last2 int64
	var converged time.Duration
	eng.Every(period, func() {
		if srv2 == nil || converged != 0 {
			last2 = srv2Received(srv2)
			return
		}
		d2 := float64(srv2Received(srv2)-last2) * 8 / period.Seconds()
		if d2 > 0.9*0.956*float64(100*units.Mbps) {
			converged = eng.Now() - 5*time.Second
		}
		last2 = srv2Received(srv2)
	})
	eng.Run(30 * time.Second)
	if converged == 0 {
		converged = 25 * time.Second
	}
	return converged
}

func srv2Received(s *apps.IperfServer) int64 {
	if s == nil {
		return 0
	}
	return s.Received
}

func BenchmarkAblationEMPeriod(b *testing.B) {
	for _, period := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond} {
		period := period
		b.Run(fmt.Sprintf("period=%v", period), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += ablationRun(b, period)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/convergence")
		})
	}
}
