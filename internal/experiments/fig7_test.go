package experiments

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestFig7SplitsPerDestination pins why Kollaps deviates from bare metal
// in Figure 7. In the middle phase c1's uplink carries one iperf
// connection to sv and the responses of wrk2's 100 connections to c2.
// Bare-metal TCP splits the link per connection, so wrk2 takes almost
// all of it. Kollaps shares bandwidth per (container, destination) pair
// with weight 1 each (Manager.collectLocal), so it splits the link
// evenly between sv and c2. See DESIGN.md, "Mixed flows share per
// destination".
func TestFig7SplitsPerDestination(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 7 on two systems")
	}
	const (
		phase  = 2 * time.Second
		settle = 500 * time.Millisecond // TCP ramp-up after wrk2 starts
	)
	// split returns c1's middle-phase bytes to c2 (wrk2) over its bytes
	// to sv (iperf), measured from phase+settle to 2·phase.
	split := func(s system) float64 {
		var wrkBytes, iperfBytes int64
		s.run(func(p apps.StackProvider, eng *sim.Engine) func() float64 {
			h1s, h1IP, _ := p.AppStack("c1")
			h2s, _, _ := p.AppStack("c2")
			svs, svIP, _ := p.AppStack("sv")
			apps.NewHTTPServer(h1s, 80, 200, 64*1024)
			server := apps.NewIperfServer(eng, svs, 5201, false)
			apps.NewIperfClient(eng, h1s, svIP, 5201, transport.Cubic)
			var w *apps.WrkClient
			eng.At(phase, func() {
				w = apps.NewWrkClient(eng, h2s, h1IP, 80, 100, 200, 64*1024, transport.Cubic)
			})
			eng.At(phase+settle, func() {
				wrkBytes, iperfBytes = -w.BytesIn, -server.Received
			})
			eng.At(2*phase, func() {
				wrkBytes += w.BytesIn
				iperfBytes += server.Received
			})
			return func() float64 { return 0 }
		})
		if iperfBytes <= 0 {
			t.Fatalf("%s: iperf moved no bytes in the middle phase", s.name)
		}
		return float64(wrkBytes) / float64(iperfBytes)
	}
	systems := fig5Systems(fig5YAML, 2*phase)
	bare, kol := split(systems[0]), split(systems[1])
	t.Logf("c1 uplink, wrk2 : iperf bytes — bare metal %.1f, Kollaps %.2f", bare, kol)
	if bare <= 10 {
		t.Errorf("bare metal split %.2f, want > 10 (per connection: 100 wrk2 connections vs 1 iperf)", bare)
	}
	if kol < 0.8 || kol > 1.25 {
		t.Errorf("Kollaps split %.2f, want within [0.8, 1.25] (per destination: c2 and sv weigh 1 each)", kol)
	}
}
