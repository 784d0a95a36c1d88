package experiments

import (
	"testing"
	"time"

	"repro/internal/apps"
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
	split := func(name string, sys system) float64 {
		d := mustDeploy(mustYAML(fig5YAML), sys)
		var wrkBytes, iperfBytes int64
		h1, h2, sv := d.hosts["c1"], d.hosts["c2"], d.hosts["sv"]
		apps.NewHTTPServer(h1.stack, 80, 200, 64*1024)
		server := apps.NewIperfServer(d.eng, sv.stack, 5201, false)
		apps.NewIperfClient(d.eng, h1.stack, sv.ip, 5201, transport.Cubic)
		var w *apps.WrkClient
		d.eng.At(phase, func() {
			w = apps.NewWrkClient(d.eng, h2.stack, h1.ip, 80, 100, 200, 64*1024, transport.Cubic)
		})
		d.eng.At(phase+settle, func() {
			wrkBytes, iperfBytes = -w.BytesIn, -server.Received
		})
		d.eng.At(2*phase, func() {
			wrkBytes += w.BytesIn
			iperfBytes += server.Received
		})
		d.eng.Run(2 * phase)
		if iperfBytes <= 0 {
			t.Fatalf("%s: iperf moved no bytes in the middle phase", name)
		}
		return float64(wrkBytes) / float64(iperfBytes)
	}
	bare, kol := split("baremetal", baremetal), split("kollaps", onKollaps(3))
	t.Logf("c1 uplink, wrk2 : iperf bytes — bare metal %.1f, Kollaps %.2f", bare, kol)
	if bare <= 10 {
		t.Errorf("bare metal split %.2f, want > 10 (per connection: 100 wrk2 connections vs 1 iperf)", bare)
	}
	if kol < 0.8 || kol > 1.25 {
		t.Errorf("Kollaps split %.2f, want within [0.8, 1.25] (per destination: c2 and sv weigh 1 each)", kol)
	}
}
