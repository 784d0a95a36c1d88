package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/transport"
)

// TestTwoFlowsFillASharedBottleneck runs two Cubic iperf flows across one
// shared bottleneck of 5, 10 and 20 Mb/s (1 Gb/s access links, 1 ms per
// link) for 15 virtual seconds. Bare metal must fill at least 90 % of
// the bottleneck, and under Kollaps, which shapes each flow to half of
// it, each flow must get at least 40 %. Both fail when a lost
// retransmission stalls a flow until its sender runs out of data: with
// SACK recovery sending new data on every dupACK, that happens whenever
// each transmission restarts the retransmission timer.
func TestTwoFlowsFillASharedBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six 15 s two-flow experiments")
	}
	const duration = 15 * time.Second
	for _, mbps := range []int{5, 10, 20} {
		yaml := fmt.Sprintf(`
experiment:
  services:
    name: c1
    name: c2
    name: sv
  bridges:
    name: s1
    name: s2
  links:
    orig: c1
    dest: s1
    latency: 1
    up: 1Gbps
    orig: c2
    dest: s1
    latency: 1
    up: 1Gbps
    orig: s1
    dest: s2
    latency: 1
    up: %dMbps
    orig: s2
    dest: sv
    latency: 1
    up: 1Gbps
`, mbps)
		bottleneck := float64(mbps) * 1e6
		for _, s := range []struct {
			name string
			sys  system
		}{{"baremetal", baremetal}, {"kollaps", onKollaps(3)}} {
			d := mustDeploy(mustYAML(yaml), s.sys)
			var servers [2]*apps.IperfServer
			sv := d.hosts["sv"]
			for i, c := range []string{"c1", "c2"} {
				port := uint16(5201 + i)
				servers[i] = apps.NewIperfServer(d.eng, sv.stack, port, false)
				apps.NewIperfClient(d.eng, d.hosts[c].stack, sv.ip, port, transport.Cubic)
			}
			d.eng.Run(duration)
			var got [2]float64
			for i, srv := range servers {
				got[i] = float64(srv.Received) * 8 / duration.Seconds()
			}
			t.Logf("%d Mb/s, %s: %.2f and %.2f Mb/s", mbps, s.name, got[0]/1e6, got[1]/1e6)
			switch s.name {
			case "baremetal":
				if sum := got[0] + got[1]; sum < 0.9*bottleneck {
					t.Errorf("%d Mb/s on bare metal: the two flows fill %.2f Mb/s, want at least 90 %%", mbps, sum/1e6)
				}
			case "kollaps":
				for i, g := range got {
					if g < 0.4*bottleneck {
						t.Errorf("%d Mb/s on Kollaps: flow c%d gets %.2f Mb/s, want at least 40 %%", mbps, i+1, g/1e6)
					}
				}
			}
		}
	}
}
