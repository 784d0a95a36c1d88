package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/topology"
)

// seamYAML is two services behind one switch, 5 ms per link: a 20 ms
// propagation RTT.
const seamYAML = `
experiment:
  services:
    name: a
    name: b
  bridges:
    name: s1
  links:
    orig: a
    dest: s1
    latency: 5
    up: 10Mbps
    orig: b
    dest: s1
    latency: 5
    up: 10Mbps
`

// TestDeploySeam: every non-Kollaps system built by deploy resolves each
// service, rejects an unknown name and carries a ping across the
// network. Bare metal is the ground truth, so its RTT is the propagation
// RTT plus a few switch hops; the baselines may only add to it.
func TestDeploySeam(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nw     network
		maxRTT time.Duration
	}{
		{"baremetal", baremetal, 21 * time.Millisecond},
		{"mininet", mininet, time.Second},
		{"maxinet", maxinet, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := deploy(mustGraph(topology.ParseYAML(seamYAML)), tc.nw)
			if err != nil {
				t.Fatal(err)
			}
			var _ apps.StackProvider = d
			as, aIP, err := d.AppStack("a")
			if err != nil || as == nil {
				t.Fatalf("AppStack(a) = %v, %v", as, err)
			}
			bs, bIP, err := d.AppStack("b")
			if err != nil || bs == nil {
				t.Fatalf("AppStack(b) = %v, %v", bs, err)
			}
			if aIP == bIP {
				t.Fatalf("a and b share the address %v", aIP)
			}
			if _, _, err := d.AppStack("nope"); err == nil {
				t.Fatal("AppStack of an unknown host did not error")
			}
			var rtt time.Duration
			as.Ping(bIP, 64, func(x time.Duration) { rtt = x })
			d.eng.Run(time.Second)
			if rtt < 20*time.Millisecond || rtt > tc.maxRTT {
				t.Fatalf("RTT = %v, want in [20ms, %v]", rtt, tc.maxRTT)
			}
		})
	}
}

// TestDeployAddressPlanLimit: a graph with more services than the
// 10.0.x.y plan can address is refused before anything is built.
func TestDeployAddressPlanLimit(t *testing.T) {
	top := &topology.Topology{Services: []topology.ServiceDef{{Name: "s", Replicas: core.MaxContainers + 1}}}
	_, err := deploy(mustGraph(top, nil), baremetal)
	if err == nil || !strings.Contains(err.Error(), "64000") {
		t.Fatalf("deploy of %d services = %v, want an error naming 64000", core.MaxContainers+1, err)
	}
}
