package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/kollaps"
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

// TestDeploySeam: every system built by deploy resolves each service,
// rejects an unknown name and carries a ping across the network. Bare
// metal is the ground truth, so its RTT is the propagation RTT plus a few
// switch hops; the baselines may only add to it. Kollaps emulates the
// propagation RTT and shapes each direction to 10 Mb/s, so a 64-byte
// ping may add its two serialisations to bare metal's bound.
func TestDeploySeam(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sys    system
		maxRTT time.Duration
	}{
		{"baremetal", baremetal, 21 * time.Millisecond},
		{"mininet", mininet, time.Second},
		{"maxinet", maxinet, time.Second},
		{"kollaps", onKollaps(2), 21*time.Millisecond + 2*pingSerialisation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := deploy(mustGraph(mustYAML(seamYAML)), tc.sys)
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
	_, err := deploy(mustGraph(top), baremetal)
	if err == nil || !strings.Contains(err.Error(), "64000") {
		t.Fatalf("deploy of %d services = %v, want an error naming 64000", core.MaxContainers+1, err)
	}
}

// pingSerialisation is a 64-byte ping's time on a 10 Mb/s link.
const pingSerialisation = 64 * 8 * time.Second / 10e6

// TestOnKollapsMatchesDeploy: onKollaps copies the settings that
// kollaps.Experiment.Deploy resolves to when given no option, so Figure
// 5's long-lived Cubic workload receives the same bytes on both, and the
// engine runs the same events. The event counts are what tell a changed
// period, strategy or host count: one uncontended flow's bytes do not
// depend on them.
func TestOnKollapsMatchesDeploy(t *testing.T) {
	const dur = time.Second
	d := mustDeploy(mustYAML(fig5YAML), onKollaps(3))
	seam := iperf(d, transport.Cubic, dur)
	exp, err := kollaps.Load(fig5YAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(3); err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]host)
	for _, c := range exp.Runtime.Containers() {
		hosts[c.Name] = host{c.Stack, c.IP}
	}
	api := iperf(&deployment{exp.Eng, hosts}, transport.Cubic, dur)
	if seam == 0 || seam != api {
		t.Fatalf("goodput %v b/s through onKollaps, %v b/s through kollaps.Experiment.Deploy; want equal and nonzero", seam, api)
	}
	if got, want := d.eng.Stats(), exp.Eng.Stats(); got != want {
		t.Fatalf("engine stats %+v through onKollaps, %+v through kollaps.Experiment.Deploy; want equal", got, want)
	}
}
