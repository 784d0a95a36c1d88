package topology

import (
	"strings"
	"testing"
)

// quickstartYAML is examples/quickstart's topology: replicas, two
// bridges, asymmetric and jittered links.
const quickstartYAML = `
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "nginx"
    replicas: 2
  bridges:
    name: s1
    name: s2
  links:
    orig: c1
    dest: s1
    latency: 10
    up: 10Mbps
    down: 10Mbps
    jitter: 0.25
    orig: s1
    dest: s2
    latency: 20
    up: 100Mbps
    orig: s2
    dest: sv
    latency: 5
    up: 50Mbps
`

// twoVertexXML is the smallest ModelNet-like topology: two virtnodes and
// one edge each way.
const twoVertexXML = `<topology>
  <vertices>
    <vertex int_idx="0" role="virtnode"/>
    <vertex int_idx="1" role="virtnode"/>
  </vertices>
  <edges>
    <edge int_src="0" int_dst="1" int_delayms="5" dbl_kbps="10000" dbl_plr="0.01" dbl_jitterms="0.5"/>
    <edge int_src="1" int_dst="0" int_delayms="5" dbl_kbps="10000"/>
  </edges>
</topology>`

// FuzzParseTopology runs any input through the parser kollaps.Load would
// pick (XML when it mentions "<topology", YAML otherwise) and Validate. It
// must never panic, and every link of an accepted topology must carry
// non-negative latency and jitter, positive bandwidth and loss in [0,1].
func FuzzParseTopology(f *testing.F) {
	f.Add(quickstartYAML)
	f.Add(twoVertexXML)
	f.Fuzz(func(t *testing.T, src string) {
		parse := ParseYAML
		if strings.Contains(src, "<topology") {
			parse = ParseXML
		}
		top, err := parse(src)
		if err != nil {
			return
		}
		if err := top.Validate(); err != nil {
			return
		}
		for i, l := range top.Links {
			bad := l.Latency < 0 || l.Jitter < 0 || l.Up <= 0 ||
				(!l.Unidirectional && l.Down <= 0) || !(l.Loss >= 0 && l.Loss <= 1)
			if bad {
				t.Fatalf("accepted link %d out of range: %+v", i, l)
			}
		}
	})
}
