package experiments

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// fig8YAML is the §5.4 decentralized bandwidth throttling topology.
const fig8YAML = `
experiment:
  services:
    name: c1
    name: c2
    name: c3
    name: c4
    name: c5
    name: c6
    name: s1
    name: s2
    name: s3
    name: s4
    name: s5
    name: s6
  bridges:
    name: b1
    name: b2
    name: b3
  links:
    orig: c1
    dest: b1
    latency: 10
    up: 50Mbps
    orig: c2
    dest: b1
    latency: 5
    up: 50Mbps
    orig: c3
    dest: b1
    latency: 5
    up: 10Mbps
    orig: c4
    dest: b2
    latency: 10
    up: 50Mbps
    orig: c5
    dest: b2
    latency: 5
    up: 50Mbps
    orig: c6
    dest: b2
    latency: 5
    up: 10Mbps
    orig: b1
    dest: b2
    latency: 10
    up: 50Mbps
    orig: b2
    dest: b3
    latency: 10
    up: 100Mbps
    orig: s1
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s2
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s3
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s4
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s5
    dest: b3
    latency: 5
    up: 50Mbps
    orig: s6
    dest: b3
    latency: 5
    up: 50Mbps
`

// Fig8Expected are the paper's model allocations (Mb/s) per phase; index
// [phase][client]. Zero means inactive.
var Fig8Expected = [6][6]float64{
	{50, 0, 0, 0, 0, 0},
	{23.08, 26.92, 0, 0, 0, 0},
	{18.45, 21.55, 10, 0, 0, 0},
	{18.45, 21.55, 10, 50, 0, 0},
	{16.93, 19.75, 10, 23.70, 29.62, 0},
	{15.04, 17.55, 10, 21.06, 26.33, 10},
}

// fig8 reproduces Figure 8: six clients with staggered starts, one
// phase apart, compete across shared links; each phase's measured
// goodput per client is reported next to the model's expected
// allocation.
func fig8(phase time.Duration) runner {
	return func(string) (result, error) {
		d := mustDeploy(mustYAML(fig8YAML), onKollaps(4))
		eng := d.eng

		received := make([]int64, 6)
		for i := 0; i < 6; i++ {
			i := i
			d.hosts[fmt.Sprintf("s%d", i+1)].stack.Listen(5201, &transport.Listener{OnAccept: func(c *transport.Conn) {
				c.OnData = func(n int) { received[i] += int64(n) }
			}})
		}
		for i := 0; i < 6; i++ {
			i := i
			eng.At(time.Duration(i)*phase, func() {
				cli, srv := d.hosts[fmt.Sprintf("c%d", i+1)], d.hosts[fmt.Sprintf("s%d", i+1)]
				conn := cli.stack.Dial(srv.ip, 5201, transport.Cubic)
				conn.Write(1 << 30)
				eng.Every(time.Second, func() {
					if !conn.Closed() && conn.Buffered() < 1<<29 {
						conn.Write(1 << 28)
					}
				})
			})
		}
		window := phase / 2
		var before, after [6][6]float64
		for p := 0; p < 6; p++ {
			p := p
			eng.At(time.Duration(p+1)*phase-window, func() {
				for i := 0; i < 6; i++ {
					before[p][i] = float64(received[i])
				}
			})
			eng.At(time.Duration(p+1)*phase-time.Millisecond, func() {
				for i := 0; i < 6; i++ {
					after[p][i] = float64(received[i])
				}
			})
		}
		eng.Run(6 * phase)

		t := &Table{
			Title:   "Figure 8: decentralized bandwidth throttling (Mb/s, measured vs model)",
			Columns: []string{"c1", "c2", "c3", "c4", "c5", "c6"},
		}
		var measured [6][6]float64
		for p := 0; p < 6; p++ {
			vals := make([]string, 6)
			for i := 0; i < 6; i++ {
				measured[p][i] = (after[p][i] - before[p][i]) * 8 / window.Seconds() / 1e6
				want := Fig8Expected[p][i]
				if want == 0 {
					vals[i] = "-"
				} else {
					vals[i] = fmt.Sprintf("%.1f/%.1f", measured[p][i], want)
				}
			}
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("phase %d", p+1), Values: vals})
		}
		return result{tables: []*Table{t}, fig8Mbps: &measured}, nil
	}
}
