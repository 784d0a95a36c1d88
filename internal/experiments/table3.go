package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/aws"
	"repro/internal/metrics"
	"repro/internal/units"
)

// table3 reproduces Table 3: jitter shaping accuracy. For each
// us-east-1 destination the measured EC2 latency/jitter pair is emulated
// on a single link and probed with pings; the emulated jitter is the
// standard deviation of the one-way delays recovered from the RTT samples.
// The result carries the mean squared error between EC2 and emulated
// jitter (the paper reports 0.2029).
func table3(pings int) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Table 3: jitter shaping accuracy (us-east-1 fan-out)",
			Columns: []string{"Latency(ms)", "EC2 jitter(ms)", "Kollaps jitter(ms)"},
		}
		var observed, expected []float64
		for _, link := range aws.USEast1Fanout {
			got := table3Measure(link, pings)
			want := link.Jitter.Seconds() * 1000
			observed = append(observed, got)
			expected = append(expected, want)
			t.Rows = append(t.Rows, Row{
				Label: string(link.To),
				Values: []string{
					fmt.Sprintf("%.0f", link.Latency.Seconds()*1000),
					fmt.Sprintf("%.4f", want),
					fmt.Sprintf("%.4f", got),
				},
			})
		}
		mse := metrics.MSE(observed, expected)
		t.Rows = append(t.Rows, Row{Label: "MSE", Values: []string{"", "", fmt.Sprintf("%.4f", mse)}})
		return result{tables: []*Table{t}, jitterMSE: mse}, nil
	}
}

func table3Measure(link aws.Link, pings int) float64 {
	yaml := fmt.Sprintf(`
experiment:
  services:
    name: src
    name: dst
  links:
    orig: src
    dest: dst
    latency: %v
    jitter: %v
    up: %s
`, link.Latency, link.Jitter, 10*units.Gbps)
	d := mustDeploy(mustYAML(yaml), onKollaps(2))
	p := apps.NewPinger(d.eng, d.hosts["src"].stack, d.hosts["dst"].ip, 20*time.Millisecond)
	d.eng.Run(time.Duration(pings) * 20 * time.Millisecond)
	p.Stop()
	// Per-direction jitter estimate: RTT sd / sqrt(2) (two independent
	// normal stages per round trip).
	return p.RTTs.StdDev() / math.Sqrt2
}
