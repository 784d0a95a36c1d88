package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dissem"
	"repro/kollaps"
)

// This experiment goes beyond the paper: it sweeps the number of
// Emulation Managers and compares the dissemination strategies of
// internal/dissem on control-plane cost (datagrams, bytes, staleness)
// and on emulation accuracy, with the paper's own Broadcast strategy as
// ground truth. Broadcast's O(N²) datagram growth is the control plane's
// scalability ceiling (§4.2); Tree must cut it to O(N·fanout) while the
// per-flow goodputs — the product of the RTT-aware sharing model runs on
// every manager — stay within tolerance.

// dissemStrategies names the strategies the control-plane experiments
// compare, in dissem.Kinds order: Broadcast (the accuracy ground truth)
// first.
var dissemStrategies = func() []string {
	var names []string
	for _, k := range dissem.Kinds() {
		names = append(names, k.String())
	}
	return names
}()

// dissemFlowsPerHost is the number of client containers (= active flows)
// each Emulation Manager hosts.
const dissemFlowsPerHost = 4

// dissemScaleYAML builds the sweep topology for n managers: a dumbbell
// with 4 clients and 4 servers per host, client access links in four RTT
// classes (so the RTT-aware shares genuinely differ per flow), and a
// bottleneck provisioned at 2 Mb/s per flow so it is always contended.
func dissemScaleYAML(n int) string {
	pairs := dissemFlowsPerHost * n
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "    name: c%d\n", i)
	}
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "    name: sv%d\n", i)
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n  links:\n")
	fmt.Fprintf(&b, "    orig: b1\n    dest: b2\n    latency: 5\n    up: %dMbps\n", 2*pairs)
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "    orig: c%d\n    dest: b1\n    latency: %d\n    up: 100Mbps\n", i, 2+3*(i%4))
		fmt.Fprintf(&b, "    orig: sv%d\n    dest: b2\n    latency: 1\n    up: 100Mbps\n", i)
	}
	return b.String()
}

// dissemScaleResult is one (strategy, N) run's outcome.
type dissemScaleResult struct {
	sum dissem.Summary
	// goodputs is each flow's delivered rate. The workload is greedy
	// constant-bitrate UDP (each client offers well above any possible
	// share), so the delivered rate is the time-average of the bandwidth
	// allocation the sharing model enforced — the direct product of the
	// disseminated metadata, and the quantity compared against the
	// Broadcast ground truth. (TCP would re-measure the same allocations
	// through loss recovery at few-packet BDPs, where its chaotic
	// dynamics drown the signal under test.)
	goodputs []float64
}

// cbrPayload is the datagram size of the greedy constant-bitrate load.
const cbrPayload = 1448

// dissemEpsilon is the Delta suppression threshold used in the sweep.
// Usage is measured per 50 ms period, so it quantizes in whole packets:
// at the sweep's 1.4–2.9 Mb/s shares one packet is 8–12 % of a period's
// bytes, and epsilon must exceed that noise floor or every flow re-sends
// every period. 15 % clears it while still propagating real change.
const dissemEpsilon = 0.15

// dissemWarmup is excluded from goodput measurement: it covers slow
// convergence from the deployment's cold start (empty views allocate the
// uncontended path maximum until reports propagate — for Tree, one
// period per tree level).
const dissemWarmup = time.Second

// dissemScaleRun deploys the dumbbell on n managers under one strategy:
// 8 Mb/s offered per flow against fair shares of 1.4–2.9 Mb/s, so every
// flow is allocation-limited throughout. Goodputs are measured after a
// warmup.
func dissemScaleRun(strategy string, n int, duration time.Duration) dissemScaleResult {
	d := newDumbbell("dissem", n, 50*time.Millisecond, nil, nil,
		kollaps.WithDissem(strategy, kollaps.DissemEpsilon(dissemEpsilon)))
	atWarmup := make([]int64, len(d.received))
	var sumWarmup dissem.Summary
	d.exp.Eng.At(dissemWarmup, func() {
		copy(atWarmup, d.received)
		sumWarmup = d.exp.DissemSummary()
	})
	d.run(dissemWarmup + duration)
	res := dissemScaleResult{
		sum:      d.exp.DissemSummary(),
		goodputs: make([]float64, len(d.received)),
	}
	// Rates must cover the same window as the goodputs: subtract the
	// control traffic spent during warmup. The staleness percentiles
	// remain whole-run (histograms cannot be subtracted); warmup adds
	// only the few samples the sparse bootstrap views produce.
	res.sum.DatagramsSent -= sumWarmup.DatagramsSent
	res.sum.BytesSent -= sumWarmup.BytesSent
	res.sum.DatagramsRecv -= sumWarmup.DatagramsRecv
	res.sum.BytesRecv -= sumWarmup.BytesRecv
	for i, r := range d.received {
		res.goodputs[i] = float64(r-atWarmup[i]) * 8 / duration.Seconds()
	}
	return res
}

// relErrs compares per-flow values against the Broadcast ground truth,
// returning the maximum and mean relative error over the comparable
// flows (zero-truth flows cannot be expressed as a relative error and
// are excluded from both).
func relErrs(observed, truth []float64) (maxErr, meanErr float64) {
	if len(observed) != len(truth) || len(truth) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	compared := 0
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		e := math.Abs(observed[i]-truth[i]) / truth[i]
		sum += e
		compared++
		if e > maxErr {
			maxErr = e
		}
	}
	if compared == 0 {
		return math.NaN(), math.NaN()
	}
	return maxErr, sum / float64(compared)
}

// dissemScale sweeps the given manager counts × strategy and reports
// control datagrams/bytes per second, metadata staleness, and per-flow
// goodput error versus Broadcast, each run measured for duration.
func dissemScale(duration time.Duration, ns []int) runner {
	return func(string) (result, error) {
		t := &Table{
			Title:   "Dissemination scalability: control-plane cost vs emulation accuracy",
			Columns: []string{"dgrams/s", "ctrl KB/s", "stale p50", "stale p99", "max Δshare", "mean Δshare"},
		}
		for _, n := range ns {
			var truth []float64
			for _, strat := range dissemStrategies {
				res := dissemScaleRun(strat, n, duration)
				if strat == "broadcast" {
					truth = res.goodputs
				}
				maxErr, meanErr := relErrs(res.goodputs, truth)
				t.Rows = append(t.Rows, Row{
					Label: fmt.Sprintf("N=%d %s", n, strat),
					Values: []string{
						fmt.Sprintf("%.0f", float64(res.sum.DatagramsSent)/duration.Seconds()),
						fmt.Sprintf("%.1f", float64(res.sum.BytesSent)/duration.Seconds()/1024),
						fmt.Sprintf("%.0fms", res.sum.StalenessP50Ms),
						fmt.Sprintf("%.0fms", res.sum.StalenessP99Ms),
						fmt.Sprintf("%.1f%%", maxErr*100),
						fmt.Sprintf("%.1f%%", meanErr*100),
					},
				})
			}
		}
		return result{tables: []*Table{t}}, nil
	}
}
