// The period-vs-accuracy sweep: the observability plane's headline
// experiment. Kollaps's central tunable is the Emulation Manager period —
// short periods track demand closely but spend control-plane bandwidth,
// long periods are cheap but enforce stale allocations (§4.1). This
// experiment quantifies that trade-off per dissemination strategy: for
// every (period, strategy) cell it deploys the dissem-scale dumbbell,
// drives greedy CBR flows — half of them pulsing on/off so remote views
// genuinely go stale (a static workload converges exactly and every
// period looks perfect) — and reads the live accuracy probe, the
// enforced-vs-oracle share deviation recorded by obs.Probe, alongside
// the control-plane bytes the strategy spent per period.
//
// Results are written to BENCH_sweep.json; README.md and DESIGN.md cite
// the committed copy.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/kollaps"
)

// sweepPeriods are the Emulation Manager periods the sweep measures,
// bracketing the paper's 50 ms default.
var sweepPeriods = []time.Duration{
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
}

// SweepCell is one measured (strategy, period) point.
type SweepCell struct {
	Strategy string  `json:"strategy"`
	PeriodMs float64 `json:"period_ms"`
	// MeanShareDev / MaxShareDev summarize the accuracy probe over the
	// measurement window: |enforced − oracle| / oracle per flow, averaged
	// (respectively maxed) across flows and samples.
	MeanShareDev float64 `json:"mean_share_deviation"`
	MaxShareDev  float64 `json:"max_share_deviation"`
	// Control-plane spend, normalized per emulation period so different
	// periods are comparable.
	CtrlBytesPerPeriod     float64 `json:"ctrl_bytes_per_period"`
	CtrlDatagramsPerPeriod float64 `json:"ctrl_datagrams_per_period"`
	// Metadata staleness percentiles over the whole run, in ms.
	StalenessP50Ms float64 `json:"staleness_p50_ms"`
	StalenessP99Ms float64 `json:"staleness_p99_ms"`
	ProbeSamples   int     `json:"probe_samples"`
}

// SweepReport is the BENCH_sweep.json schema.
type SweepReport struct {
	// Workload documents the topology and drive so committed baselines
	// are only compared against the same scenario.
	Workload       string      `json:"workload"`
	Hosts          int         `json:"hosts"`
	FlowsPerHost   int         `json:"flows_per_host"`
	WarmupPeriods  int         `json:"warmup_periods"`
	MeasurePeriods int         `json:"measure_periods"`
	Cells          []SweepCell `json:"cells"`
}

// sweepPulse is the on/off cycle of the pulsing flows. It dwarfs the
// longest swept period so each phase settles, while flipping often enough
// that every measurement window sees many staleness transients.
const sweepPulse = 400 * time.Millisecond

// sweepCell deploys the dissem-scale dumbbell on n managers under one
// (strategy, period) configuration with the accuracy probe sampling every
// period and drives one CBR flow per client. Even-indexed flows are
// steady; odd-indexed flows pulse with sweepPulse half-cycles, staggered
// by index, so the fair shares keep moving and enforcement lags the
// oracle by the dissemination delay under test. Measurement starts after
// warmup periods.
func sweepCell(strategy string, period time.Duration, n, warmup, measure int) SweepCell {
	pulse := func(flow int, now time.Duration) bool {
		return flow%2 == 0 || (int(now/(sweepPulse/2))+flow)%2 == 0
	}
	d := newDumbbell("sweep", n, period, nil, pulse,
		kollaps.WithDissem(strategy, kollaps.DissemEpsilon(dissemEpsilon)),
		kollaps.WithAccuracyProbe(1))
	warmupEnd := time.Duration(warmup) * period
	end := warmupEnd + time.Duration(measure)*period
	var sumWarmup dissem.Summary
	d.exp.Eng.At(warmupEnd, func() { sumWarmup = d.exp.DissemSummary() })
	d.run(end)

	sum := d.exp.DissemSummary()
	probe := d.exp.AccuracyProbe()
	samples := 0
	for _, pt := range probe.Mean.Points {
		if pt.At >= warmupEnd {
			samples++
		}
	}
	return SweepCell{
		Strategy:               strategy,
		PeriodMs:               float64(period) / float64(time.Millisecond),
		MeanShareDev:           probe.MeanBetween(warmupEnd, end),
		MaxShareDev:            probe.MaxBetween(warmupEnd, end),
		CtrlBytesPerPeriod:     float64(sum.BytesSent-sumWarmup.BytesSent) / float64(measure),
		CtrlDatagramsPerPeriod: float64(sum.DatagramsSent-sumWarmup.DatagramsSent) / float64(measure),
		StalenessP50Ms:         sum.StalenessP50Ms,
		StalenessP99Ms:         sum.StalenessP99Ms,
		ProbeSamples:           samples,
	}
}

// sweep measures every (period, strategy) cell on n managers, warmup
// periods of warm-up and measure measured periods each, writes the JSON
// report to path (skipped when empty) and returns a printable table.
func sweep(n, warmup, measure int) runner {
	return func(path string) (result, error) {
		report := &SweepReport{
			Workload: fmt.Sprintf("dissemScaleYAML(%d), 8Mb/s CBR per client (odd flows pulse %v half-cycles), probe every period, epsilon %.2f",
				n, sweepPulse/2, dissemEpsilon),
			Hosts: n, FlowsPerHost: dissemFlowsPerHost,
			WarmupPeriods: warmup, MeasurePeriods: measure,
		}
		table := &Table{
			Title:   fmt.Sprintf("period vs accuracy: share deviation and control cost, N=%d managers", n),
			Columns: []string{"mean Δshare", "max Δshare", "ctrl B/period", "dgrams/period", "stale p50", "stale p99"},
		}
		for _, p := range sweepPeriods {
			for _, strat := range dissemStrategies {
				cell := sweepCell(strat, p, n, warmup, measure)
				report.Cells = append(report.Cells, cell)
				table.Rows = append(table.Rows, Row{
					Label: fmt.Sprintf("T=%dms %s", int(p/time.Millisecond), strat),
					Values: []string{
						fmt.Sprintf("%.2f%%", cell.MeanShareDev*100),
						fmt.Sprintf("%.1f%%", cell.MaxShareDev*100),
						fmt.Sprintf("%.0f", cell.CtrlBytesPerPeriod),
						fmt.Sprintf("%.1f", cell.CtrlDatagramsPerPeriod),
						fmt.Sprintf("%.0fms", cell.StalenessP50Ms),
						fmt.Sprintf("%.0fms", cell.StalenessP99Ms),
					},
				})
			}
		}
		return result{tables: []*Table{table}}, writeReport(path, report)
	}
}
