// The failover experiment: what the paper's decentralized control plane
// (§4.2) does when an Emulation Manager dies. The paper assumes every
// manager stays alive; this experiment kills one mid-run — host 1, an
// interior node of the Tree overlay with its own subtree — keeps it dead
// for a configurable number of emulation periods, restarts it with fresh
// state, and measures per strategy:
//
//   - control bytes/period before vs during the failure (a dead peer
//     used to pin Delta's ack baseline and degrade every report to a
//     full resync — strictly worse than Broadcast, forever);
//   - surviving managers' view completeness (a dead Tree interior node
//     used to blind its whole subtree once its relays expired);
//   - per-flow share deviation of the survivors against Broadcast under
//     the identical kill schedule;
//   - recovery time: periods after the restart until every manager —
//     including the restarted one — again sees every live flow.
//
// Results go to BENCH_failover.json (kollaps-bench -exp failover).
package experiments

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/kollaps"
)

// FailoverStrategyResult is one strategy's measurements.
type FailoverStrategyResult struct {
	Strategy string `json:"strategy"`
	// SteadyBytesPerPeriod / DeadBytesPerPeriod are control-plane bytes
	// per emulation period before the kill and while the manager is dead;
	// ByteRatio is their quotient (the acceptance bound is 2x for Delta).
	SteadyBytesPerPeriod float64 `json:"steady_bytes_per_period"`
	DeadBytesPerPeriod   float64 `json:"dead_bytes_per_period"`
	ByteRatio            float64 `json:"byte_ratio"`
	// ViewCompleteness is the worst surviving manager's coverage of live
	// remote flows over the late dead phase (1.0 = no blinded subtree);
	// DeadPathsVisible counts dead-manager flows still haunting views.
	ViewCompleteness float64 `json:"view_completeness"`
	DeadPathsVisible int     `json:"dead_paths_visible"`
	// MaxShareDev / MeanShareDev compare surviving flows' goodput during
	// the failure against Broadcast under the identical schedule.
	MaxShareDev  float64 `json:"max_share_dev"`
	MeanShareDev float64 `json:"mean_share_dev"`
	// RecoveryPeriods is how many periods after the restart every view
	// (including the restarted manager's) covered all live flows again;
	// -1 means it never did within the measurement window.
	RecoveryPeriods int `json:"recovery_periods"`
}

// FailoverReport is the BENCH_failover.json schema.
type FailoverReport struct {
	N            int                      `json:"n"`
	FlowsPerHost int                      `json:"flows_per_host"`
	KilledHost   int                      `json:"killed_host"`
	DeadPeriods  int                      `json:"dead_periods"`
	SuspectAfter int                      `json:"suspect_after"`
	PeriodMs     float64                  `json:"period_ms"`
	Strategies   []FailoverStrategyResult `json:"strategies"`
}

// failoverRun is one strategy's raw outcome.
type failoverRun struct {
	res         FailoverStrategyResult
	goodputs    []float64 // surviving flows' dead-phase goodputs
	originPaths map[int]map[string]bool
}

// runFailover deploys the dumbbell on n managers, kills host 1 for
// deadPeriods periods, restarts it, and measures. originPaths maps each
// manager to its flows' path keys; nil (the Broadcast run) harvests it
// from the converged per-origin views.
func runFailover(strategy string, n, deadPeriods int, originPaths map[int]map[string]bool) failoverRun {
	const (
		period        = 50 * time.Millisecond
		warmupPeriods = 20
		steadyPeriods = 40
	)
	d := newDumbbell("failover", n, period, nil, nil, kollaps.WithDissem(strategy,
		kollaps.DissemEpsilon(dissemEpsilon)))
	warmup := warmupPeriods * period
	killAt := warmup + steadyPeriods*period
	restartAt := killAt + time.Duration(deadPeriods)*period
	var run failoverRun

	// Steady-state control bytes/period over a window spanning resyncs.
	var bytesAtWarmup, bytesAtKill, bytesAtRestart int64
	d.exp.Eng.At(warmup, func() { bytesAtWarmup = d.exp.DissemSummary().BytesSent })
	d.exp.Eng.At(killAt, func() {
		bytesAtKill = d.exp.DissemSummary().BytesSent
		if err := d.exp.KillManager(1); err != nil {
			panic(fmt.Sprintf("experiments: failover kill: %v", err))
		}
	})
	run.originPaths = d.originPaths(originPaths, killAt-period/2)

	// View completeness over the last 10 dead periods: the worst
	// surviving manager's coverage of live flows, plus any dead-manager
	// flows still visible.
	run.res.ViewCompleteness = 1.0
	d.midPeriods(killAt, max(deadPeriods-10, dissem.DefaultSuspectAfter+4), deadPeriods, func(int) {
		surviving := d.completeness(func(v, o int) bool { return v == 1 || o == 1 })
		run.res.ViewCompleteness = min(run.res.ViewCompleteness, surviving)
		for v := 0; v < n; v++ {
			if v == 1 {
				continue
			}
			visible := d.view(v)
			for p := range run.originPaths[1] {
				if visible[p] {
					run.res.DeadPathsVisible++
				}
			}
		}
	})

	// Goodputs of surviving flows over the settled part of the dead
	// phase (suspicion plus expiry excluded) — the share-deviation input.
	// Both window edges are snapshotted: the counters keep accumulating
	// through the recovery phase, which must not dilute the metric.
	devFrom := killAt + time.Duration(dissem.DefaultSuspectAfter+4)*period
	atDevFrom := make([]int64, len(d.received))
	atRestart := make([]int64, len(d.received))
	d.exp.Eng.At(devFrom, func() { copy(atDevFrom, d.received) })

	// Restart, then poll for full reconvergence.
	d.exp.Eng.At(restartAt, func() {
		copy(atRestart, d.received)
		bytesAtRestart = d.exp.DissemSummary().BytesSent
		if err := d.exp.RestartManager(1); err != nil {
			panic(fmt.Sprintf("experiments: failover restart: %v", err))
		}
	})
	const maxRecoveryPeriods = 40
	d.firstPeriod(&run.res.RecoveryPeriods, restartAt, maxRecoveryPeriods, func() bool {
		return d.completeness(nil) >= 1
	})
	d.run(restartAt + maxRecoveryPeriods*period)

	run.res.Strategy = strategy
	run.res.SteadyBytesPerPeriod = float64(bytesAtKill-bytesAtWarmup) / steadyPeriods
	run.res.DeadBytesPerPeriod = float64(bytesAtRestart-bytesAtKill) / float64(deadPeriods)
	if run.res.SteadyBytesPerPeriod > 0 {
		run.res.ByteRatio = run.res.DeadBytesPerPeriod / run.res.SteadyBytesPerPeriod
	}
	devWindow := (restartAt - devFrom).Seconds()
	for i := range d.received {
		if i%n == 1 {
			continue // the dead manager's own flows are not compared
		}
		run.goodputs = append(run.goodputs, float64(atRestart[i]-atDevFrom[i])*8/devWindow)
	}
	return run
}

// failover measures every strategy under one dead manager (host 1 of
// n, dead for deadPeriods periods, then restarted), writes the JSON
// report to path (skipped when empty) and returns a printable table.
func failover(n, deadPeriods int) runner {
	return func(path string) (result, error) {
		report := &FailoverReport{
			N:            n,
			FlowsPerHost: dissemFlowsPerHost,
			KilledHost:   1,
			DeadPeriods:  deadPeriods,
			SuspectAfter: dissem.DefaultSuspectAfter,
			PeriodMs:     50,
		}
		table := &Table{
			Title: fmt.Sprintf("Manager failover: host 1 of N=%d dead for %d periods, then restarted", n, deadPeriods),
			Columns: []string{
				"steady B/p", "dead B/p", "ratio", "view compl", "dead paths",
				"max Δshare", "mean Δshare", "recovery",
			},
		}
		truth := runFailover("broadcast", n, deadPeriods, nil)
		for _, strat := range dissemStrategies {
			run := truth
			if strat != "broadcast" {
				run = runFailover(strat, n, deadPeriods, truth.originPaths)
			}
			maxDev, meanDev := relErrs(run.goodputs, truth.goodputs)
			run.res.MaxShareDev = maxDev
			run.res.MeanShareDev = meanDev
			report.Strategies = append(report.Strategies, run.res)
			rec := fmt.Sprintf("%dp", run.res.RecoveryPeriods)
			if run.res.RecoveryPeriods < 0 {
				rec = "never"
			}
			table.Rows = append(table.Rows, Row{
				Label: strat,
				Values: []string{
					fmt.Sprintf("%.0f", run.res.SteadyBytesPerPeriod),
					fmt.Sprintf("%.0f", run.res.DeadBytesPerPeriod),
					fmt.Sprintf("%.2f", run.res.ByteRatio),
					fmt.Sprintf("%.1f%%", run.res.ViewCompleteness*100),
					fmt.Sprintf("%d", run.res.DeadPathsVisible),
					fmt.Sprintf("%.1f%%", run.res.MaxShareDev*100),
					fmt.Sprintf("%.1f%%", run.res.MeanShareDev*100),
					rec,
				},
			})
		}
		return result{tables: []*Table{table}}, writeReport(path, report)
	}
}
