// The chaos soak: the control plane under an adversarial metadata
// fabric. The paper's §4.2 dissemination strategies assume the fabric
// at worst loses datagrams; the chaos plane (internal/chaos) also
// duplicates, reorders, corrupts, delays, and partitions them. This
// experiment runs every strategy through one seeded 60-period fault
// schedule — stochastic loss + duplication + reordering + corruption
// plus a 10-period asymmetric partition mid-window — and holds it to
// the same invariants the failover experiment established for manager
// death:
//
//   - surviving views stay complete through the faults (a view pair is
//     "surviving" unless the asymmetric cut blinds it directly);
//   - every view — including across the healed cut — reconverges within
//     a bounded number of periods of the partition healing;
//   - no phantom paths: corruption must be rejected and counted
//     (BadChecksum/BadDatagram), never decoded into a view;
//   - the whole run is deterministic: each strategy runs twice under the
//     same seed and must produce a byte-identical fault schedule
//     (chaos.ScheduleHash) and identical final views.
//
// Results go to BENCH_chaos.json (kollaps-bench -exp chaos).
package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/kollaps"
)

// SoakProfile is the stochastic half of the soak's fault schedule:
// every channel of the chaos plane at once, calibrated so faults are
// frequent (hundreds per run) while three consecutive losses of the
// same host's report — the view-expiry horizon — stay rare enough for
// repair machinery, not luck, to carry the invariants.
var SoakProfile = chaos.Profile{
	Drop:      0.03,
	Duplicate: 0.06,
	DupBurst:  2,
	Reorder:   0.08,
	Corrupt:   0.03,
	Delay:     0.06,
	DelayMin:  1 * time.Millisecond,
	DelayMax:  5 * time.Millisecond,
}

// ChaosStrategyResult is one strategy's soak outcome.
type ChaosStrategyResult struct {
	Strategy string `json:"strategy"`
	// ScheduleHash fingerprints the injected fault schedule (order,
	// endpoints, magnitudes); Deterministic reports whether a second run
	// under the same seed reproduced both the hash and the final views.
	ScheduleHash  string `json:"schedule_hash"`
	Deterministic bool   `json:"deterministic"`
	// Fault counters, by channel (FaultsInjected is their sum).
	FaultsInjected int64 `json:"faults_injected"`
	Dropped        int64 `json:"dropped"`
	Duplicated     int64 `json:"duplicated"`
	Reordered      int64 `json:"reordered"`
	Corrupted      int64 `json:"corrupted"`
	Delayed        int64 `json:"delayed"`
	Blocked        int64 `json:"blocked"`
	// CorruptionCaught sums the receivers' rejection counters
	// (BadChecksum + BadVersion + BadDatagram): non-zero exactly when
	// corruption was injected, or bytes leaked into a decoder.
	CorruptionCaught int64 `json:"corruption_caught"`
	// SurvivingCompleteness is the worst surviving view's coverage of
	// live remote flows sampled during the partition (pairs blinded by
	// the one-way cut excluded); FinalCompleteness is the same over the
	// post-heal fault periods with no exclusions.
	SurvivingCompleteness float64 `json:"surviving_completeness"`
	FinalCompleteness     float64 `json:"final_completeness"`
	// HealRecoveryPeriods is how many periods after the partition healed
	// until every view (cut pair included) covered all live flows again,
	// with the stochastic faults still running; ConvergencePeriods is
	// the same measured from the end of the whole fault window. -1 means
	// never within the measurement window.
	HealRecoveryPeriods int `json:"heal_recovery_periods"`
	ConvergencePeriods  int `json:"convergence_periods"`
	// PhantomPaths counts view entries at the end of the run that match
	// no flow any live manager ever published.
	PhantomPaths int `json:"phantom_paths"`
}

// ChaosReport is the BENCH_chaos.json schema.
type ChaosReport struct {
	N                int                   `json:"n"`
	FlowsPerHost     int                   `json:"flows_per_host"`
	FaultPeriods     int                   `json:"fault_periods"`
	PartitionFrom    int                   `json:"partition_from"`
	PartitionTo      int                   `json:"partition_to"`
	PartitionPeriods int                   `json:"partition_periods"`
	PeriodMs         float64               `json:"period_ms"`
	Profile          chaos.Profile         `json:"profile"`
	Strategies       []ChaosStrategyResult `json:"strategies"`
}

// Soak schedule geometry, in emulation periods. The asymmetric cut
// blocks host 1 -> host 5: a Tree overlay edge (at fanout 4 host 5 is a
// child of interior node 1), so the partition exercises the overlay's
// suspect-and-reroute failover as well as the flat strategies'
// staleness horizon — every strategy sends on that edge every period.
const (
	chaosWarmupPeriods    = 20
	chaosPartitionAt      = 25
	chaosPartitionPeriods = 10
	chaosCutFrom          = 1
	chaosCutTo            = 5
	chaosMaxRecovery      = 40
)

// chaosRun is one strategy run's raw outcome.
type chaosRun struct {
	res         ChaosStrategyResult
	originPaths map[int]map[string]bool
	fingerprint uint64 // FNV-1a over every viewer's final sorted view
}

// runChaos deploys the dumbbell on n managers, drives the seeded fault
// schedule, and measures. originPaths maps each manager to its flows'
// path keys; nil (the Broadcast oracle run) harvests it from the
// converged pre-fault views.
func runChaos(strategy string, n, faultPeriods int, originPaths map[int]map[string]bool) chaosRun {
	const period = 50 * time.Millisecond
	faultStart := chaosWarmupPeriods * period
	healAt := faultStart + (chaosPartitionAt+chaosPartitionPeriods)*period
	faultEnd := faultStart + time.Duration(faultPeriods)*period

	// The whole fault schedule is declared up front, before Deploy, as a
	// seeded plan — the run's faults are a pure function of the seed.
	plan := new(chaos.Plan).
		At(faultStart, chaos.SetProfile(SoakProfile)).
		At(faultStart+chaosPartitionAt*period, chaos.PartitionOneWay(chaosCutFrom, chaosCutTo)).
		At(healAt, chaos.Heal()).
		At(faultEnd, chaos.Off())
	d := newDumbbell("chaos", n, period, plan, nil, kollaps.WithDissem(strategy,
		kollaps.DissemEpsilon(dissemEpsilon)))
	run := chaosRun{originPaths: d.originPaths(originPaths, faultStart-period/2)}
	cutBlind := func(v, o int) bool { return v == chaosCutTo && o == chaosCutFrom }

	// Surviving completeness through the back half of the partition (the
	// front half is the detection-and-reroute budget for the overlay
	// strategies, the same allowance failover grants after a kill), with
	// the pair the one-way cut directly blinds excluded.
	run.res.SurvivingCompleteness = 1.0
	d.midPeriods(faultStart, chaosPartitionAt+chaosPartitionPeriods/2, chaosPartitionAt+chaosPartitionPeriods, func(int) {
		run.res.SurvivingCompleteness = min(run.res.SurvivingCompleteness, d.completeness(cutBlind))
	})

	// Heal recovery: periods after the partition heals (the stochastic
	// faults still running) until every view — cut pair included —
	// covers all live flows.
	complete := func() bool { return d.completeness(nil) >= 1 }
	d.firstPeriod(&run.res.HealRecoveryPeriods, healAt, chaosMaxRecovery, complete)

	// Final completeness: the worst all-pair coverage over the last third
	// of the fault window, after the heal-recovery allowance.
	run.res.FinalCompleteness = 1.0
	finalFrom := max(faultPeriods-faultPeriods/3, chaosPartitionAt+chaosPartitionPeriods+10)
	d.midPeriods(faultStart, finalFrom, faultPeriods, func(int) {
		run.res.FinalCompleteness = min(run.res.FinalCompleteness, d.completeness(nil))
	})

	// Convergence after the whole fault window clears.
	d.firstPeriod(&run.res.ConvergencePeriods, faultEnd, chaosMaxRecovery, complete)
	d.run(faultEnd + chaosMaxRecovery*period)

	// Final views: phantom check and the determinism fingerprint.
	oracle := make(map[string]bool)
	for _, paths := range run.originPaths {
		for p := range paths {
			oracle[p] = true
		}
	}
	fingerprint := fnv.New64a()
	for v := 0; v < n; v++ {
		var view []string
		for _, rf := range d.exp.Runtime.Managers()[v].Node().RemoteFlows(d.exp.Eng.Now(), d.maxAge) {
			p := pathID(rf.Links)
			view = append(view, fmt.Sprintf("%d:%d:%s", v, rf.Origin, p))
			if !oracle[p] {
				run.res.PhantomPaths++
			}
		}
		sort.Strings(view)
		for _, s := range view {
			fingerprint.Write([]byte(s))
		}
	}
	run.fingerprint = fingerprint.Sum64()

	st := d.exp.ChaosStats()
	run.res.Strategy = strategy
	run.res.ScheduleHash = fmt.Sprintf("%016x", d.exp.ChaosScheduleHash())
	run.res.FaultsInjected = st.Total()
	run.res.Dropped = st.Dropped
	run.res.Duplicated = st.Duplicated
	run.res.Reordered = st.Reordered
	run.res.Corrupted = st.Corrupted
	run.res.Delayed = st.Delayed
	run.res.Blocked = st.Blocked
	for _, ds := range d.exp.Runtime.DissemStats() {
		if ds == nil {
			continue
		}
		run.res.CorruptionCaught += ds.BadChecksum.Value() + ds.BadVersion.Value() + ds.BadDatagram.Value()
	}
	return run
}

// chaosSoak soaks every strategy on n managers in the seeded fault
// schedule of faultPeriods periods (twice each, verifying determinism),
// writes the JSON report to path (skipped when empty) and returns a
// printable table.
func chaosSoak(n, faultPeriods int) runner {
	return func(path string) (result, error) {
		report := &ChaosReport{
			N:                n,
			FlowsPerHost:     dissemFlowsPerHost,
			FaultPeriods:     faultPeriods,
			PartitionFrom:    chaosCutFrom,
			PartitionTo:      chaosCutTo,
			PartitionPeriods: chaosPartitionPeriods,
			PeriodMs:         50,
			Profile:          SoakProfile,
		}
		table := &Table{
			Title: fmt.Sprintf("Chaos soak: N=%d, %d fault periods (drop+dup+reorder+corrupt), %d-period one-way cut %d->%d",
				n, faultPeriods, chaosPartitionPeriods, chaosCutFrom, chaosCutTo),
			Columns: []string{
				"faults", "blocked", "crpt caught", "surv compl", "final compl",
				"heal rec", "phantom", "determ",
			},
		}
		truth := runChaos("broadcast", n, faultPeriods, nil)
		for _, strat := range dissemStrategies {
			run := truth
			if strat != "broadcast" {
				run = runChaos(strat, n, faultPeriods, truth.originPaths)
			}
			// Replay under the identical seed: the fault schedule and the
			// final views must reproduce bit for bit.
			again := runChaos(strat, n, faultPeriods, truth.originPaths)
			run.res.Deterministic = again.res.ScheduleHash == run.res.ScheduleHash &&
				again.fingerprint == run.fingerprint
			report.Strategies = append(report.Strategies, run.res)
			rec := fmt.Sprintf("%dp", run.res.HealRecoveryPeriods)
			if run.res.HealRecoveryPeriods < 0 {
				rec = "never"
			}
			table.Rows = append(table.Rows, Row{
				Label: strat,
				Values: []string{
					fmt.Sprintf("%d", run.res.FaultsInjected),
					fmt.Sprintf("%d", run.res.Blocked),
					fmt.Sprintf("%d", run.res.CorruptionCaught),
					fmt.Sprintf("%.1f%%", run.res.SurvivingCompleteness*100),
					fmt.Sprintf("%.1f%%", run.res.FinalCompleteness*100),
					rec,
					fmt.Sprintf("%d", run.res.PhantomPaths),
					fmt.Sprintf("%v", run.res.Deterministic),
				},
			})
		}
		return result{tables: []*Table{table}}, writeReport(path, report)
	}
}
