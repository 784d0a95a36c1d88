// Command kollaps-bench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	kollaps-bench -exp table2          # one experiment
//	kollaps-bench -exp all             # everything (slow)
//	kollaps-bench -exp fig8 -quick     # reduced durations
//	kollaps-bench -exp alloc           # allocator microbench -> BENCH_allocator.json
//	kollaps-bench -exp sweep           # period-vs-accuracy sweep -> BENCH_sweep.json
//	kollaps-bench -exp fig8 -cpuprofile cpu.prof -memprofile mem.prof   # + pprof profiles
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table2 table3 table4 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 dissem alloc failover sweep chaos or all")
	quick := flag.Bool("quick", false, "reduced durations (coarser numbers, much faster)")
	benchOut := flag.String("bench-out", "BENCH_allocator.json", "output path for the alloc experiment's JSON report (empty = don't write)")
	failoverOut := flag.String("failover-out", "BENCH_failover.json", "output path for the failover experiment's JSON report (empty = don't write)")
	sweepOut := flag.String("sweep-out", "BENCH_sweep.json", "output path for the sweep experiment's JSON report (empty = don't write)")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output path for the chaos experiment's JSON report (empty = don't write)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write the allocation profile to this path when the experiments finish")
	flag.Parse()
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Runs on the normal return paths; an experiment that fails exits
	// without a profile.
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()
	// `-exp all` must not silently rewrite the committed CI baselines on a
	// developer box; each JSON is only written when its experiment (or an
	// explicit output path) is requested.
	outSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { outSet[f.Name] = true })
	if *exp == "all" && !outSet["bench-out"] {
		*benchOut = ""
	}
	if *exp == "all" && !outSet["failover-out"] {
		*failoverOut = ""
	}
	if *exp == "all" && !outSet["sweep-out"] {
		*sweepOut = ""
	}
	if *exp == "all" && !outSet["chaos-out"] {
		*chaosOut = ""
	}

	d := func(full, fast time.Duration) time.Duration {
		if *quick {
			return fast
		}
		return full
	}

	runs := map[string]func(){
		"table2": func() { experiments.RunTable2(d(30*time.Second, 3*time.Second)).Fprint(os.Stdout) },
		"table3": func() {
			t, _ := experiments.RunTable3(int(d(10000, 1000)))
			t.Fprint(os.Stdout)
		},
		"table4": func() {
			sizes := experiments.Table4Sizes
			if *quick {
				sizes = []int{1000}
			}
			experiments.RunTable4(sizes, 50, d(60*time.Second, 15*time.Second)).Fprint(os.Stdout)
		},
		"fig3": func() {
			cfgs := experiments.Fig3Configs
			if *quick {
				cfgs = cfgs[:4]
			}
			experiments.RunFig3(d(10*time.Second, 3*time.Second), nil, cfgs).Fprint(os.Stdout)
		},
		"fig4": func() {
			hosts := []int{1, 2, 4, 8, 16}
			if *quick {
				hosts = []int{1, 4}
			}
			experiments.RunFig4(d(15*time.Second, 5*time.Second), hosts, 1).Fprint(os.Stdout)
			experiments.RunFig4(d(15*time.Second, 5*time.Second), hosts, 10).Fprint(os.Stdout)
		},
		"fig5":  func() { experiments.RunFig5(d(60*time.Second, 10*time.Second)).Fprint(os.Stdout) },
		"fig6":  func() { experiments.RunFig6(d(50*time.Second, 10*time.Second)).Fprint(os.Stdout) },
		"fig7":  func() { experiments.RunFig7(d(60*time.Second, 10*time.Second)).Fprint(os.Stdout) },
		"fig8":  func() { experiments.RunFig8(d(30*time.Second, 10*time.Second)).Fprint(os.Stdout) },
		"fig9":  func() { experiments.RunFig9(d(120*time.Second, 30*time.Second)).Fprint(os.Stdout) },
		"fig10": func() { experiments.RunFig10(d(30*time.Second, 10*time.Second), nil).Fprint(os.Stdout) },
		"fig11": func() { experiments.RunFig11(d(30*time.Second, 10*time.Second), nil).Fprint(os.Stdout) },
		"dissem": func() {
			ns := experiments.DissemScaleNs
			if *quick {
				ns = []int{4, 16}
			}
			experiments.RunDissemScale(d(5*time.Second, 2*time.Second), ns, nil).Fprint(os.Stdout)
		},
		"alloc": func() {
			table, _, err := experiments.RunAllocBench(*benchOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			table.Fprint(os.Stdout)
			if *benchOut != "" {
				fmt.Printf("\nwrote %s\n", *benchOut)
			}
		},
		"failover": func() {
			// The acceptance scenario: one of N=32 managers dead for 50
			// emulation periods, then restarted.
			n, deadPeriods := 32, 50
			if *quick {
				n, deadPeriods = 8, 30
			}
			t, _, err := experiments.RunFailover(*failoverOut, n, deadPeriods)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			t.Fprint(os.Stdout)
			if *failoverOut != "" {
				fmt.Printf("\nwrote %s\n", *failoverOut)
			}
		},
		"sweep": func() {
			// Period × strategy: how much accuracy each emulation period
			// buys, and what the control plane pays for it.
			n, warmup, measure := 16, 40, 200
			if *quick {
				n, warmup, measure = 8, 15, 60
			}
			t, _, err := experiments.RunSweep(*sweepOut, n, nil, nil, warmup, measure)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			t.Fprint(os.Stdout)
			if *sweepOut != "" {
				fmt.Printf("\nwrote %s\n", *sweepOut)
			}
		},
		"chaos": func() {
			// The acceptance scenario: every strategy soaked twice (the
			// rerun checks determinism) in the seeded 60-period fault
			// schedule with a 10-period one-way partition mid-window.
			n, faultPeriods := 8, 60
			if *quick {
				faultPeriods = 50
			}
			t, _, err := experiments.RunChaos(*chaosOut, n, faultPeriods)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			t.Fprint(os.Stdout)
			if *chaosOut != "" {
				fmt.Printf("\nwrote %s\n", *chaosOut)
			}
		},
	}
	order := []string{"table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "fig9", "fig10", "fig11", "dissem", "alloc", "failover", "sweep", "chaos"}

	if *exp == "all" {
		for _, id := range order {
			fmt.Printf("\n[%s]\n", id)
			runs[id]()
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		run, ok := runs[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(order, " "))
			os.Exit(2)
		}
		run()
	}
}
