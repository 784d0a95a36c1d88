// Command kollaps-bench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// reports. README.md shows how to run them; DESIGN.md explains where the
// measured values depart from the paper's.
//
// Usage:
//
//	kollaps-bench -exp table2          # one experiment
//	kollaps-bench -exp all             # everything (slow); writes no JSON report
//	kollaps-bench -exp fig8 -quick     # reduced durations
//	kollaps-bench -exp sweep           # period-vs-accuracy sweep -> BENCH_sweep.json
//	kollaps-bench -exp chaos -out new.json   # chaos report -> new.json
//	kollaps-bench -exp fig8 -cpuprofile cpu.prof -memprofile mem.prof   # + pprof profiles
//
// The JSON experiments (failover, sweep, chaos) write their
// committed BENCH_*.json when named explicitly in -exp; -exp all writes
// none of them. -out overrides the path when exactly one JSON experiment
// is selected and is an error otherwise.
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
	exp := flag.String("exp", "all", "experiment id: table2 table3 table4 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 dissem failover sweep chaos or all")
	quick := flag.Bool("quick", false, "reduced durations (coarser numbers, much faster)")
	out := flag.String("out", "", "write the one selected JSON experiment's report here instead of its committed BENCH_*.json")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write the allocation profile to this path when the experiments finish")
	flag.Parse()

	order := []string{"table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "fig9", "fig10", "fig11", "dissem", "failover", "sweep", "chaos"}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = order
	}
	// Each JSON experiment writes its committed report when named in
	// -exp; -exp all writes none, so a developer run never rewrites a
	// baseline by accident.
	reports := map[string]string{
		"failover": "BENCH_failover.json", "sweep": "BENCH_sweep.json", "chaos": "BENCH_chaos.json",
	}
	var selected []string
	for _, id := range ids {
		if _, ok := reports[id]; ok {
			selected = append(selected, id)
		}
	}
	if *out != "" {
		if len(selected) != 1 {
			fmt.Fprintf(os.Stderr, "-out needs exactly one JSON experiment in -exp, got %d\n", len(selected))
			os.Exit(2)
		}
		reports[selected[0]] = *out
	}
	if *exp == "all" {
		reports = nil
	}
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

	d := func(full, fast time.Duration) time.Duration {
		if *quick {
			return fast
		}
		return full
	}
	// fast is a JSON experiment's -quick size; 0 selects its committed one.
	fast := func(n int) int {
		if *quick {
			return n
		}
		return 0
	}

	// report runs a JSON experiment against its resolved report path.
	report := func(id string, run func(path string) (*experiments.Table, error)) func() {
		return func() {
			t, err := run(reports[id])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			t.Fprint(os.Stdout)
			if reports[id] != "" {
				fmt.Printf("\nwrote %s\n", reports[id])
			}
		}
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
		"failover": report("failover", func(path string) (*experiments.Table, error) {
			t, _, err := experiments.RunFailover(path, fast(8), fast(30))
			return t, err
		}),
		"sweep": report("sweep", func(path string) (*experiments.Table, error) {
			t, _, err := experiments.RunSweep(path, fast(8), nil, nil, fast(15), fast(60))
			return t, err
		}),
		"chaos": report("chaos", func(path string) (*experiments.Table, error) {
			t, _, err := experiments.RunChaos(path, fast(8), fast(50))
			return t, err
		}),
	}
	for _, id := range ids {
		run, ok := runs[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(order, " "))
			os.Exit(2)
		}
		if *exp == "all" {
			fmt.Printf("\n[%s]\n", id)
		}
		run()
	}
}
