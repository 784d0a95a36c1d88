// Command kollaps-bench regenerates the tables and figures of the paper's
// evaluation (§5) and the control-plane experiments that go past it.
// Each experiment prints the same rows/series the paper reports; the
// experiments, their full and -quick sizes and their committed reports
// are the table in internal/experiments. README.md shows how to run
// them; DESIGN.md explains where the measured values depart from the
// paper's.
//
// Usage:
//
//	kollaps-bench -exp table2          # one experiment
//	kollaps-bench -exp all             # everything (slow); writes no JSON report
//	kollaps-bench -exp fig8 -quick     # reduced durations
//	kollaps-bench -exp sweep           # period-vs-accuracy sweep -> BENCH_sweep.json
//	kollaps-bench -exp paper           # every table experiment, quick -> BENCH_paper.json
//	kollaps-bench -exp chaos -out new.json   # chaos report -> new.json
//	kollaps-bench -exp fig8 -cpuprofile cpu.prof -memprofile mem.prof   # + pprof profiles
//
// The JSON experiments (failover, sweep, chaos, paper) write their
// committed BENCH_*.json when named explicitly in -exp; -exp all runs
// every experiment but paper and writes no report. -out overrides the
// path when exactly one JSON experiment is selected and is an error
// otherwise. Every id is checked before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the experiments args select and prints their tables to
// stdout. It returns the process exit code: 2 for a bad command line, 1
// when an experiment or a profile fails.
func run(args []string, stdout, stderr io.Writer) int {
	var known []string
	for _, e := range experiments.All() {
		known = append(known, e.ID)
	}
	known = append(known, "paper")

	fs := flag.NewFlagSet("kollaps-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id: "+strings.Join(known, " ")+" or all")
	quick := fs.Bool("quick", false, "reduced durations (coarser numbers, much faster)")
	out := fs.String("out", "", "write the one selected JSON experiment's report here instead of its committed BENCH_*.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write the allocation profile to this path when the experiments finish")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := *exp == "all"
	selected := experiments.All()
	if !all {
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, " "))
				return 2
			}
			selected = append(selected, e)
		}
	}
	// Each JSON experiment writes its committed report when named in
	// -exp; -exp all writes none, so a developer run never rewrites a
	// baseline by accident.
	paths := make([]string, len(selected))
	var reports []int
	for i, e := range selected {
		if e.Report != "" {
			reports = append(reports, i)
			if !all {
				paths[i] = e.Report
			}
		}
	}
	if *out != "" {
		if len(reports) != 1 {
			fmt.Fprintf(stderr, "-out needs exactly one JSON experiment in -exp, got %d\n", len(reports))
			return 2
		}
		paths[reports[0]] = *out
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for i, e := range selected {
		if all {
			fmt.Fprintf(stdout, "\n[%s]\n", e.ID)
		}
		tables, err := e.Run(*quick, paths[i])
		if err != nil {
			// An experiment that fails exits without a profile.
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, t := range tables {
			t.Fprint(stdout)
		}
		if paths[i] != "" {
			fmt.Fprintf(stdout, "\nwrote %s\n", paths[i])
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
