// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the control-plane experiments that go past it.
// Each experiment builds its topology, deploys it on the relevant
// systems (Kollaps, bare metal, and the Mininet/Maxinet/Trickle
// baselines), drives the paper's workload, and returns the same rows or
// series the paper reports. One ordered table (All) names every
// experiment with its full and -quick size and its committed report;
// cmd/kollaps-bench runs its entries, the paper report (BENCH_paper.json)
// pins the table experiments at their quick sizes, and the committed
// reports' test regenerates every BENCH_*.json from it.
// Every system a workload runs on is built one way, by deploy
// (deploy.go), from a system: bare metal, Mininet and Maxinet are
// onFabric (one network over the target graph, one transport stack per
// service; Trickle runs on bare metal), and Kollaps is onKollaps. Every
// workload takes the one *deployment that deploy returns. Only the
// experiments that read Kollaps's control plane (Figures 3 and 4, and
// the dumbbell of dissem, failover, sweep and chaos) deploy through
// mustKollaps and the public kollaps API instead.
// README.md shows how to run them; DESIGN.md explains where the measured
// values depart from the paper's (for Figure 7, "Sharing model").
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Experiment is one entry of the evaluation table.
type Experiment struct {
	// ID is the name kollaps-bench's -exp selects.
	ID string
	// Report is the committed BENCH_*.json the experiment writes when
	// named in -exp; empty for the table experiments, which only print.
	Report string
	// full and quick run the experiment at its two sizes: the paper's
	// (or the committed report's) and kollaps-bench -quick's.
	full, quick runner
}

// runner runs an experiment at one size. path is where a JSON
// experiment writes its report ("" writes none); table experiments
// ignore it.
type runner func(path string) (result, error)

// result is what one run produced: the tables it prints and the raw
// numbers behind the two model checks the paper report's test makes.
type result struct {
	tables []*Table
	// fig8Mbps is Figure 8's measured goodput per [phase][client]; nil
	// for every other experiment.
	fig8Mbps *[6][6]float64
	// jitterMSE is Table 3's EC2-vs-emulated jitter MSE; 0 for every
	// other experiment.
	jitterMSE float64
}

// evaluation is the table of experiments, in the order kollaps-bench
// -exp all runs them. It is the one place that sets an experiment's
// size.
var evaluation = []Experiment{
	{ID: "table2", full: table2(30 * time.Second), quick: table2(time.Second)},
	{ID: "table3", full: table3(10000), quick: table3(1000)},
	{ID: "fig3", full: fig3(10*time.Second, fig3Configs), quick: fig3(3*time.Second, fig3Configs[:4])},
	{ID: "fig4", full: fig4(15*time.Second, []int{1, 2, 4, 8, 16}), quick: fig4(2*time.Second, []int{1, 4})},
	{ID: "fig5", full: fig5(60 * time.Second), quick: fig5(time.Second)},
	{ID: "fig6", full: fig6(50 * time.Second), quick: fig6(5 * time.Second)},
	{ID: "fig7", full: fig7(60 * time.Second), quick: fig7(time.Second)},
	{ID: "fig8", full: fig8(30 * time.Second), quick: fig8(10 * time.Second)},
	{ID: "table4", full: table4([]int{1000, 2000, 4000}, 60*time.Second), quick: table4([]int{1000}, 15*time.Second)},
	{ID: "fig9", full: fig9(120 * time.Second), quick: fig9(30 * time.Second)},
	{ID: "fig10", full: fig10(30 * time.Second), quick: fig10(5 * time.Second)},
	{ID: "fig11", full: fig11(30 * time.Second), quick: fig11(5 * time.Second)},
	{ID: "dissem", full: dissemScale(5*time.Second, []int{4, 8, 16, 32, 64}), quick: dissemScale(2*time.Second, []int{4, 16})},
	// Failover needs N >= 8 (host 1 must be an interior Tree node with
	// a subtree) and more dead periods than suspicion plus 15; chaos
	// needs N >= 8 (both cut hosts, and 1 interior) and fault periods
	// covering the partition plus 15.
	{ID: "failover", Report: "BENCH_failover.json", full: failover(32, 50), quick: failover(8, 30)},
	{ID: "sweep", Report: "BENCH_sweep.json", full: sweep(16, 40, 200), quick: sweep(8, 15, 60)},
	{ID: "chaos", Report: "BENCH_chaos.json", full: chaosSoak(8, 60), quick: chaosSoak(8, 50)},
}

// paper is the JSON experiment that pins the table experiments: every
// entry of the evaluation without a report of its own, run at its
// quick size. It is not part of -exp all.
var paper = Experiment{ID: "paper", Report: "BENCH_paper.json", full: runPaper, quick: runPaper}

// All returns the evaluation table in the order kollaps-bench -exp all
// runs it. The paper report is not in it.
func All() []Experiment { return append([]Experiment(nil), evaluation...) }

// Lookup returns the experiment named id: an entry of the evaluation
// table or "paper".
func Lookup(id string) (Experiment, bool) {
	for _, e := range append(All(), paper) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run runs the experiment at its -quick size when quick is set and at
// its full size otherwise, writes a JSON experiment's report to path
// ("" writes none), and returns the tables to print.
func (e Experiment) Run(quick bool, path string) ([]*Table, error) {
	run := e.full
	if quick {
		run = e.quick
	}
	r, err := run(path)
	return r.tables, err
}

// runPaper runs every table experiment at its quick size and writes
// their tables to path, in table order, as BENCH_paper.json.
func runPaper(path string) (result, error) {
	var out result
	for _, e := range evaluation {
		if e.Report != "" {
			continue
		}
		r, err := e.quick("")
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out.tables = append(out.tables, r.tables...)
		// Only Figure 8 and Table 3 set their model numbers.
		if r.fig8Mbps != nil {
			out.fig8Mbps = r.fig8Mbps
		}
		out.jitterMSE += r.jitterMSE
	}
	return out, writeReport(path, out.tables)
}

// Row is one line of a result table: a label and its column values.
type Row struct {
	Label  string   `json:"label"`
	Values []string `json:"values"`
}

// Table is a printable experiment result.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, v := range r.Values {
			if i+1 < len(widths) && len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	for i, c := range t.Columns {
		if i+1 < len(widths) && len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	header := fmt.Sprintf("%-*s", widths[0], "")
	for i, c := range t.Columns {
		header += "  " + fmt.Sprintf("%*s", widths[i+1], c)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-*s", widths[0], r.Label)
		for i, v := range r.Values {
			line += "  " + fmt.Sprintf("%*s", widths[i+1], v)
		}
		fmt.Fprintln(w, line)
	}
}

func pct(observed, nominal float64) string {
	if nominal == 0 {
		return "n/a"
	}
	d := (observed - nominal) / nominal * 100
	return fmt.Sprintf("%+.1f%%", d)
}

func mbps(bitsPerSec float64) string {
	switch {
	case bitsPerSec >= 1e9:
		return fmt.Sprintf("%.2fGb/s", bitsPerSec/1e9)
	case bitsPerSec >= 1e6:
		return fmt.Sprintf("%.1fMb/s", bitsPerSec/1e6)
	default:
		return fmt.Sprintf("%.0fKb/s", bitsPerSec/1e3)
	}
}
