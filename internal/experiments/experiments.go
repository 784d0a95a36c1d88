// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each RunXxx function builds the experiment's topology,
// deploys it on the relevant systems (Kollaps, bare metal, and the
// Mininet/Maxinet/Trickle baselines), drives the paper's workload, and
// returns the same rows or series the paper reports. The cmd/kollaps-bench
// binary prints them; bench_test.go wraps them as testing.B benchmarks.
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
)

// Row is one line of a result table: a label and its column values.
type Row struct {
	Label  string
	Values []string
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
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

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
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
