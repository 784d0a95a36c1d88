// Command benchcheck holds the noise-safe perf gates CI runs on top of
// the test suite.
//
// -iterate gates the observability plane's hot-path cost: it parses the
// text output of `go test -bench Iterate -benchmem -count=N` and enforces
// two invariants of the Emulation Manager loop — the untraced
// BenchmarkIterate stays at 0 allocs/op (the flight recorder must not
// have re-introduced allocation when disabled), and the best
// BenchmarkIterateTraced run stays within maxTraceOverhead (1.10×) of the
// best untraced run (recording must be cheap enough to leave on).
// Minimum-of-count ns/op comparisons tolerate CI noise: a loaded runner
// slows individual runs, but the minima converge.
//
// -ledger holds a noise-safe column of the whole-experiment ledger: it
// reads the output of `go run ./bench -workload W`, whose last line is
// the run's JSON result, and fails when the run's own checks failed
// (`correct` false) or allocs_per_virtual_s exceeds -max-ledger-allocs.
// Allocation counts repeat almost exactly from run to run and machine to
// machine, which wall-clock does not.
//
// Usage:
//
//	benchcheck -iterate iterate.txt
//	benchcheck -ledger flap.txt -max-ledger-allocs 60000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// maxTraceOverhead is the iterate gate's bound: BenchmarkIterateTraced's
// best ns/op may be at most this multiple of BenchmarkIterate's.
const maxTraceOverhead = 1.10

func main() {
	iterate := flag.String("iterate", "", "gate the iterate benchmarks from this `go test -bench` text output")
	ledger := flag.String("ledger", "", "gate one `go run ./bench -workload W` output (last line: the JSON result)")
	ledgerAllocs := flag.Float64("max-ledger-allocs", 60000, "ledger mode: fail when allocs_per_virtual_s exceeds this")
	flag.Parse()

	var err error
	switch {
	case *ledger != "":
		err = checkLedger(*ledger, *ledgerAllocs)
	case *iterate != "":
		err = checkIterate(*iterate)
	default:
		fmt.Fprintln(os.Stderr, "benchcheck: name a gate: -iterate FILE or -ledger FILE")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

// iterateResult folds a benchmark's -count repeats: the minimum ns/op
// (least-noise estimate) and the maximum allocs/op (an allocation on any
// run is a real allocation).
type iterateResult struct {
	minNs     float64
	maxAllocs int64
	runs      int
}

// parseBenchLines extracts per-benchmark results from `go test -bench`
// text output, keyed by base name with the -GOMAXPROCS suffix stripped.
func parseBenchLines(raw string) map[string]*iterateResult {
	out := map[string]*iterateResult{}
	for _, line := range strings.Split(raw, "\n") {
		fields := strings.Fields(line)
		// e.g. BenchmarkIterate-8  2000  72043 ns/op  1316 B/op  0 allocs/op
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		r := out[name]
		if r == nil {
			r = &iterateResult{}
			out[name] = r
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if r.runs == 0 || v < r.minNs {
					r.minNs = v
				}
			case "allocs/op":
				if n := int64(v); n > r.maxAllocs {
					r.maxAllocs = n
				}
			}
		}
		r.runs++
	}
	return out
}

// checkIterate enforces the iterate-loop gates on a benchmark output
// file; any error is a failed gate (or unusable input, which must also
// fail — a gate that can't see its benchmarks is disabled, not passing).
func checkIterate(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	results := parseBenchLines(string(raw))
	plain, ok := results["BenchmarkIterate"]
	if !ok {
		return fmt.Errorf("%s: no BenchmarkIterate results", path)
	}
	traced, ok := results["BenchmarkIterateTraced"]
	if !ok {
		return fmt.Errorf("%s: no BenchmarkIterateTraced results", path)
	}
	if plain.maxAllocs > 0 {
		return fmt.Errorf("BenchmarkIterate allocates: %d allocs/op (max over %d runs), want 0 — the emulation loop must stay allocation-free with observability disabled",
			plain.maxAllocs, plain.runs)
	}
	fmt.Printf("ok   BenchmarkIterate: 0 allocs/op over %d runs, best %.0f ns/op\n", plain.runs, plain.minNs)
	if plain.minNs <= 0 {
		return fmt.Errorf("BenchmarkIterate best ns/op is %.0f — unusable measurement", plain.minNs)
	}
	overhead := traced.minNs / plain.minNs
	if overhead > maxTraceOverhead {
		return fmt.Errorf("BenchmarkIterateTraced overhead %.2fx exceeds %.2fx (best %.0f vs %.0f ns/op)",
			overhead, maxTraceOverhead, traced.minNs, plain.minNs)
	}
	fmt.Printf("ok   BenchmarkIterateTraced: %.2fx of untraced (best %.0f ns/op, %d allocs/op)\n",
		overhead, traced.minNs, traced.maxAllocs)
	return nil
}

// checkLedger enforces the ledger gate on one workload's bench output.
func checkLedger(path string, maxAllocs float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res struct {
		Correct *bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct == nil {
		return fmt.Errorf("%s: last line is not a bench result (run bench with -workload): %v", path, err)
	}
	if !*res.Correct {
		return fmt.Errorf("%s: the run failed its own checks (correct=false)", path)
	}
	allocs, ok := res.Metrics["allocs_per_virtual_s"]
	if !ok {
		return fmt.Errorf("%s: result has no allocs_per_virtual_s", path)
	}
	if allocs.Value > maxAllocs {
		return fmt.Errorf("allocs_per_virtual_s %.0f exceeds %.0f", allocs.Value, maxAllocs)
	}
	fmt.Printf("ok   ledger: correct, allocs_per_virtual_s %.0f (gate %.0f)\n", allocs.Value, maxAllocs)
	return nil
}
