package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// bench runs sets of repetitions. spawn runs one repetition; main
// re-executes the binary, the smoke test runs in-process. speed is read
// before and after every repetition to normalize its timings
// (speedometer; the smoke test pins it to the reference).
type bench struct {
	seed  int64
	sz    sizing
	reps  int
	spawn func(workload string, seed int64, sz sizing, traced bool) (*result, error)
	speed func() float64
}

// timed runs one repetition between two speedometer readings.
func (b *bench) timed(workload string, traced bool, before float64) (res *result, after float64, err error) {
	res, err = b.spawn(workload, b.seed, b.sz, traced)
	if err != nil {
		return nil, 0, err
	}
	after = b.speed()
	res.Slowdown = (before + after) / 2 / refSpeedNs
	return res, after, nil
}

// workloadSet is every repetition of one workload at one seed.
type workloadSet struct {
	workload string
	nominal  int // checks the workload makes, charged when it dies
	reps     []*result
	// err is set when a repetition died, returned an error or broke
	// determinism: every op then counts as failed.
	err    error
	traced *result
	spans  []span
}

func (b *bench) runSet(workload string) *workloadSet {
	set := &workloadSet{workload: workload}
	in, err := generate(workload, b.seed, b.sz)
	if err != nil {
		set.err = err
		return set
	}
	set.nominal = nominalOps(in)
	speed := b.speed()
	for i := 0; i < b.reps; i++ {
		var res *result
		res, speed, err = b.timed(workload, false, speed)
		if err != nil {
			set.err = err
			return set
		}
		if i > 0 && res.exact() != set.reps[0].exact() {
			set.err = fmt.Errorf("%s: repetition %d broke determinism:\n  first: %s\n  now:   %s",
				workload, i+1, set.reps[0].exact(), res.exact())
			return set
		}
		set.reps = append(set.reps, res)
	}
	return set
}

// runTraced adds the traced repetition to a set. Tracing must not
// change what is simulated, so its fingerprint has to match.
func (b *bench) runTraced(set *workloadSet) {
	res, _, err := b.timed(set.workload, true, b.speed())
	if err != nil {
		set.err = err
		return
	}
	if res.Fingerprint != set.reps[0].Fingerprint {
		set.err = fmt.Errorf("%s: traced pass simulated something else: fingerprint %s, untraced %s",
			set.workload, res.Fingerprint, set.reps[0].Fingerprint)
		return
	}
	untraced := set.median("wall_s_per_virtual_s")
	res.Layers["bench.trace_overhead_pct"] = 100 * (res.metric("wall_s_per_virtual_s") - untraced) / untraced
	set.traced = res
	set.spans = res.Spans
}

// ops returns the checks attempted and failed.
func (s *workloadSet) ops() (attempted, failed int) {
	if s.err != nil || len(s.reps) == 0 {
		n := s.nominal
		if n < 1 {
			n = 1
		}
		return n, n
	}
	return s.reps[0].Ops, s.reps[0].OpsFailed
}

func (s *workloadSet) correct() bool {
	_, failed := s.ops()
	return failed == 0
}

func (s *workloadSet) values(metric string) []float64 {
	vs := make([]float64, len(s.reps))
	for i, r := range s.reps {
		vs[i] = r.metric(metric)
	}
	return vs
}

func (s *workloadSet) median(metric string) float64 { return quantile(s.values(metric), 0.5) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the machine-readable result: the end-to-end metrics
// of the untraced repetitions, or the per-layer metrics of the traced
// one. complete is false when no repetition finished, so there are no
// metrics to report.
func (s *workloadSet) jsonLine(traced bool) (line string, complete bool) {
	attempted, failed := s.ops()
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metricValue{}}
	switch {
	case traced && s.traced != nil:
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{s.traced.Layers[m.Name], m.Unit}
		}
		complete = true
	case !traced && len(s.reps) > 0:
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{s.median(m.Name), m.Unit}
		}
		complete = true
	}
	js, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"error":%q}`, err.Error()), false
	}
	return string(js), complete
}

func printEndToEnd(w io.Writer, sets []*workloadSet) {
	for _, s := range sets {
		attempted, failed := s.ops()
		fmt.Fprintf(w, "\n== %s", s.workload)
		if len(s.reps) > 0 {
			r := s.reps[0]
			fmt.Fprintf(w, "  seed %d  %g virtual s  %d repetitions  fingerprint %s", r.Seed, r.VirtualS, len(s.reps), r.Fingerprint)
		}
		fmt.Fprintf(w, "\n   ops %d  ops_failed %d\n", attempted, failed)
		if s.err != nil {
			fmt.Fprintf(w, "   FAILED: %v\n", s.err)
		}
		if len(s.reps) == 0 {
			continue
		}
		for _, f := range s.reps[0].Failures {
			fmt.Fprintf(w, "   failed check: %s\n", f)
		}
		fmt.Fprintf(w, "   %-30s %-10s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, m := range endToEnd {
			vs := s.values(m.Name)
			fmt.Fprintf(w, "   %-30s %-10s %14.6g %14.6g %14.6g %3d\n", m.Name, m.Unit,
				quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75), len(vs))
		}
		var slow, setup, wall, cpu []float64
		for _, r := range s.reps {
			slow = append(slow, r.Slowdown)
			setup = append(setup, r.SetupS)
			wall = append(wall, r.WindowWallS/r.VirtualS)
			cpu = append(cpu, r.WindowCPUS/r.VirtualS)
		}
		fmt.Fprintf(w, "   the three timings are divided by the machine's slowdown (median %.3f); raw medians: setup_s %.6g, wall %.6g s/s, cpu %.6g s/s\n",
			quantile(slow, 0.5), quantile(setup, 0.5), quantile(wall, 0.5), quantile(cpu, 0.5))
	}
}

func printPerLayer(w io.Writer, sets []*workloadSet) {
	fmt.Fprintf(w, "\n== per-layer metrics (traced pass)\n   %-42s %-6s", "metric", "unit")
	for _, s := range sets {
		fmt.Fprintf(w, " %14s", s.workload)
	}
	fmt.Fprintln(w)
	for _, m := range perLayer {
		fmt.Fprintf(w, "   %-42s %-6s", m.Name, m.Unit)
		for _, s := range sets {
			if s.traced == nil {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			fmt.Fprintf(w, " %14.6g", s.traced.Layers[m.Name])
		}
		fmt.Fprintln(w)
	}
	for _, s := range sets {
		if s.traced == nil {
			continue
		}
		var sum float64
		for k, v := range s.traced.Layers {
			if strings.HasSuffix(k, ".cpu_share") || k == "runtime.gc_cpu_share" {
				sum += v
			}
		}
		fmt.Fprintf(w, "   %s: cpu shares sum to %.3f\n", s.workload, sum)
	}
}

// selfcheck runs every workload twice on the same code and seed and
// prints, per (workload, metric), the relative gap between the two
// medians next to its bound. It returns the process exit code: 1 when a
// gap exceeds its bound or an exact value differs.
func (b *bench) selfcheck(w io.Writer, names []string) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-30s %14s %14s %8s %8s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	for _, name := range names {
		a, c := b.runSet(name), b.runSet(name)
		for _, s := range []*workloadSet{a, c} {
			if s.err != nil {
				fmt.Fprintf(w, "%-15s FAILED: %v\n", name, s.err)
				code = 1
			}
		}
		if a.err != nil || c.err != nil {
			continue
		}
		if ea, ec := a.reps[0].exact(), c.reps[0].exact(); ea != ec {
			fmt.Fprintf(w, "%-15s exact values differ between the sets:\n  A: %s\n  B: %s\n", name, ea, ec)
			code = 1
		}
		if !a.correct() {
			fmt.Fprintf(w, "%-15s ops_failed %d\n", name, a.reps[0].OpsFailed)
			code = 1
		}
		for _, m := range endToEnd {
			ma, mc := a.median(m.Name), c.median(m.Name)
			gap := math.Abs(mc-ma) / ma
			verdict := ""
			if !(gap <= m.Bound) {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-30s %14.6g %14.6g %7.2f%% %7.0f%%%s\n", name, m.Name, ma, mc, 100*gap, 100*m.Bound, verdict)
		}
	}
	return code
}
