// Command bench is the whole-experiment benchmark of the Kollaps
// reproduction: four workloads driven through the public kollaps API,
// end-to-end metrics measured with tracing off, and a separate traced
// pass that attributes the cost to layers. See README.md.
//
//	go run ./bench -seed 1                       every workload, 5 repetitions
//	go run ./bench -seed 1 -workload cbr_mesh64  one workload (+ a JSON line)
//	go run ./bench -seed 1 -trace out.jsonl      plus the traced pass
//	go run ./bench -seed 1 -selfcheck            two sets, gaps against bounds
//	go run ./bench -seed 1 -dump-inputs DIR      write the generated inputs
//	go run ./bench -manifest                     print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// driverReps is how many repetitions one `-workload W` invocation makes
// when -reps is not given.
const driverReps = 3

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds:
// what driverReps measured windows take on the seed tree.
const runSeconds = 17

// manifestJSON renders BENCHMARK.json from the tables the program
// itself reports from, so the two cannot drift apart.
func manifestJSON() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		bound := e.Bound
		m.EndToEnd = append(m.EndToEnd, metric{e.Name, e.Unit, "lower", &bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{Name: l.Name, Unit: l.Unit, Better: l.Better})
	}
	js, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(js, '\n')
}

func main() {
	var (
		seedFlag   = flag.String("seed", "1", "the only source of variation: every input is generated from it")
		workload   = flag.String("workload", "", "run one workload and print a JSON result as the last line (default: all four)")
		seconds    = flag.Float64("seconds", runSeconds, "wall-clock three repetitions' measured windows should take on the seed tree; scales the virtual durations")
		reps       = flag.Int("reps", 0, "repetitions per workload, at least 3 (default 5, or 3 with -workload)")
		trace      = flag.String("trace", "0", "traced pass: 0 off, 1 on, or a file to write the spans to as JSON lines")
		selfcheck  = flag.Bool("selfcheck", false, "run two full sets and compare their medians against the bounds")
		dumpDir    = flag.String("dump-inputs", "", "write every workload's generated inputs under this directory and exit")
		manifest   = flag.Bool("manifest", false, "print BENCHMARK.json as this program declares it and exit")
		child      = flag.Bool("child", false, "internal: run one repetition in this process and print its result")
		childTrace = flag.Bool("child-traced", false, "internal: the repetition is the traced one")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	seed, err := parseSeed(*seedFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if !(*seconds > 0) {
		fatalf("-seconds must be positive")
	}
	sz := sizing{Seconds: *seconds}

	switch {
	case *child:
		os.Exit(childMain(*workload, seed, sz, *childTrace))
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *dumpDir != "":
		if err := dumpInputs(*dumpDir, seed, sz); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		if _, err := generate(*workload, seed, sz); err != nil {
			fatalf("%v", err)
		}
		names = []string{*workload}
		if *reps == 0 {
			*reps = driverReps
		}
	}
	if *reps == 0 {
		*reps = 5
	}
	if *reps < 3 {
		fatalf("-reps must be at least 3")
	}
	b := &bench{seed: seed, sz: sz, reps: *reps, spawn: spawnChild, speed: speedometer}

	if *selfcheck {
		os.Exit(b.selfcheck(os.Stdout, names))
	}
	traced := *trace != "0" && *trace != ""
	if traced && *workload != "" {
		// `-workload W -trace 1` is the per-layer run: one untraced
		// repetition as the overhead reference, one traced.
		b.reps = 1
	}
	ok := true
	var sets []*workloadSet
	var spans []span
	for _, w := range names {
		set := b.runSet(w)
		if traced && set.err == nil {
			b.runTraced(set)
			spans = append(spans, set.spans...)
		}
		sets = append(sets, set)
		ok = ok && set.correct()
	}
	printEndToEnd(os.Stdout, sets)
	if traced {
		printPerLayer(os.Stdout, sets)
	}
	if traced && *trace != "1" {
		if err := writeTrace(*trace, spans); err != nil {
			fatalf("%v", err)
		}
	}
	if *workload != "" {
		// The machine-readable line: end-to-end metrics untraced,
		// per-layer metrics traced.
		line, complete := sets[0].jsonLine(traced)
		fmt.Println(line)
		if !complete {
			os.Exit(1)
		}
		return
	}
	if !ok {
		os.Exit(1)
	}
}

func parseSeed(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -seed %q", s)
	}
	return int64(v), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// childMain runs one repetition and prints its result as JSON.
func childMain(workload string, seed int64, sz sizing, traced bool) int {
	in, err := generate(workload, seed, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var tr *tracer
	if traced {
		tr = newTracer(in)
	}
	res, err := runWorkload(in, tr, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced {
		for k, v := range runProbes(in.Seed) {
			res.Layers[k] = v
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// spawnChild re-executes this binary for one repetition, so heap
// state, GC pacing and ru_maxrss belong to that repetition alone.
func spawnChild(workload string, seed int64, sz sizing, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(sz.Seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-child-traced")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", workload, err)
	}
	res := new(result)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s repetition: bad result: %w", workload, err)
	}
	return res, nil
}
