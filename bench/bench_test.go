package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// smokeSize runs every code path of every workload in well under a
// second each: short windows, 200 elements, 8 managers.
var smokeSize = sizing{Seconds: 1.2, Small: true}

// inProcess is bench.spawn without the re-exec.
func inProcess(workload string, seed int64, sz sizing, traced bool) (*result, error) {
	in, err := generate(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(in)
	}
	return runWorkload(in, tr, 0)
}

// TestSmoke is the tier-1 check of the benchmark itself: every workload
// runs clean at reduced size, no check fails, a repetition reproduces
// every exact value, another seed simulates something else, and the
// traced pass simulates the same thing while emitting every per-layer
// metric the manifest declares.
func TestSmoke(t *testing.T) {
	b := &bench{seed: 1, sz: smokeSize, reps: 2, spawn: inProcess, speed: func() float64 { return refSpeedNs }}
	probeShrink = 100
	probed := runProbes(1)
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			set := b.runSet(w)
			if set.err != nil {
				t.Fatal(set.err)
			}
			attempted, failed := set.ops()
			if attempted == 0 || failed != 0 {
				t.Fatalf("ops %d, ops_failed %d: %v", attempted, failed, set.reps[0].Failures)
			}
			if attempted != set.nominal {
				t.Errorf("made %d checks, nominalOps says %d", attempted, set.nominal)
			}
			for _, m := range endToEnd {
				if v := set.median(m.Name); !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}

			other, err := inProcess(w, 2, smokeSize, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.Fingerprint == set.reps[0].Fingerprint {
				t.Errorf("seeds 1 and 2 share fingerprint %s", other.Fingerprint)
			}

			b.runTraced(set)
			if set.err != nil {
				t.Fatal(set.err)
			}
			var shares float64
			for _, m := range perLayer {
				v, ok := set.traced.Layers[m.Name]
				if !ok {
					v, ok = probed[m.Name]
				}
				applies := !strings.HasPrefix(m.Name, "dissem.") || strings.HasSuffix(m.Name, ".cpu_share") ||
					w == "churn_soak" || strings.HasPrefix(m.Name, "dissem.broadcast.")
				if !ok && applies {
					t.Errorf("traced pass did not emit %s", m.Name)
				}
				if strings.HasSuffix(m.Name, ".cpu_share") || m.Name == "runtime.gc_cpu_share" {
					shares += v
				}
			}
			if shares != 0 && math.Abs(shares-1) > 0.02 { // 0: the window caught no profile sample
				t.Errorf("cpu shares sum to %.3f, want 1", shares)
			}
			if len(set.spans) == 0 || set.spans[0].Name != "load" {
				t.Errorf("traced pass recorded no lifecycle spans")
			}
			line, complete := set.jsonLine(false)
			var parsed struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || !complete {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			if !parsed.Correct || parsed.Attempted != attempted || parsed.Failed != 0 || len(parsed.Metrics) != len(endToEnd) {
				t.Errorf("result line %q does not match the run", line)
			}
		})
	}
	for _, name := range probeMetrics {
		if _, ok := probed[name]; !ok {
			t.Errorf("probes did not emit %s", name)
		}
	}
	if len(probed) != len(probeMetrics) {
		t.Errorf("probes emitted %d metrics, probeMetrics lists %d", len(probed), len(probeMetrics))
	}
}

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json to the tables the
// program reports from, and those tables to the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(onDisk, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("BENCHMARK.json is not `go run ./bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s")
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, m := range perLayer {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %q (unit %q) breaks the naming limits", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestSameSeedSameInputs: the seed is the only source of variation, so
// one seed dumps byte-identical inputs twice and another seed does not.
func TestSameSeedSameInputs(t *testing.T) {
	read := func(seed int64) map[string]string {
		dir := t.TempDir()
		if err := dumpInputs(dir, seed, smokeSize); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			files[rel] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b, c := read(7), read(7), read(8)
	if len(a) != 2*len(workloadNames) {
		t.Fatalf("dumped %d files, want a topology and an inputs file per workload", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 dumped different inputs the second time")
	}
	for _, w := range workloadNames {
		name := filepath.Join(w, "inputs.json")
		if a[name] == c[name] {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
}

// TestShareModels checks the harness's models against numbers published
// elsewhere: Fig 8's first two phases and the dumbbell's four classes.
func TestShareModels(t *testing.T) {
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%s = %.3f Mb/s, want %.2f", what, got, want)
		}
	}
	near("phase 1 c1", fig8Model(1)[0]/1e6, 50)
	p2 := fig8Model(2)
	near("phase 2 c1", p2[0]/1e6, 23.08)
	near("phase 2 c2", p2[1]/1e6, 26.92)
	// The closed form alone gives phase 2 as well: c1 and c2 share the
	// 50 Mb/s b1–b2 link at RTTs of 70 and 60 ms.
	cf := rttShares(50e6, []time.Duration{70 * time.Millisecond, 60 * time.Millisecond})
	near("closed form c1", cf[0]/1e6, 23.08)
	near("closed form c2", cf[1]/1e6, 26.92)
	p6 := fig8Model(6)
	for i, want := range []float64{15.04, 17.55, 10, 21.06, 26.33, 10} {
		if math.Abs(p6[i]/1e6-want) > 0.02 {
			t.Errorf("phase 6 c%d = %.3f Mb/s, want %.2f", i+1, p6[i]/1e6, want)
		}
	}

	in, err := generate("cbr_mesh64", 1, sizing{Seconds: runSeconds})
	if err != nil {
		t.Fatal(err)
	}
	model := meshModel(in.Mesh)
	if len(model) != 256 {
		t.Fatalf("cbr_mesh64 has %d flows, want 256", len(model))
	}
	var sum float64
	for i, r := range model {
		sum += r
		near("class share", r/1e6, []float64{2.889, 2.101, 1.651, 1.359}[in.Mesh.Class[i]])
	}
	if math.Abs(sum-512e6) > 1 {
		t.Errorf("shares sum to %.0f, want the 512 Mb/s bottleneck", sum)
	}
}

// TestLatencyOracle walks the harness's Dijkstra through a hand-computed
// five-node case across a latency change.
func TestLatencyOracle(t *testing.T) {
	ms := time.Millisecond
	//   a —2— s1 —2— s2 —2— b        a–s1–s2–b = 6 ms
	//          \—1— s3 —6—/           a–s1–s3–s2–b = 11 ms
	g := newLatGraph([]flapLink{
		{"a", "s1", 2 * ms}, {"s1", "s2", 2 * ms}, {"s2", "b", 2 * ms},
		{"s1", "s3", 1 * ms}, {"s3", "s2", 6 * ms},
	})
	if d := g.latency("a", "b"); d != 6*ms {
		t.Errorf("a→b = %v, want 6ms", d)
	}
	g.lat[1] = 9 * ms // s1–s2 slows down: the detour wins
	if d := g.latency("a", "b"); d != 11*ms {
		t.Errorf("after the change a→b = %v, want 11ms", d)
	}
	if d := g.latency("b", "a"); d != 11*ms {
		t.Errorf("b→a = %v, want 11ms", d)
	}
	g.lat[4] = 1 * ms // s3–s2 speeds up
	if d := g.latency("a", "b"); d != 6*ms {
		t.Errorf("after the second change a→b = %v, want 6ms", d)
	}
	if d := g.latency("a", "nowhere"); d != unreachable {
		t.Errorf("unknown node is reachable at %v", d)
	}
}

// TestChecksCanFail is the negative control: against a model that is
// 20 % off, goodput and RTT checks must fail.
func TestChecksCanFail(t *testing.T) {
	for _, w := range []string{"cbr_mesh64", "scalefree_flap"} {
		in, err := generate(w, 1, smokeSize)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(in, nil, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		if res.OpsFailed == 0 {
			t.Errorf("%s: no check failed against a model perturbed by 20%%", w)
		}
	}
}

// TestStepToMatchesRun: counting events one Step at a time must execute
// exactly what Engine.Run executes, including zero-delay follow-ups
// scheduled at the boundary instant.
func TestStepToMatchesRun(t *testing.T) {
	script := func(eng *sim.Engine, log *[]string) {
		note := func(s string) func() { return func() { *log = append(*log, s) } }
		eng.At(time.Second, note("a@1s"))
		eng.Every(400*time.Millisecond, note("tick"))
		eng.At(2*time.Second, func() {
			*log = append(*log, "b@2s")
			eng.After(0, func() {
				*log = append(*log, "follow-up@2s")
				eng.After(0, note("second follow-up@2s"))
			})
		})
		eng.At(2*time.Second+time.Nanosecond, note("late"))
	}
	var byRun, byStep []string
	a, b := sim.NewEngine(1), sim.NewEngine(1)
	script(a, &byRun)
	script(b, &byStep)
	a.Run(2 * time.Second)
	events := stepTo(b, 2*time.Second, nil)
	if !reflect.DeepEqual(byRun, byStep) {
		t.Errorf("Run executed %v, stepTo %v", byRun, byStep)
	}
	if int(events) != len(byStep) {
		t.Errorf("stepTo counted %d events, %d ran", events, len(byStep))
	}
	if a.Now() != b.Now() {
		t.Errorf("clocks differ: %v vs %v", a.Now(), b.Now())
	}
}

// TestCPUProfileReader parses a real runtime/pprof profile and bills
// stacks to layers.
func TestCPUProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("a CPU profile is already running:", err)
	}
	xs := make([]int, 1<<16)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := range xs {
			xs[i] = (i * 7919) % 104729
		}
		sort.Ints(xs)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, here int64
	for _, s := range samples {
		total += s.Value
		for _, fn := range s.Stack {
			if strings.Contains(fn, "TestCPUProfileReader") {
				here += s.Value
				break
			}
		}
	}
	if total <= 0 || float64(here) < 0.5*float64(total) {
		t.Errorf("%d of %d profiled ns have this test on the stack (%d samples)", here, total, len(samples))
	}

	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "container/heap.Push", "repro/internal/sim.(*Engine).At", "repro/internal/netem.(*Netem).Enqueue", "main.main"}, "sim"},
		{[]string{"repro/internal/graph.(*Graph).ShortestPaths", "repro/internal/topology.(*Collapsed).PathsFrom"}, "graph"},
		{[]string{"main.installMesh.func1", "repro/internal/transport.(*Stack).receiveUDP"}, "bench"},
		{[]string{"repro/internal/metrics.(*Counter).Add", "repro/internal/core.(*Manager).iterate"}, "other"},
		{[]string{"repro/kollaps.(*Experiment).Run", "main.main"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime.gc"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
