package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/kollaps"
)

// result is what one repetition of one workload reports. A child
// process prints it as JSON; the parent aggregates repetitions.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Slowdown is how much slower than refSpeedNs the machine ran the
	// speedometer around this repetition (speed.go); the parent fills it
	// in and the three timing metrics are divided by it.
	Slowdown float64 `json:"slowdown,omitempty"`

	// Timings and sizes: these vary run to run.
	SetupS       float64 `json:"setup_s"`
	WindowWallS  float64 `json:"window_wall_s"`
	WindowCPUS   float64 `json:"window_cpu_s"`
	Mallocs      uint64  `json:"mallocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	// Exact values: a same-seed repetition must reproduce every one.
	VirtualS       float64 `json:"virtual_s"`
	Ops            int     `json:"ops"`
	OpsFailed      int     `json:"ops_failed"`
	ModelErrPct    float64 `json:"model_err_mean_pct"`
	CtrlBytes      int64   `json:"ctrl_bytes"`
	CtrlDatagrams  int64   `json:"ctrl_datagrams"`
	StalenessP99Ms float64 `json:"staleness_p99_ms"`
	Fingerprint    string  `json:"fingerprint"`

	// Failures describes the first few failed checks.
	Failures []string `json:"failures,omitempty"`

	// Traced pass only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// exact is the part of a result that must repeat.
func (r *result) exact() string {
	return fmt.Sprintf("virtual_s=%g ops=%d ops_failed=%d model_err=%g ctrl_bytes=%d ctrl_datagrams=%d staleness_p99=%g fingerprint=%s",
		r.VirtualS, r.Ops, r.OpsFailed, r.ModelErrPct, r.CtrlBytes, r.CtrlDatagrams, r.StalenessP99Ms, r.Fingerprint)
}

// endToEnd names every end-to-end metric with its unit and its bound —
// the share of the parent's median by which it may worsen before a
// change is rejected — in report order. All are better lower.
// BENCHMARK.json is `bench -manifest`; README.md records how each bound
// was set.
var endToEnd = []struct {
	Name, Unit string
	Bound      float64
}{
	{"setup_s", "s", 0.25},
	{"wall_s_per_virtual_s", "s/s", 0.25},
	{"cpu_s_per_virtual_s", "s/s", 0.25},
	{"allocs_per_virtual_s", "objects/s", 0.04},
	{"alloc_bytes_per_virtual_s", "B/s", 0.04},
	{"peak_rss_bytes", "B", 0.25},
	{"model_err_mean_pct", "%", 0.10},
	{"ctrl_bytes_per_virtual_s", "B/s", 0.12},
	{"ctrl_datagrams_per_virtual_s", "1/s", 0.08},
	{"staleness_p99_ms", "virtual_ms", 0.10},
}

// metric returns one end-to-end metric of this repetition.
func (r *result) metric(name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS / r.Slowdown
	case "wall_s_per_virtual_s":
		return r.WindowWallS / r.VirtualS / r.Slowdown
	case "cpu_s_per_virtual_s":
		return r.WindowCPUS / r.VirtualS / r.Slowdown
	case "allocs_per_virtual_s":
		return float64(r.Mallocs) / r.VirtualS
	case "alloc_bytes_per_virtual_s":
		return float64(r.AllocBytes) / r.VirtualS
	case "peak_rss_bytes":
		return float64(r.PeakRSSBytes)
	case "model_err_mean_pct":
		return r.ModelErrPct
	case "ctrl_bytes_per_virtual_s":
		return float64(r.CtrlBytes) / r.VirtualS
	case "ctrl_datagrams_per_virtual_s":
		return float64(r.CtrlDatagrams) / r.VirtualS
	case "staleness_p99_ms":
		return r.StalenessP99Ms
	}
	panic("bench: unknown end-to-end metric " + name)
}

// runner carries one repetition through its lifecycle: it times the
// calls into the program, accumulates the measured window over stages
// (churn_soak deploys four times), counts checks and folds the
// fingerprint. tr is nil on an untraced repetition; every tracer method
// is a no-op on nil.
type runner struct {
	in  *inputs
	res result
	tr  *tracer

	fp fingerprint
	// model_err_mean_pct is Σ|got−model| / Σ model over every checked
	// value: weighting by the model value keeps a few short paths or
	// small shares from dominating the mean.
	errSum, modelSum float64
	// staleness_p99_ms is the mean of the stages' p99s: one strategy's
	// tail sits on a 50 ms period grid, and the worst of four jumps by a
	// whole step from seed to seed.
	stalenessSum float64
	stages       int
	perturbed    float64 // test hook: scales every model value (0 = off)
}

func newRunner(in *inputs, tr *tracer) *runner {
	r := &runner{in: in, tr: tr, fp: newFingerprint()}
	r.res.Workload, r.res.Seed = in.Workload, in.Seed
	return r
}

// stage is one deployment taken from load to the end of its measured
// window.
type stage struct {
	// Strategy is the dissemination strategy to deploy with ("": the
	// default, broadcast); it also labels the stage's spans.
	Strategy string
	// Install attaches traffic generators and collectors; it runs
	// between Deploy and the warm-up.
	Install func(exp *kollaps.Experiment) error
	// SliceEnds are the absolute virtual times where the traced pass
	// cuts the window into slices (the untraced pass runs it in one
	// call). The last one is Warmup+Window.
	SliceEnds []time.Duration
	// Goodput returns the payload bytes delivered so far, for the
	// transport-layer rate in the trace.
	Goodput func() int64
}

// perSecond cuts [from, to] at every whole virtual second after from.
func perSecond(from, to time.Duration) []time.Duration {
	var ends []time.Duration
	for t := from + time.Second; t < to; t += time.Second {
		ends = append(ends, t)
	}
	return append(ends, to)
}

// run takes one stage through load → deploy → install → warmup →
// measured window and returns the experiment for collect and check.
func (r *runner) run(st stage) (*kollaps.Experiment, error) {
	in := r.in
	setupStart := time.Now()

	sp := r.tr.begin("load", st.Strategy)
	exp, err := kollaps.Load(in.YAML)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	sp = r.tr.begin("deploy", st.Strategy)
	opts := []kollaps.Option{kollaps.WithSeed(in.DeploySeed)}
	if in.Placement != nil {
		opts = append(opts, kollaps.WithPlacement(in.Placement))
	}
	if st.Strategy != "" {
		opts = append(opts, kollaps.WithDissem(st.Strategy))
	}
	err = exp.Deploy(in.Hosts, opts...)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}

	sp = r.tr.begin("install", st.Strategy)
	err = st.Install(exp)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("install: %w", err)
	}

	sp = r.tr.begin("warmup", st.Strategy)
	err = exp.Run(in.Warmup)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	r.res.SetupS += time.Since(setupStart).Seconds()

	end := in.Warmup + in.Window
	ctrl0 := controlTotals(exp)
	var ms0, ms1 runtime.MemStats
	if r.tr != nil {
		r.tr.openWindow(exp, st)
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	wall0 := time.Now()
	var wall float64
	if r.tr == nil {
		err = exp.Run(end)
		wall = time.Since(wall0).Seconds()
	} else {
		wall, err = r.tr.runSlices(exp, st)
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	if r.tr != nil {
		r.tr.closeWindow(exp, st, in.Window.Seconds())
	}
	ctrl1 := controlTotals(exp)

	r.res.WindowWallS += wall
	r.res.WindowCPUS += cpu1 - cpu0
	r.res.Mallocs += ms1.Mallocs - ms0.Mallocs
	r.res.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	r.res.VirtualS += in.Window.Seconds()
	r.res.CtrlBytes += ctrl1.bytes - ctrl0.bytes
	r.res.CtrlDatagrams += ctrl1.datagrams - ctrl0.datagrams
	r.stalenessSum += exp.DissemSummary().StalenessP99Ms
	r.stages++
	return exp, nil
}

// finish closes the repetition: folds the accumulated state into the
// result.
func (r *runner) finish() *result {
	if r.modelSum > 0 {
		r.res.ModelErrPct = 100 * r.errSum / r.modelSum
	}
	if r.stages > 0 {
		r.res.StalenessP99Ms = r.stalenessSum / float64(r.stages)
	}
	r.res.Fingerprint = r.fp.String()
	r.res.PeakRSSBytes = peakRSS()
	return &r.res
}

// check records one correctness check.
func (r *runner) check(ok bool, format string, args ...any) {
	r.res.Ops++
	if ok {
		return
	}
	r.res.OpsFailed++
	if len(r.res.Failures) < 8 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// checkModel is a check that got is within tol of the model value
// want, tol being absolute when abs is set and a share of want
// otherwise; the deviation also feeds model_err_mean_pct.
func (r *runner) checkModel(what string, got, want, tol float64, abs bool) {
	if r.perturbed != 0 {
		want *= r.perturbed
	}
	dev := math.Abs(got - want)
	r.errSum += dev
	r.modelSum += want
	if !abs {
		tol *= want
	}
	r.check(dev <= tol, "%s: got %.6g, model %.6g, tolerance %.3g", what, got, want, tol)
}

type ctrlTotals struct{ bytes, datagrams int64 }

// controlTotals sums the control-plane counters over all managers
// without touching the staleness histograms.
func controlTotals(exp *kollaps.Experiment) ctrlTotals {
	var t ctrlTotals
	for _, s := range exp.Runtime.DissemStats() {
		if s != nil {
			t.bytes += s.BytesSent.Value()
			t.datagrams += s.DatagramsSent.Value()
		}
	}
	return t
}

// foldFinalState adds what every workload fingerprints after its
// window: metadata traffic, the enforced per-destination rates on every
// container, and the chaos schedule hash.
func (r *runner) foldFinalState(exp *kollaps.Experiment) {
	sent, recvd := exp.MetadataTraffic()
	r.fp.int(sent)
	r.fp.int(recvd)
	for _, c := range exp.Runtime.Containers() {
		r.fp.str(c.Name)
		for _, dst := range c.TCAL().Destinations() {
			props, _ := c.TCAL().Props(dst)
			r.fp.str(dst.String())
			r.fp.int(int64(props.Bandwidth))
			r.fp.int(int64(props.Latency))
		}
	}
	r.fp.int(int64(exp.ChaosScheduleHash()))
}

// fingerprint is FNV-1a over the simulated statistics of a run.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{h: fnv.New64a()} }

func (f fingerprint) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	f.h.Write(b[:])
}

func (f fingerprint) str(s string) {
	f.h.Write([]byte(s))
	f.h.Write([]byte{0})
}

func (f fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSS is this process's ru_maxrss in bytes (Linux reports KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) * 1024
}

// stepTo advances the engine to until exactly like Engine.Run, but one
// Step at a time so the events can be counted: a sentinel scheduled at
// until sorts after everything already queued for that instant, and
// the loop re-arms it until an instant's worth of zero-delay follow-ups
// has drained. sample, when set, is called every sampleEvery events.
func stepTo(eng *sim.Engine, until time.Duration, sample func()) (events int64) {
	const sampleEvery = 4096
	for {
		fired := false
		eng.At(until, func() { fired = true })
		var n int64
		for !fired {
			if !eng.Step() {
				return events + n
			}
			n++
			if sample != nil && (events+n)%sampleEvery == 0 {
				sample()
			}
		}
		n-- // the sentinel itself
		events += n
		if n == 0 {
			return events
		}
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation,
// 0 when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
