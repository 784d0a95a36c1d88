package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/kollaps"
)

// The traced pass. Everything here observes the program from outside:
// spans around the harness's own calls into it, counters it already
// exports read at slice boundaries, and a CPU profile of the measured
// window billed to layers by stack. It runs as a repetition of its own
// and never feeds the end-to-end numbers.

// span is one timed call the harness made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Run    string `json:"run"`    // <workload>/<seed>
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	// Start and End are wall-clock nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// SelfNs is End−Start minus the time covered by child spans.
	SelfNs int64 `json:"self_ns"`
	// VirtualEnd is the simulation time when the span closed.
	VirtualEnd int64 `json:"virtual_end_ns,omitempty"`
	// Counters holds, for a slice, the change of every sampled counter
	// across it.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// layerMetric is one per-layer metric; Better is "lower" unless set.
type layerMetric struct{ Name, Unit, Better string }

// perLayer names every per-layer metric with its unit. Per-strategy
// dissemination metrics are appended by init.
var perLayer = []layerMetric{
	{Name: "sim.events_per_virtual_s", Unit: "1/s"},
	{Name: "sim.peak_pending", Unit: "count"},
	{Name: "sim.cpu_share", Unit: "ratio"},
	{Name: "sim.hold_ns_per_event", Unit: "ns"},
	{Name: "sim.hold_allocs_per_event", Unit: "count"},
	{Name: "sim.rearm_ns_per_op", Unit: "ns"},
	{Name: "netem.cpu_share", Unit: "ratio"},
	{Name: "netem.chain_ns_per_packet", Unit: "ns"},
	{Name: "netem.chain_allocs_per_packet", Unit: "count"},
	{Name: "fabric.packets_per_virtual_s", Unit: "1/s"},
	{Name: "fabric.drops_per_virtual_s", Unit: "1/s"},
	{Name: "fabric.cpu_share", Unit: "ratio"},
	{Name: "fabric.forward_ns_per_packet_hop", Unit: "ns"},
	{Name: "fabric.forward_allocs_per_packet_hop", Unit: "count"},
	{Name: "transport.goodput_bytes_per_virtual_s", Unit: "B/s", Better: "higher"},
	{Name: "transport.cpu_share", Unit: "ratio"},
	{Name: "transport.bulk_ns_per_segment", Unit: "ns"},
	{Name: "transport.bulk_allocs_per_segment", Unit: "count"},
	{Name: "tcal.shaping_ops_per_virtual_s", Unit: "1/s"},
	{Name: "tcal.backlog_peak_bytes", Unit: "B"},
	{Name: "tcal.cpu_share", Unit: "ratio"},
	{Name: "tcal.setbandwidth_ns_per_op", Unit: "ns"},
	{Name: "core.iterations_per_virtual_s", Unit: "1/s"},
	{Name: "core.solver_runs_per_virtual_s", Unit: "1/s"},
	{Name: "core.solver_flows_per_run", Unit: "count"},
	{Name: "core.solver_wall_share", Unit: "ratio"},
	{Name: "core.cpu_share", Unit: "ratio"},
	{Name: "core.allocate_ns_per_flow", Unit: "ns"},
	{Name: "core.allocate_allocs_per_op", Unit: "count"},
	{Name: "dissem.cpu_share", Unit: "ratio"},
	{Name: "metadata.cpu_share", Unit: "ratio"},
	{Name: "topology.events_applied", Unit: "count"},
	{Name: "topology.cpu_share", Unit: "ratio"},
	{Name: "graph.cpu_share", Unit: "ratio"},
	{Name: "kollaps.setlink_ms_p50", Unit: "ms"},
	{Name: "kollaps.setlink_ms_p90", Unit: "ms"},
	{Name: "topology.apply_ns_per_event", Unit: "ns"},
	{Name: "graph.shortest_paths_ns_per_source", Unit: "ns"},
	{Name: "graph.shortest_paths_allocs_per_source", Unit: "count"},
	{Name: "chaos.faults_per_virtual_s", Unit: "1/s"},
	{Name: "chaos.cpu_share", Unit: "ratio"},
	{Name: "obs.cpu_share", Unit: "ratio"},
	{Name: "other.cpu_share", Unit: "ratio"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio"},
	{Name: "runtime.alloc_cpu_share", Unit: "ratio"},
	{Name: "runtime.gc_cycles_per_virtual_s", Unit: "1/s"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms"},
	{Name: "bench.cpu_share", Unit: "ratio"},
	{Name: "bench.trace_overhead_pct", Unit: "%"},
}

var dissemStrategies = []string{"broadcast", "delta", "tree", "gossip"}

func init() {
	for _, s := range dissemStrategies {
		for _, m := range []layerMetric{
			{Name: "bytes_per_virtual_s", Unit: "B/s"},
			{Name: "datagrams_per_virtual_s", Unit: "1/s"},
			{Name: "staleness_p50_ms", Unit: "virtual_ms"},
			{Name: "staleness_p99_ms", Unit: "virtual_ms"},
			{Name: "suspicions", Unit: "count"},
			{Name: "recoveries", Unit: "count"},
			{Name: "rejected", Unit: "count"},
			{Name: "period_ns_per_node", Unit: "ns"},
			{Name: "period_allocs_per_node", Unit: "count"},
		} {
			perLayer = append(perLayer, layerMetric{Name: "dissem." + s + "." + m.Name, Unit: m.Unit})
		}
	}
	for i := range perLayer {
		if perLayer[i].Better == "" {
			perLayer[i].Better = "lower"
		}
	}
}

// tracer records one traced repetition. A nil *tracer is the untraced
// pass: begin, end and applied do nothing.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // ids of the spans still open, outermost first

	// Counters resolved when a window opens.
	solverRuns, solverNs, solverFlows, shapingOps []*metrics.Counter
	first, last                                   map[string]float64 // window-open and latest samples
	total                                         map[string]float64 // summed over every window
	windowVirtualS                                float64
	peakPending                                   int
	peakBacklog                                   int

	profile   bytes.Buffer
	cpuByLay  map[string]int64
	cpuMalloc int64
	cpuTotal  int64

	setLinkMs []float64
	layers    map[string]float64 // the per-layer metrics; each window adds its strategy's
}

func newTracer(in *inputs) *tracer {
	return &tracer{
		run:      fmt.Sprintf("%s/%d", in.Workload, in.Seed),
		t0:       time.Now(),
		total:    make(map[string]float64),
		cpuByLay: make(map[string]int64),
		layers:   make(map[string]float64),
	}
}

func (t *tracer) begin(name, label string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Label: label, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	sp := &t.spans[id-1]
	sp.End = int64(time.Since(t.t0))
	sp.SelfNs += sp.End - sp.Start
	if sp.Parent != 0 {
		t.spans[sp.Parent-1].SelfNs -= sp.End - sp.Start
	}
	t.open = t.open[:len(t.open)-1]
}

// applied wraps one timed topology mutation in an apply_event span.
func (t *tracer) applied(label string, apply func() error) error {
	if t == nil {
		return apply()
	}
	id := t.begin("apply_event", label)
	err := apply()
	t.end(id)
	sp := t.spans[id-1]
	t.setLinkMs = append(t.setLinkMs, float64(sp.End-sp.Start)/1e6)
	return err
}

// openWindow resolves the program's exported counters, takes the
// baseline sample and starts the CPU profile.
func (t *tracer) openWindow(exp *kollaps.Experiment, st stage) {
	reg := exp.Metrics()
	t.solverRuns, t.solverNs, t.solverFlows, t.shapingOps = nil, nil, nil, nil
	for h := range exp.Runtime.Managers() {
		label := fmt.Sprintf(`{host="%d"}`, h)
		t.solverRuns = append(t.solverRuns, reg.Counter("kollaps_solver_runs_total"+label))
		t.solverNs = append(t.solverNs, reg.Counter("kollaps_solver_wall_ns_total"+label))
		t.solverFlows = append(t.solverFlows, reg.Counter("kollaps_solver_flows_total"+label))
		t.shapingOps = append(t.shapingOps, reg.Counter("kollaps_tcal_shaping_ops_total"+label))
	}
	t.first = t.sample(exp, st)
	t.last = t.first
	t.profile.Reset()
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		panic(fmt.Sprintf("bench: cpu profile: %v", err))
	}
}

// sample reads every in-situ counter. All are cumulative, so a slice's
// share is the difference of two samples.
func (t *tracer) sample(exp *kollaps.Experiment, st stage) map[string]float64 {
	rt := exp.Runtime
	s := make(map[string]float64, 24)
	sum := func(cs []*metrics.Counter) float64 {
		var v int64
		for _, c := range cs {
			v += c.Value()
		}
		return float64(v)
	}
	s["solver_runs"] = sum(t.solverRuns)
	s["solver_wall_ns"] = sum(t.solverNs)
	s["solver_flows"] = sum(t.solverFlows)
	s["shaping_ops"] = sum(t.shapingOps)
	for _, m := range rt.Managers() {
		s["iterations"] += float64(m.Iterations)
	}
	for _, d := range rt.DissemStats() {
		if d == nil {
			continue
		}
		s["ctrl_bytes"] += float64(d.BytesSent.Value())
		s["ctrl_datagrams"] += float64(d.DatagramsSent.Value())
		s["suspicions"] += float64(d.Suspicions.Value())
		s["recoveries"] += float64(d.Recoveries.Value())
		s["rejected"] += float64(d.BadChecksum.Value() + d.BadDatagram.Value() + d.BadVersion.Value())
	}
	s["chaos_faults"] = float64(exp.ChaosStats().Total())
	s["fabric_packets"] = float64(rt.Cluster.Delivered)
	drops := rt.Cluster.DroppedNoRoute
	for id := 0; id < rt.Cluster.Graph().NumLinks(); id++ {
		_, _, d := rt.Cluster.LinkStats(id)
		drops += d
	}
	s["fabric_drops"] = float64(drops)
	s["topology_events"] = float64(rt.TopologyGen())
	if st.Goodput != nil {
		s["goodput_bytes"] = float64(st.Goodput())
	}
	for _, c := range rt.Containers() {
		for _, dst := range c.TCAL().Destinations() {
			if b := c.TCAL().Backlog(dst); b > t.peakBacklog {
				t.peakBacklog = b
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s["mallocs"] = float64(ms.Mallocs)
	s["alloc_bytes"] = float64(ms.TotalAlloc)
	s["gc_cycles"] = float64(ms.NumGC)
	s["gc_pause_ns"] = float64(ms.PauseTotalNs)
	return s
}

// runSlices drives the window slice by slice, counting events, and
// returns the wall-clock the slices took (sampling between them is the
// tracer's cost, not the program's).
func (t *tracer) runSlices(exp *kollaps.Experiment, st stage) (wallS float64, err error) {
	pending := func() {
		if p := exp.Eng.Pending(); p > t.peakPending {
			t.peakPending = p
		}
	}
	for i, end := range st.SliceEnds {
		label := fmt.Sprint(i)
		if st.Strategy != "" {
			label = st.Strategy + "/" + label
		}
		id := t.begin("slice", label)
		events := stepTo(exp.Eng, end, pending)
		t.end(id)
		if err := exp.Runtime.EventError(); err != nil {
			return 0, err
		}
		pending()
		sp := &t.spans[id-1]
		sp.VirtualEnd = int64(end)
		wallS += float64(sp.End-sp.Start) / 1e9

		cur := t.sample(exp, st)
		sp.Counters = map[string]float64{"events": float64(events)}
		t.total["events"] += float64(events)
		for k, v := range cur {
			d := v - t.last[k]
			sp.Counters[k] = d
			t.total[k] += d
		}
		t.last = cur
	}
	return wallS, nil
}

// closeWindow stops the profile, bills its samples to layers and
// records the per-strategy control-plane numbers of this window.
func (t *tracer) closeWindow(exp *kollaps.Experiment, st stage, virtualS float64) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(t.profile.Bytes())
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	for _, s := range samples {
		t.cpuByLay[layerOf(s.Stack)] += s.Value
		if inMalloc(s.Stack) {
			t.cpuMalloc += s.Value
		}
		t.cpuTotal += s.Value
	}
	t.windowVirtualS += virtualS

	strategy := st.Strategy
	if strategy == "" {
		strategy = "broadcast"
	}
	w := make(map[string]float64)
	for _, k := range []string{"ctrl_bytes", "ctrl_datagrams", "suspicions", "recoveries", "rejected"} {
		w[k] = t.last[k] - t.first[k]
	}
	sum := exp.DissemSummary()
	pre := "dissem." + strategy + "."
	t.layers[pre+"bytes_per_virtual_s"] = w["ctrl_bytes"] / virtualS
	t.layers[pre+"datagrams_per_virtual_s"] = w["ctrl_datagrams"] / virtualS
	t.layers[pre+"staleness_p50_ms"] = sum.StalenessP50Ms
	t.layers[pre+"staleness_p99_ms"] = sum.StalenessP99Ms
	t.layers[pre+"suspicions"] = w["suspicions"]
	t.layers[pre+"recoveries"] = w["recoveries"]
	t.layers[pre+"rejected"] = w["rejected"]
}

// finish turns the accumulated counters and profile into the per-layer
// metrics. windowWallS is the traced window's wall-clock.
func (t *tracer) finish(windowWallS float64) map[string]float64 {
	L := t.layers
	v := t.windowVirtualS
	tot := t.total
	L["sim.events_per_virtual_s"] = tot["events"] / v
	L["sim.peak_pending"] = float64(t.peakPending)
	L["fabric.packets_per_virtual_s"] = tot["fabric_packets"] / v
	L["fabric.drops_per_virtual_s"] = tot["fabric_drops"] / v
	L["transport.goodput_bytes_per_virtual_s"] = tot["goodput_bytes"] / v
	L["tcal.shaping_ops_per_virtual_s"] = tot["shaping_ops"] / v
	L["tcal.backlog_peak_bytes"] = float64(t.peakBacklog)
	L["core.iterations_per_virtual_s"] = tot["iterations"] / v
	L["core.solver_runs_per_virtual_s"] = tot["solver_runs"] / v
	if tot["solver_runs"] > 0 {
		L["core.solver_flows_per_run"] = tot["solver_flows"] / tot["solver_runs"]
	}
	L["core.solver_wall_share"] = tot["solver_wall_ns"] / 1e9 / windowWallS
	L["topology.events_applied"] = tot["topology_events"]
	L["chaos.faults_per_virtual_s"] = tot["chaos_faults"] / v
	L["runtime.gc_cycles_per_virtual_s"] = tot["gc_cycles"] / v
	L["runtime.gc_pause_ms_total"] = tot["gc_pause_ns"] / 1e6
	L["kollaps.setlink_ms_p50"] = quantile(t.setLinkMs, 0.5)
	L["kollaps.setlink_ms_p90"] = quantile(t.setLinkMs, 0.9)
	// A window too short to catch a profile sample (the smoke test's)
	// reports every share as 0.
	cpu := float64(t.cpuTotal)
	if cpu == 0 {
		cpu = 1
	}
	for _, l := range cpuLayers {
		name := l + ".cpu_share"
		if l == "runtime.gc" {
			name = "runtime.gc_cpu_share"
		}
		L[name] = float64(t.cpuByLay[l]) / cpu
	}
	L["runtime.alloc_cpu_share"] = float64(t.cpuMalloc) / cpu
	return L
}

// writeTrace writes the spans to path, one JSON object per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
