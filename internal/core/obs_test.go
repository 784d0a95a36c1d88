package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// The probe compares enforced allocations against the perfect-information
// oracle: on a converged single-bottleneck workload the two agree within
// a few percent, and the probe's series fills at the configured cadence.
func TestAccuracyProbe(t *testing.T) {
	probe := obs.NewProbe(2)
	rt := buildRuntime(t, fig8YAML, 2, Options{Probe: probe})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	c2, _ := rt.Container("c2")
	s2, _ := rt.Container("s2")
	startGreedy(rt.Eng, c1, s1, transport.Cubic)
	startGreedy(rt.Eng, c2, s2, transport.Cubic)
	rt.Eng.Run(10 * time.Second)

	if probe.Samples == 0 {
		t.Fatal("probe recorded no samples")
	}
	// Every 2 periods over 10s at 50ms/period ≈ 100 samples.
	if probe.Samples < 50 {
		t.Fatalf("probe samples = %d, want ≥ 50", probe.Samples)
	}
	// Converged steady state: enforced shares track the oracle closely.
	tail := probe.MeanBetween(5*time.Second, 10*time.Second)
	if tail > 0.10 {
		t.Fatalf("steady-state mean share deviation = %.3f, want ≤ 0.10", tail)
	}
}

// The flight recorder captures the full §4.1 loop: solver slices,
// publish/receive, TCAL applies, and failure injection, and both export
// formats stay valid.
func TestRuntimeTracing(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	rt := buildRuntime(t, fig8YAML, 2, Options{Tracer: tr})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	c2, _ := rt.Container("c2")
	s2, _ := rt.Container("s2")
	// Two flows contending the shared b1->b2 bottleneck: enforcement has
	// to move rates, which is what KindTCALApply records.
	startGreedy(rt.Eng, c1, s1, transport.Cubic)
	startGreedy(rt.Eng, c2, s2, transport.Cubic)
	rt.Eng.Run(2 * time.Second)

	if err := rt.KillManager(1); err != nil {
		t.Fatal(err)
	}
	rt.Eng.Run(3 * time.Second)
	if err := rt.RestartManager(1); err != nil {
		t.Fatal(err)
	}
	rt.Eng.Run(4 * time.Second)

	counts := map[obs.Kind]int{}
	for _, e := range tr.Events(nil) {
		counts[e.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindSolveStart, obs.KindSolveEnd, obs.KindPublish,
		obs.KindReceive, obs.KindTCALApply,
		obs.KindManagerKill, obs.KindManagerRestart,
	} {
		if counts[k] == 0 {
			t.Fatalf("no %v events recorded; have %v", k, counts)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON")
	}
	if !strings.Contains(buf.String(), `"manager-kill"`) {
		t.Fatalf("chrome trace missing manager-kill instant event")
	}
}

// Solver counters land in the registry under per-host labels, and the
// prometheus export carries them.
func TestManagerSolverCounters(t *testing.T) {
	rt := buildRuntime(t, fig8YAML, 2, Options{})
	rt.Start()
	c1, _ := rt.Container("c1")
	s1, _ := rt.Container("s1")
	c2, _ := rt.Container("c2")
	s2, _ := rt.Container("s2")
	startGreedy(rt.Eng, c1, s1, transport.Cubic)
	startGreedy(rt.Eng, c2, s2, transport.Cubic)
	rt.Eng.Run(2 * time.Second)

	snap := rt.Metrics().Snapshot()
	runs := snap[`kollaps_solver_runs_total{host="0"}`]
	if runs == 0 {
		t.Fatalf("host 0 solver never ran: %v", snap)
	}
	// Raw counts, at most one per enforce call. Two settled flows repeat
	// the entitlement input most periods; TCP demand keeps binding, so no
	// demand-aware pass is derived here (TestEnforceMatchesFreshSolves
	// covers that path).
	for _, name := range []string{
		`kollaps_solver_entitlement_reused_total{host="0"}`,
		`kollaps_solver_demand_derived_total{host="0"}`,
		`kollaps_solver_demand_fit_total{host="0"}`,
	} {
		if v, ok := snap[name]; !ok || v > runs {
			t.Fatalf("%s = %v (present %v), want at most %v", name, v, ok, runs)
		}
	}
	if snap[`kollaps_solver_entitlement_reused_total{host="0"}`] == 0 {
		t.Fatalf("host 0 never reused its entitlement pass: %v", snap)
	}
	// Every entitlement pass is reused or missed, and a miss has one cause.
	capMiss, ok1 := snap[`kollaps_solver_entitlement_missed_total{host="0",cause="capacity"}`]
	inMiss, ok2 := snap[`kollaps_solver_entitlement_missed_total{host="0",cause="input"}`]
	if !ok1 || !ok2 || capMiss == 0 {
		t.Fatalf("missed series: capacity %v (present %v), input %v (present %v), want both, capacity ≥ 1",
			capMiss, ok1, inMiss, ok2)
	}
	if got := snap[`kollaps_solver_entitlement_reused_total{host="0"}`] + capMiss + inMiss; got != runs {
		t.Fatalf("reused + missed = %v, want the %v solver runs", got, runs)
	}
	if snap[`kollaps_tcal_shaping_ops_total{host="0"}`] == 0 {
		t.Fatalf("host 0 enforced no shaping changes: %v", snap)
	}
	// Every manager's control-plane traffic is exported per host under the
	// deployed strategy's label.
	for _, name := range []string{
		`kollaps_dissem_bytes_sent{host="0",strategy="broadcast"}`,
		`kollaps_dissem_bytes_sent{host="1",strategy="broadcast"}`,
	} {
		if snap[name] == 0 {
			t.Fatalf("%s = 0, want the manager's control-plane bytes: %v", name, snap)
		}
	}
	var buf bytes.Buffer
	if err := rt.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"# TYPE kollaps_solver_runs_total counter",
		"# TYPE kollaps_solver_entitlement_reused_total counter",
		"# TYPE kollaps_solver_entitlement_missed_total counter",
		"# TYPE kollaps_solver_demand_derived_total counter",
		`kollaps_solver_runs_total{host="0"}`,
		`kollaps_solver_entitlement_reused_total{host="0"}`,
		`kollaps_solver_entitlement_missed_total{host="0",cause="capacity"}`,
		`kollaps_solver_entitlement_missed_total{host="0",cause="input"}`,
		`kollaps_solver_demand_derived_total{host="0"}`,
		`kollaps_dissem_bytes_sent{host="0",strategy="broadcast"}`,
		`kollaps_dissem_saturated{host="0",strategy="broadcast"} 0`,
		`kollaps_dissem_truncated_records{host="0",strategy="broadcast"} 0`,
		`kollaps_dissem_bad_versions{host="0",strategy="broadcast"} 0`,
		`kollaps_dissem_staleness_ms{host="0",strategy="broadcast",quantile="0.99"}`,
		"kollaps_virtual_time_seconds 2\n",
		"kollaps_topology_trees_built_total ",
		"kollaps_topology_trees_carried_total 0\n",
		"kollaps_topology_trees_repaired_total 0\n",
		"kollaps_topology_paths_materialized_total ",
		"kollaps_topology_paths_kept_total 0\n",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("prometheus export missing %q:\n%s", name, buf.String())
		}
	}
}
