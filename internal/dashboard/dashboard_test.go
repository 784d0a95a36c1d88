package dashboard

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

const testYAML = `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
`

func testRuntimeOpts(t *testing.T, opts core.Options) *core.Runtime {
	t.Helper()
	top, err := topology.ParseYAML(testYAML)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntimeFromTopology(sim.NewEngine(1), top, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return rt
}

func testRuntime(t *testing.T) *core.Runtime {
	return testRuntimeOpts(t, core.Options{})
}

func drive(t *testing.T, rt *core.Runtime) {
	t.Helper()
	a, _ := rt.Container("a")
	b, _ := rt.Container("b")
	b.Stack.Listen(80, &transport.Listener{})
	conn := a.Stack.Dial(b.IP, 80, transport.Cubic)
	conn.Write(10_000)
	rt.Eng.Run(2 * time.Second)
}

func TestSnapshotAndHandlers(t *testing.T) {
	rt := testRuntime(t)
	drive(t, rt)

	s := New(rt)
	snap := s.Snapshot()
	if len(snap.Containers) != 2 {
		t.Fatalf("containers = %d", len(snap.Containers))
	}
	// Container a has an installed path toward b with traffic counted.
	var found bool
	for _, c := range snap.Containers {
		if c.Name != "a" {
			continue
		}
		for _, p := range c.Paths {
			if p.SentBytes > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no traffic recorded in snapshot")
	}

	// JSON endpoint.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/state", nil))
	var decoded Snapshot
	if err := json.NewDecoder(rec.Body).Decode(&decoded); err != nil {
		t.Fatalf("bad /state JSON: %v", err)
	}
	if decoded.VirtualTime != "2s" {
		t.Fatalf("virtual time = %q", decoded.VirtualTime)
	}

	// Text index.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "Kollaps experiment") || !strings.Contains(body, "a ") {
		t.Fatalf("index missing content:\n%s", body)
	}
}

// /state must report how many topology changes have applied, not a
// constant 0.
func TestStateIndexTracksTopologyChanges(t *testing.T) {
	rt := testRuntime(t)
	s := New(rt)
	if got := s.Snapshot().StateIndex; got != 0 {
		t.Fatalf("StateIndex at deploy = %d, want 0", got)
	}
	if err := rt.ApplyEvents(topology.Event{
		At: rt.Eng.Now(), Kind: topology.EvLinkLeave, Orig: "a", Dest: "b",
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().StateIndex; got != 1 {
		t.Fatalf("StateIndex after one event = %d, want 1", got)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/state", nil))
	var decoded map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&decoded); err != nil {
		t.Fatalf("bad /state JSON: %v", err)
	}
	if decoded["topology_state"] != float64(1) {
		t.Fatalf("/state topology_state = %v, want 1", decoded["topology_state"])
	}
}

func TestDissemEndpoint(t *testing.T) {
	rt := testRuntime(t)
	drive(t, rt)
	s := New(rt)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/dissem", nil))
	var infos []DissemInfo
	if err := json.NewDecoder(rec.Body).Decode(&infos); err != nil {
		t.Fatalf("bad /dissem JSON: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("managers = %d, want 2", len(infos))
	}
	for _, in := range infos {
		if in.Strategy != "broadcast" {
			t.Fatalf("strategy = %q", in.Strategy)
		}
		if in.BytesSent == 0 {
			t.Fatalf("host %d reports no control-plane bytes", in.Host)
		}
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	rt := testRuntimeOpts(t, core.Options{
		Tracer:   obs.NewTracer(1 << 12),
		Registry: obs.NewRegistry(),
	})
	drive(t, rt)
	s := New(rt)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE kollaps_solver_runs_total counter",
		"# TYPE kollaps_solver_entitlement_reused_total counter",
		"# TYPE kollaps_solver_demand_derived_total counter",
		`kollaps_dissem_bytes_sent{host="0",strategy="broadcast"}`,
		"kollaps_virtual_time_seconds 2",
		"kollaps_topology_trees_built_total ",
		"kollaps_topology_trees_carried_total 0",
		"kollaps_topology_paths_materialized_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatalf("bad /trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace has no events")
	}
}

// TestObsSnapshotsServeWhileRunning is the live-dashboard race
// regression test: with the runtime's owned snapshot path enabled,
// /metrics, /dissem and /trace must be servable from other goroutines
// *while* the simulation runs. Before the snapshot path existed this
// raced — gauge closures and staleness percentiles read manager state
// the emulation loop was mutating — and `go test -race` on this test
// caught it.
func TestObsSnapshotsServeWhileRunning(t *testing.T) {
	rt := testRuntimeOpts(t, core.Options{
		Tracer:   obs.NewTracer(1 << 12),
		Registry: obs.NewRegistry(),
	})
	rt.EnableObsSnapshots()
	s := New(rt)
	h := s.Handler()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/dissem", "/trace"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("%s while running = %d, want 200", path, rec.Code)
					return
				}
			}
		}
	}()

	drive(t, rt)
	close(stop)
	<-done

	// The published snapshot reflects the run: control-plane counters
	// moved and the Prometheus rendering carries the dissem families.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/dissem", nil))
	var infos []DissemInfo
	if err := json.NewDecoder(rec.Body).Decode(&infos); err != nil {
		t.Fatalf("bad /dissem JSON: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("managers = %d, want 2", len(infos))
	}
	for _, in := range infos {
		if in.BytesSent == 0 {
			t.Fatalf("host %d snapshot reports no control-plane bytes", in.Host)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "kollaps_dissem_bytes_sent") {
		t.Fatalf("/metrics snapshot missing dissem counters:\n%s", body)
	}
}

func TestMetricsAndTrace404WhenUnconfigured(t *testing.T) {
	rt := testRuntime(t)
	s := New(rt)
	for _, path := range []string{"/metrics", "/trace"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Fatalf("%s without observability = %d, want 404", path, rec.Code)
		}
	}
}
