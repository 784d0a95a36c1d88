package kollaps

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The public observability surface end to end: a churn-heavy deployment
// with the flight recorder and accuracy probe enabled exports a valid
// Chrome trace carrying the manager kill/restart instants, the always-on
// metrics registry serves labeled dissemination counters, and the probe
// fills its virtual-time series.
func TestTraceWithManagerChurn(t *testing.T) {
	exp, _ := deployFailover(t, 4,
		WithSeed(7),
		WithDissem("gossip"),
		WithTrace(),
		WithAccuracyProbe(2),
	)
	stop, err := exp.ManagerChurn(4, ChurnDowntime(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := exp.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" || ev.Ph == "X" || ev.Ph == "C" {
			seen[ev.Name] = true
		}
	}
	for _, want := range []string{"solve", "manager-kill", "manager-restart", "share-deviation"} {
		if !seen[want] {
			t.Fatalf("trace missing %q events; have %v", want, seen)
		}
	}

	// The registry is always on, with per-host strategy-labeled counters.
	snap := exp.Metrics().Snapshot()
	if snap[`kollaps_dissem_bytes_sent{host="0",strategy="gossip"}`] == 0 {
		t.Fatalf("no labeled dissemination counters in registry: %v", snap)
	}

	probe := exp.AccuracyProbe()
	if probe == nil || probe.Samples == 0 {
		t.Fatalf("accuracy probe recorded nothing: %+v", probe)
	}
}

// WriteTrace without WithTrace is a descriptive error, and the tracer /
// probe accessors are nil-safe before Deploy.
func TestObservabilityUnconfigured(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Metrics() != nil || exp.Tracer() != nil || exp.AccuracyProbe() != nil {
		t.Fatal("observability accessors must be nil before Deploy")
	}
	if err := exp.Deploy(1); err != nil {
		t.Fatal(err)
	}
	if exp.Metrics() == nil {
		t.Fatal("every deployment carries a metrics registry")
	}
	if exp.Tracer() != nil {
		t.Fatal("tracer must be nil without WithTrace")
	}
	err = exp.WriteTrace(filepath.Join(t.TempDir(), "trace.json"))
	if err == nil || !strings.Contains(err.Error(), "WithTrace") {
		t.Fatalf("WriteTrace without tracer = %v, want WithTrace hint", err)
	}
}
