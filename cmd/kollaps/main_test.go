package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/kollaps"
)

// replicatedYAML has replicated services and one dynamic state per event
// time, so validate, collapse and plan all have something to count.
const replicatedYAML = `experiment:
  services:
    name: client
    image: "iperf"
    replicas: 2
    name: server
    image: "nginx"
    replicas: 3
    name: db
  bridges:
    name: s1
    name: s2
  links:
    orig: client
    dest: s1
    latency: 10
    up: 10Mbps
    orig: server
    dest: s2
    latency: 5
    up: 50Mbps
    orig: db
    dest: s2
    latency: 2
    up: 100Mbps
    orig: s1
    dest: s2
    latency: 1
    up: 100Mbps
dynamic:
  - orig: s1
    dest: s2
    latency: 20
    time: 5
  - name: db
    action: leave
    time: 8
`

// writeTopology writes replicatedYAML to a fresh file and returns its path.
func writeTopology(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.yaml")
	if err := os.WriteFile(path, []byte(replicatedYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRemovedFlagsRejected checks that the retired dissemination flags
// are a usage error naming the flag, not silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	topo := writeTopology(t)
	for _, flag := range []string{"-resync", "-gossip-rounds"} {
		var stdout, stderr bytes.Buffer
		args := []string{"run", flag, "5", "-for", "1s", topo}
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), flag) {
			t.Errorf("%v: stderr %q does not name %s", args, stderr.String(), flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %q", args, stdout.String())
		}
	}
}

// TestOutputUnchanged pins validate, collapse and plan byte for byte
// against testdata/*.golden.
func TestOutputUnchanged(t *testing.T) {
	topo := writeTopology(t)
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"validate", topo}, "validate.golden"},
		{[]string{"collapse", topo}, "collapse.golden"},
		{[]string{"plan", "-hosts", "3", topo}, "plan.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%v: output changed:\n%s\nwant:\n%s", tc.args, got, want)
		}
	}
}

// TestPlanMatchesDeploy checks that plan's container placement is the one
// Deploy makes on the same host count: round-robin is implemented by
// both the orchestrator and the runtime.
func TestPlanMatchesDeploy(t *testing.T) {
	const hosts = 3
	topo := writeTopology(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", "-hosts", fmt.Sprint(hosts), topo}, &stdout, &stderr); code != 0 {
		t.Fatalf("plan: exit %d: %s", code, stderr.String())
	}
	planned := map[string]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if entry, ok := strings.CutPrefix(line, "#   "); ok {
			name, host, _ := strings.Cut(entry, " -> ")
			planned[name] = host
		}
	}

	exp, err := kollaps.Load(replicatedYAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(hosts); err != nil {
		t.Fatal(err)
	}
	containers := exp.Runtime.Containers()
	if len(containers) != len(planned) {
		t.Fatalf("Deploy placed %d containers, plan %d: %v", len(containers), len(planned), planned)
	}
	for _, c := range containers {
		if got, want := fmt.Sprintf("host%d", c.Host), planned[c.Name]; got != want {
			t.Errorf("%s: Deploy put it on %s, plan on %q", c.Name, got, want)
		}
	}
}
