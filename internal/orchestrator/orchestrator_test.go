package orchestrator

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func sampleTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.ParseYAML(`
experiment:
  services:
    name: client
    image: "iperf"
    name: server
    image: "nginx"
    replicas: 3
  bridges:
    name: s1
  links:
    orig: client
    dest: s1
    latency: 10
    up: 10Mbps
    orig: server
    dest: s1
    latency: 5
    up: 50Mbps
`)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPlaceRoundRobin(t *testing.T) {
	plan, err := Place(sampleTopology(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 containers (client + 3 server replicas) over 2 hosts: 2 each.
	if len(plan.Assignment) != 4 {
		t.Fatalf("assignments = %d", len(plan.Assignment))
	}
	count := map[int]int{}
	for _, h := range plan.Assignment {
		count[h]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Fatalf("round robin uneven: %v", count)
	}
}

func TestPlaceEmptyCluster(t *testing.T) {
	if _, err := Place(sampleTopology(t), 0); err == nil {
		t.Fatal("expected empty-cluster error")
	}
}

func TestPlaceInvalidTopology(t *testing.T) {
	if _, err := Place(&topology.Topology{}, 1); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestGenerateArtifacts(t *testing.T) {
	plan, err := Generate(sampleTopology(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	compose := plan.Artifacts["docker-compose.yml"]
	if compose == "" {
		t.Fatal("no compose artifact")
	}
	for _, want := range []string{
		"bootstrapper:", "kollaps/bootstrapper", "docker.sock",
		"client:", "image: iperf", "server:", "replicas: 3",
		"kollaps.emulated=true", "overlay",
	} {
		if !strings.Contains(compose, want) {
			t.Errorf("compose missing %q", want)
		}
	}
	k8s := plan.Artifacts["kollaps-k8s.yaml"]
	if k8s == "" {
		t.Fatal("no k8s artifact")
	}
	for _, want := range []string{
		"kind: DaemonSet", "kollaps-emulation-manager", "NET_ADMIN",
		"kind: Deployment", "name: server", "replicas: 3", "hostPID: true",
	} {
		if !strings.Contains(k8s, want) {
			t.Errorf("k8s manifest missing %q", want)
		}
	}
	// The K8s flavor must not include a bootstrapper (not needed, §4).
	if strings.Contains(k8s, "bootstrapper") {
		t.Error("k8s manifest should not contain a bootstrapper")
	}
}
