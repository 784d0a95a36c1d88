// Package orchestrator models the container-orchestration layer Kollaps
// integrates with (§4): the Deployment Generator that turns a topology
// description into Docker Swarm Compose or Kubernetes Manifest artifacts,
// and the placement of containers onto physical hosts. The privileged
// bootstrapper that starts an Emulation Manager per machine appears only
// as a service of the generated Swarm artifact.
package orchestrator

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// Plan is a computed deployment: container-to-host assignments plus the
// generated orchestrator artifacts.
type Plan struct {
	// Assignment maps container name to host index.
	Assignment map[string]int
	// Artifacts maps file name to generated content (docker-compose.yml
	// or Kubernetes manifests).
	Artifacts map[string]string
}

// Place spreads the topology's containers round-robin over hosts
// machines, in declaration order: the paper's evaluation distributes
// containers evenly among physical nodes, and core.NewRuntime places
// them the same way.
func Place(top *topology.Topology, hosts int) (*Plan, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("orchestrator: need at least one host, got %d", hosts)
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Assignment: make(map[string]int), Artifacts: make(map[string]string)}
	for _, svc := range top.Services {
		for _, name := range svc.ContainerNames() {
			plan.Assignment[name] = len(plan.Assignment) % hosts
		}
	}
	return plan, nil
}

// GenerateSwarm emits a Docker Compose (Swarm stack) artifact for the
// topology, including the Kollaps bootstrapper service the paper deploys
// on every Swarm node (§4 "Privileged bootstrapping") and the emulation
// tag that distinguishes emulated containers.
func GenerateSwarm(top *topology.Topology, plan *Plan) string {
	var b strings.Builder
	b.WriteString("version: \"3.3\"\nservices:\n")
	b.WriteString("  bootstrapper:\n")
	b.WriteString("    image: kollaps/bootstrapper:1.0\n")
	b.WriteString("    deploy:\n      mode: global\n")
	b.WriteString("    volumes:\n      - /var/run/docker.sock:/var/run/docker.sock\n")
	b.WriteString("    environment:\n      - KOLLAPS_UID=experiment\n")
	for _, svc := range top.Services {
		replicas := svc.Replicas
		if replicas < 1 {
			replicas = 1
		}
		fmt.Fprintf(&b, "  %s:\n", svc.Name)
		img := svc.Image
		if img == "" {
			img = "scratch"
		}
		fmt.Fprintf(&b, "    image: %s\n", img)
		fmt.Fprintf(&b, "    labels:\n      - \"kollaps.emulated=true\"\n")
		fmt.Fprintf(&b, "    deploy:\n      replicas: %d\n", replicas)
		if svc.Command != "" {
			fmt.Fprintf(&b, "    command: %s\n", svc.Command)
		}
	}
	b.WriteString("networks:\n  kollaps_network:\n    driver: overlay\n")
	return b.String()
}

// GenerateKubernetes emits a Kubernetes manifest artifact: one Deployment
// per service plus the Emulation Manager DaemonSet (no bootstrapper needed
// under Kubernetes, §4).
func GenerateKubernetes(top *topology.Topology, plan *Plan) string {
	var b strings.Builder
	b.WriteString("apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: kollaps-emulation-manager\nspec:\n")
	b.WriteString("  selector:\n    matchLabels:\n      app: kollaps-em\n")
	b.WriteString("  template:\n    metadata:\n      labels:\n        app: kollaps-em\n")
	b.WriteString("    spec:\n      hostPID: true\n      containers:\n")
	b.WriteString("      - name: em\n        image: kollaps/emulationmanager:1.0\n")
	b.WriteString("        securityContext:\n          capabilities:\n            add: [\"NET_ADMIN\"]\n")
	for _, svc := range top.Services {
		replicas := svc.Replicas
		if replicas < 1 {
			replicas = 1
		}
		b.WriteString("---\n")
		fmt.Fprintf(&b, "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: %s\n", svc.Name)
		b.WriteString("  labels:\n    kollaps.emulated: \"true\"\n")
		fmt.Fprintf(&b, "spec:\n  replicas: %d\n", replicas)
		fmt.Fprintf(&b, "  selector:\n    matchLabels:\n      app: %s\n", svc.Name)
		fmt.Fprintf(&b, "  template:\n    metadata:\n      labels:\n        app: %s\n", svc.Name)
		img := svc.Image
		if img == "" {
			img = "scratch"
		}
		fmt.Fprintf(&b, "    spec:\n      containers:\n      - name: %s\n        image: %s\n", svc.Name, img)
	}
	return b.String()
}

// Generate runs placement and emits both artifact flavors.
func Generate(top *topology.Topology, hosts int) (*Plan, error) {
	plan, err := Place(top, hosts)
	if err != nil {
		return nil, err
	}
	plan.Artifacts["docker-compose.yml"] = GenerateSwarm(top, plan)
	plan.Artifacts["kollaps-k8s.yaml"] = GenerateKubernetes(top, plan)
	return plan, nil
}
