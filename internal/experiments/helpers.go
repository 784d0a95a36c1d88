package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/topology"
	"repro/kollaps"
)

// mustKollaps deploys a built-in topology on Kollaps for an experiment
// that reads the control plane: it installs plan (when non-nil) before
// the deployment so its faults are a pure function of the seed, and
// deploys on hosts managers. Experiment code treats a malformed built-in
// topology as a programming error.
func mustKollaps(top *topology.Topology, hosts int, plan *chaos.Plan, opts ...kollaps.Option) *kollaps.Experiment {
	exp := kollaps.Experiment{Topology: top}
	if plan != nil {
		if err := exp.ChaosPlan(plan); err != nil {
			panic(fmt.Sprintf("experiments: chaos plan: %v", err))
		}
	}
	if err := exp.Deploy(hosts, opts...); err != nil {
		panic(fmt.Sprintf("experiments: deploy failed: %v", err))
	}
	return &exp
}

// writeReport writes v as the indented, newline-terminated JSON every
// committed BENCH_*.json uses; an empty path writes nothing.
func writeReport(path string, v any) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
