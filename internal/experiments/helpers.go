package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/kollaps"
)

// mustKollaps loads a topology, installs plan (when non-nil) before the
// deployment so its faults are a pure function of the seed, and deploys
// it on hosts managers; experiment code treats malformed built-in
// topologies as programming errors.
func mustKollaps(yaml string, hosts int, plan *chaos.Plan, opts ...kollaps.Option) *kollaps.Experiment {
	exp, err := kollaps.Load(yaml)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in topology: %v", err))
	}
	if plan != nil {
		if err := exp.ChaosPlan(plan); err != nil {
			panic(fmt.Sprintf("experiments: chaos plan: %v", err))
		}
	}
	if err := exp.Deploy(hosts, opts...); err != nil {
		panic(fmt.Sprintf("experiments: deploy failed: %v", err))
	}
	return exp
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
