package kollaps

import (
	"time"

	"repro/internal/dissem"
)

// Option configures a deployment. Options are applied in order, so later
// options override earlier ones:
//
//	exp.Deploy(4)                                  // all defaults
//	exp.Deploy(4, kollaps.WithSeed(0))             // explicit seed 0
type Option interface{ apply(*config) }

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// config is the resolved deployment configuration.
type config struct {
	seed       int64
	period     time.Duration
	placement  map[string]int
	strategy   string
	dissem     dissemConfig
	trace      bool
	probeEvery int // 0 = probe disabled
}

type dissemConfig struct {
	epsilon float64
	fanout  int
}

func defaultConfig() config {
	return config{seed: 42}
}

// WithSeed sets the seed of the deterministic simulation (default 42).
// An explicit 0 is honored as a seed, not treated as "use the default".
func WithSeed(seed int64) Option {
	return optionFunc(func(c *config) { c.seed = seed })
}

// WithPeriod sets the Emulation Manager loop interval. Zero selects the
// default (50ms); Deploy rejects a negative period.
func WithPeriod(period time.Duration) Option {
	return optionFunc(func(c *config) { c.period = period })
}

// WithPlacement pins container names to host indices (default
// round-robin).
func WithPlacement(placement map[string]int) Option {
	return optionFunc(func(c *config) { c.placement = placement })
}

// WithDissem selects how Emulation Managers exchange metadata:
// "broadcast" (the paper's full mesh, default), "delta" (incremental
// reports with epsilon gating and acked baselines), "tree" (fanout-k
// hierarchical aggregation over the compressed wire codec), or "gossip"
// (epidemic push with version-vector anti-entropy — the churn-friendly
// choice), optionally tuned by DissemOptions:
//
//	kollaps.WithDissem("delta", kollaps.DissemEpsilon(0.02))
//	kollaps.WithDissem("gossip", kollaps.DissemFanout(3))
//
// The remaining dissemination settings are dissem's defaults: a delta
// full-state resync every 20 periods, a gossip hop budget of
// ⌈log_fanout(hosts)⌉+1, and suspicion of a peer silent for
// dissem.DefaultSuspectAfter periods.
func WithDissem(strategy string, opts ...DissemOption) Option {
	return optionFunc(func(c *config) {
		c.strategy = strategy
		for _, o := range opts {
			o(&c.dissem)
		}
	})
}

// DissemOption tunes the dissemination strategy selected by WithDissem.
type DissemOption func(*dissemConfig)

// DissemEpsilon sets the delta strategy's relative-change suppression
// threshold (default 0.05; negative disables the gate; NaN and ±Inf make
// Deploy fail).
func DissemEpsilon(epsilon float64) DissemOption {
	return func(c *dissemConfig) { c.epsilon = epsilon }
}

// DissemFanout sets the tree strategy's arity and the number of peers
// the gossip strategy pushes to per period (default 4).
func DissemFanout(fanout int) DissemOption {
	return func(c *dissemConfig) { c.fanout = fanout }
}

// WithTrace enables the deployment's flight recorder: a ring buffer
// holding the most recent obs.DefaultTraceEvents virtual-time trace
// events (solver passes, dissemination publish/receive, TCAL
// enforcement, topology mutations, manager kills, failure-detector
// transitions). Read it back with Experiment.Tracer or export with
// Experiment.WriteTrace.
func WithTrace() Option {
	return optionFunc(func(c *config) { c.trace = true })
}

// WithAccuracyProbe enables the emulation-accuracy probe: every
// everyPeriods emulation periods the runtime re-solves the live demand
// set with perfect information — the same solver the Emulation Managers
// run, over every flow at once — and records the enforced-vs-oracle
// share deviation as a virtual-time series (Experiment.AccuracyProbe).
// Values below 1 sample every period.
func WithAccuracyProbe(everyPeriods int) Option {
	return optionFunc(func(c *config) {
		if everyPeriods < 1 {
			everyPeriods = 1
		}
		c.probeEvery = everyPeriods
	})
}

// dissemConfig assembles the core-level dissemination config. The
// deployment seed rides along so gossip's peer sampling replays with the
// experiment.
func (c config) dissemConfig(kind dissem.Kind) dissem.Config {
	return dissem.Config{
		Kind:    kind,
		Epsilon: c.dissem.epsilon,
		Fanout:  c.dissem.fanout,
		Seed:    c.seed,
	}
}
