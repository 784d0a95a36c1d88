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
	seed        int64
	period      time.Duration
	placement   map[string]int
	injectLoss  bool
	strategy    string
	dissem      dissemConfig
	traceEvents int // 0 = tracing disabled, <0 = default capacity
	probeEvery  int // 0 = probe disabled
}

type dissemConfig struct {
	epsilon      float64
	resync       int
	fanout       int
	gossipRounds int
	suspectAfter int
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

// WithInjectLoss enables the §3 congestion-loss workaround (see
// core.Options.InjectLoss).
func WithInjectLoss() Option {
	return optionFunc(func(c *config) { c.injectLoss = true })
}

// WithDissem selects how Emulation Managers exchange metadata:
// "broadcast" (the paper's full mesh, default), "delta" (incremental
// reports with epsilon gating and acked baselines), "tree" (fanout-k
// hierarchical aggregation over the compressed wire codec), or "gossip"
// (epidemic push with version-vector anti-entropy — the churn-friendly
// choice), optionally tuned by DissemOptions:
//
//	kollaps.WithDissem("delta", kollaps.DissemEpsilon(0.02), kollaps.DissemResync(10))
//	kollaps.WithDissem("gossip", kollaps.DissemFanout(3), kollaps.DissemGossipRounds(4))
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

// DissemResync sets the number of periods between delta full-state
// resyncs (default 20).
func DissemResync(periods int) DissemOption {
	return func(c *dissemConfig) { c.resync = periods }
}

// DissemFanout sets the tree strategy's arity and the number of peers
// the gossip strategy pushes to per period (default 4).
func DissemFanout(fanout int) DissemOption {
	return func(c *dissemConfig) { c.fanout = fanout }
}

// DissemGossipRounds sets the gossip strategy's infect-and-die hop
// budget: how many hops a freshly learned record is forwarded before the
// rumor dies (default ⌈log_fanout(hosts)⌉+1, which covers the deployment
// with one spare hop; anti-entropy pulls repair the rest).
func DissemGossipRounds(rounds int) DissemOption {
	return func(c *dissemConfig) { c.gossipRounds = rounds }
}

// WithTrace enables the deployment's flight recorder: a ring buffer
// holding the most recent events virtual-time trace events (solver
// passes, dissemination publish/receive, TCAL enforcement, topology
// mutations, manager kills, failure-detector transitions). events <= 0
// selects the default capacity (obs.DefaultTraceEvents). Read it back
// with Experiment.Tracer or export with Experiment.WriteTrace.
func WithTrace(events int) Option {
	return optionFunc(func(c *config) {
		if events <= 0 {
			events = -1
		}
		c.traceEvents = events
	})
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

// DissemSuspectAfter sets the failure-detection threshold, in emulation
// periods, after which a silent peer Emulation Manager is suspected dead
// and routed around (default 3; see dissem.Config.SuspectAfter). Lower
// values recover faster from manager kills; higher values tolerate
// longer control-plane hiccups without re-forming.
func DissemSuspectAfter(periods int) DissemOption {
	return func(c *dissemConfig) { c.suspectAfter = periods }
}

// dissemFromConfig assembles the core-level dissemination config. The
// deployment seed rides along so gossip's peer sampling replays with the
// experiment.
func (c config) dissemConfig(kind dissem.Kind) dissem.Config {
	return dissem.Config{
		Kind:         kind,
		Epsilon:      c.dissem.epsilon,
		ResyncEvery:  c.dissem.resync,
		Fanout:       c.dissem.fanout,
		GossipRounds: c.dissem.gossipRounds,
		SuspectAfter: c.dissem.suspectAfter,
		Seed:         c.seed,
	}
}
