package kollaps

import (
	"fmt"
	"math"
	"time"

	"repro/internal/topology"
)

// Event is one topology change, not yet bound to a time. Build events
// with the constructors (Set, LinkDown, LinkUp, NodeDown, NodeUp) and
// bind them with Experiment.At or TopologyBuilder.At; the immediate
// mutators (SetLink, Leave, ...) bind them to the current virtual
// time. The five event kinds back the YAML dynamic: section, so any
// scripted scenario has a deterministic YAML-expressible core — what
// the API adds is Go control flow, parameterization and seeded
// randomness around them. Control-plane faults are scripted separately,
// as a chaos.Plan (see ChaosPlan).
type Event struct {
	ev topology.Event
}

// Set changes properties of the link(s) between two declared endpoints;
// omitted properties keep their values. Up applies to the orig->dest
// direction and Down to the reverse; giving only Up sets both, like the
// YAML dialect's set-link events.
func Set(orig, dest string, opts ...LinkOption) Event {
	var spec linkSpec
	for _, o := range opts {
		o(&spec)
	}
	return Event{ev: topology.Event{Kind: topology.EvSetLink, Orig: orig, Dest: dest, Props: spec.patch}}
}

// LinkDown removes the link(s) between two declared endpoints.
func LinkDown(orig, dest string) Event {
	return Event{ev: topology.Event{Kind: topology.EvLinkLeave, Orig: orig, Dest: dest}}
}

// LinkUp restores previously removed link(s) between two endpoints (with
// their old properties, then patched by opts), or creates a fresh link
// when none was removed.
func LinkUp(orig, dest string, opts ...LinkOption) Event {
	var spec linkSpec
	for _, o := range opts {
		o(&spec)
	}
	return Event{ev: topology.Event{Kind: topology.EvLinkJoin, Orig: orig, Dest: dest, Props: spec.patch}}
}

// NodeDown removes a service or bridge from the network: every link
// touching it goes down. A replicated service name takes down all its
// replicas.
func NodeDown(name string) Event {
	return Event{ev: topology.Event{Kind: topology.EvNodeLeave, Name: name}}
}

// NodeUp restores a previously removed node's links.
func NodeUp(name string) Event {
	return Event{ev: topology.Event{Kind: topology.EvNodeJoin, Name: name}}
}

// At schedules events at an absolute virtual time. Events registered
// before Deploy are pre-registered on the topology (exactly like a YAML
// dynamic: section — they are validated at Deploy and the two forms
// produce identical deterministic runs); after Deploy they are armed on
// the live runtime. Scheduling in the virtual past is an error. Events
// passed in one call apply atomically as one topology change.
func (e *Experiment) At(at time.Duration, evs ...Event) error {
	if at < 0 {
		return fmt.Errorf("kollaps: At(%v) is before the experiment start", at)
	}
	raw := unwrap(at, evs)
	if e.Runtime == nil {
		e.Topology.Events = append(e.Topology.Events, raw...)
		return nil
	}
	return e.Runtime.ScheduleEvents(raw...)
}

// apply performs events immediately at the current virtual time.
func (e *Experiment) apply(evs ...Event) error {
	if e.Runtime == nil {
		return fmt.Errorf("kollaps: runtime mutation before Deploy (use At to pre-register events)")
	}
	return e.Runtime.ApplyEvents(unwrap(e.Eng.Now(), evs)...)
}

func unwrap(at time.Duration, evs []Event) []topology.Event {
	raw := make([]topology.Event, len(evs))
	for i, ev := range evs {
		raw[i] = ev.ev
		raw[i].At = at
	}
	return raw
}

// SetLink immediately changes properties of the link(s) between two
// endpoints — the runtime-mutation form of Set. Call it from engine
// callbacks (timers, application hooks) to drive the topology from
// observations of the running emulation.
func (e *Experiment) SetLink(orig, dest string, opts ...LinkOption) error {
	return e.apply(Set(orig, dest, opts...))
}

// Leave immediately removes a node (service, replica set or bridge) from
// the network.
func (e *Experiment) Leave(name string) error {
	return e.apply(NodeDown(name))
}

// Join immediately restores a node removed by Leave.
func (e *Experiment) Join(name string) error {
	return e.apply(NodeUp(name))
}

// KillManager kills the Emulation Manager of a physical host: its
// emulation loop stops, its metadata is muted and its control datagrams
// are dropped both ways, while the host's containers keep running under
// the last enforced allocations. Surviving managers detect the silence
// (dissem.Config.SuspectAfter periods) and route around it.
func (e *Experiment) KillManager(host int) error {
	if e.Runtime == nil {
		return fmt.Errorf("kollaps: KillManager before Deploy")
	}
	return e.Runtime.KillManager(host)
}

// RestartManager revives a killed Emulation Manager as a fresh process:
// all of its control-plane state (peer views, ack baselines, overlay
// suspicions) is rebuilt from scratch through the dissemination
// strategy's re-admission path.
func (e *Experiment) RestartManager(host int) error {
	if e.Runtime == nil {
		return fmt.Errorf("kollaps: RestartManager before Deploy")
	}
	return e.Runtime.RestartManager(host)
}

// ChurnOption tunes Experiment.Churn and Experiment.ManagerChurn.
type ChurnOption func(*churnConfig)

type churnConfig struct {
	targets  []string
	hosts    []int
	downtime time.Duration
	until    time.Duration
}

// ChurnTargets restricts node churn to the named containers (default:
// every deployed container). It does not apply to ManagerChurn.
func ChurnTargets(names ...string) ChurnOption {
	return func(c *churnConfig) { c.targets = names }
}

// ChurnHosts restricts manager churn to the given physical host indices
// (default: every host). It does not apply to node Churn.
func ChurnHosts(hosts ...int) ChurnOption {
	return func(c *churnConfig) { c.hosts = hosts }
}

// ChurnDowntime sets the mean downtime of a churned node (default 2s;
// actual downtimes are exponentially distributed around it). A negative
// mean is an error from Churn and ManagerChurn.
func ChurnDowntime(mean time.Duration) ChurnOption {
	return func(c *churnConfig) { c.downtime = mean }
}

// churnOptions applies opts over the defaults and validates the result.
func churnOptions(opts []ChurnOption) (churnConfig, error) {
	cfg := churnConfig{downtime: 2 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.downtime < 0 {
		return cfg, fmt.Errorf("kollaps: ChurnDowntime(%v) is negative", cfg.downtime)
	}
	return cfg, nil
}

// ChurnUntil stops generating new churn events after the given virtual
// time (nodes already down still rejoin).
func ChurnUntil(t time.Duration) ChurnOption {
	return func(c *churnConfig) { c.until = t }
}

// Churn drives seeded random node churn: node-leave events arrive as a
// Poisson process at rate events per virtual second, each taking one
// random currently-up target down for an exponentially distributed
// downtime. All randomness comes from the deployment's seeded engine, so
// the exact churn schedule is a deterministic function of the seed — a
// property the YAML dialect cannot express (its event list is fixed, not
// sampled per seed). The rate must be positive and at most 1e9 per
// second: a faster one draws gaps under one virtual nanosecond, which
// truncate to zero, and the clock would never advance. The returned stop
// function halts further churn.
func (e *Experiment) Churn(rate float64, opts ...ChurnOption) (stop func(), err error) {
	if e.Runtime == nil {
		return nil, fmt.Errorf("kollaps: Churn before Deploy")
	}
	if err := checkChurnRate("churn", rate); err != nil {
		return nil, err
	}
	cfg, err := churnOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.hosts != nil {
		return nil, fmt.Errorf("kollaps: ChurnHosts tunes ManagerChurn; use ChurnTargets for node churn")
	}
	if cfg.targets == nil {
		for _, c := range e.Runtime.Containers() {
			cfg.targets = append(cfg.targets, c.Name)
		}
	} else {
		for _, n := range cfg.targets {
			if _, ok := e.Runtime.Container(n); !ok {
				return nil, fmt.Errorf("kollaps: churn target %q is not a deployed container", n)
			}
		}
	}
	down := make(map[string]bool)
	return e.churn(rate, cfg, len(cfg.targets),
		func(i int) bool { return !down[cfg.targets[i]] },
		func(i int) func() {
			name := cfg.targets[i]
			if e.Leave(name) != nil {
				return nil
			}
			down[name] = true
			return func() {
				if e.Join(name) == nil {
					delete(down, name)
				}
			}
		}), nil
}

// ManagerChurn drives seeded random *control-plane* churn, mirroring
// Churn at the infrastructure layer: Emulation Manager kills arrive as a
// Poisson process at rate events per virtual second, each taking one
// random currently-live manager down for an exponentially distributed
// downtime (ChurnDowntime, default 2s) and restarting it afterwards with
// fresh control-plane state. The emulated topology never changes — the
// containers keep their traffic — so what churns is the metadata layer
// the dissemination strategies must survive. All randomness comes from
// the deployment's seeded engine; the schedule is deterministic per
// seed. The rate must be positive and at most 1e9 per second, as for
// Churn. The returned stop function halts further kills (managers
// already down still restart).
func (e *Experiment) ManagerChurn(rate float64, opts ...ChurnOption) (stop func(), err error) {
	if e.Runtime == nil {
		return nil, fmt.Errorf("kollaps: ManagerChurn before Deploy")
	}
	if err := checkChurnRate("manager churn", rate); err != nil {
		return nil, err
	}
	cfg, err := churnOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.targets != nil {
		return nil, fmt.Errorf("kollaps: ChurnTargets tunes node Churn; use ChurnHosts for manager churn")
	}
	nHosts := len(e.Runtime.Managers())
	if cfg.hosts == nil {
		for h := 0; h < nHosts; h++ {
			cfg.hosts = append(cfg.hosts, h)
		}
	} else {
		for _, h := range cfg.hosts {
			if h < 0 || h >= nHosts {
				return nil, fmt.Errorf("kollaps: manager churn host %d out of range [0,%d)", h, nHosts)
			}
		}
	}
	return e.churn(rate, cfg, len(cfg.hosts),
		func(i int) bool { return !e.Runtime.ManagerDown(cfg.hosts[i]) },
		func(i int) func() {
			host := cfg.hosts[i]
			if e.KillManager(host) != nil {
				return nil
			}
			// Restart only this kill: if another actor restarted and
			// re-killed the host in the meantime, reviving it here
			// would silently undo that deliberate kill.
			gen := e.Runtime.ManagerKills(host)
			return func() {
				if e.Runtime.ManagerKills(host) == gen {
					_ = e.RestartManager(host)
				}
			}
		}), nil
}

// maxChurnRate is the fastest churn the drivers accept, in events per
// virtual second: a mean gap of one nanosecond, the clock's resolution.
const maxChurnRate = 1e9

// checkChurnRate rejects a rate the churn loop cannot run: not positive,
// not finite (NaN and +Inf gaps used to re-arm at the same instant
// forever), or above maxChurnRate, where gaps truncate to zero.
func checkChurnRate(what string, rate float64) error {
	switch {
	case !(rate > 0) || math.IsInf(rate, 1):
		return fmt.Errorf("kollaps: %s rate must be positive and finite, got %g", what, rate)
	case rate > maxChurnRate:
		return fmt.Errorf("kollaps: %s rate %g is above %g per second: gaps under one virtual nanosecond would stop the clock", what, rate, float64(maxChurnRate))
	}
	return nil
}

// churn is the seeded Poisson loop both churn drivers run over n
// targets. Each tick draws from the engine's RNG, in this order: the gap
// to the next tick (drawn when the tick is armed), the victim (Intn over
// the targets up reports live), and — only when fail applied the fault
// and returned its recovery — the downtime before that recovery runs.
// Recoveries fire even after stop: churn must not leave a target
// permanently down. A draw too long for the clock (a tiny rate, a huge
// downtime) saturates at the latest instant the clock can reach:
// converted as is, it would wrap negative and fire at once.
func (e *Experiment) churn(rate float64, cfg churnConfig, n int, up func(i int) bool, fail func(i int) (heal func())) (stop func()) {
	eng := e.Eng
	stopped := false
	meanGap := float64(time.Second) / rate
	var tick func()
	arm := func() {
		eng.After(untilLatest(eng.Now(), eng.Rand().ExpFloat64()*meanGap), tick)
	}
	tick = func() {
		if stopped || (cfg.until > 0 && eng.Now() >= cfg.until) {
			return
		}
		var live []int
		for i := 0; i < n; i++ {
			if up(i) {
				live = append(live, i)
			}
		}
		if len(live) > 0 {
			if heal := fail(live[eng.Rand().Intn(len(live))]); heal != nil {
				eng.After(untilLatest(eng.Now(), eng.Rand().ExpFloat64()*float64(cfg.downtime)), heal)
			}
		}
		arm()
	}
	arm()
	return func() { stopped = true }
}

// untilLatest converts a delay of d nanoseconds drawn at now to a
// Duration, saturating at the latest instant the clock can reach. A delay
// in range converts exactly as time.Duration(d) does.
func untilLatest(now time.Duration, d float64) time.Duration {
	latest := time.Duration(math.MaxInt64) - now
	if !(d < float64(latest)) {
		return latest
	}
	return min(time.Duration(d), latest) // float64(latest) may round up
}
