// Package kollaps is the public API of the Kollaps reproduction: describe
// an experiment (the paper's YAML dialect, ModelNet-like XML, or the
// programmatic TopologyBuilder), deploy it over a simulated physical
// cluster, run unmodified application workloads against the emulated
// network, and mutate the topology while the experiment runs.
//
// A minimal experiment:
//
//	exp, err := kollaps.Load(topologyYAML)
//	exp.Deploy(4, kollaps.WithSeed(7))        // 4 physical hosts
//	cli, _ := exp.Container("client")
//	srv, _ := exp.Container("server")
//	// ... dial cli.Stack -> srv.IP, attach workloads ...
//	exp.Run(60 * time.Second)
//
// The same topology can be built without YAML and scripted live — events
// can be scheduled (At), applied immediately from engine callbacks
// (SetLink, Leave, Join), or sampled per seed (Churn):
//
//	exp, _ := kollaps.NewTopology().
//		Service("client").Service("server").Bridge("s1").
//		Link("client", "s1", kollaps.Latency(5*time.Millisecond), kollaps.Up(10*units.Mbps)).
//		Link("server", "s1", kollaps.Latency(5*time.Millisecond), kollaps.Up(10*units.Mbps)).
//		Experiment()
//	exp.Deploy(2)
//	exp.At(10*time.Second, kollaps.LinkDown("client", "s1"))
//	exp.At(20*time.Second, kollaps.LinkUp("client", "s1"))
//	stop, _ := exp.Churn(0.5, kollaps.ChurnTargets("server"))
//	exp.Run(60 * time.Second)
//
// Faults on the control plane's metadata datagrams are scripted one way,
// as a chaos.Plan handed to ChaosPlan:
//
//	exp.ChaosPlan(new(chaos.Plan).
//		At(5*time.Second, chaos.PartitionOneWay(0, 1)).
//		At(15*time.Second, chaos.Heal()))
//
// The paper's evaluation runs the same workloads against bare metal and
// the baseline emulators (internal/baselines); internal/experiments
// builds those systems.
package kollaps

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Experiment is a loaded and optionally deployed Kollaps experiment.
type Experiment struct {
	// Topology is the parsed experiment description.
	Topology *topology.Topology
	// Eng is the simulation engine (valid after Deploy).
	Eng *sim.Engine
	// Runtime is the Kollaps deployment (valid after Deploy).
	Runtime *core.Runtime

	seed int64
	// pendingChaos holds chaos steps scheduled before Deploy (via
	// ChaosPlan); Deploy arms them on the runtime's fault injector.
	pendingChaos []chaos.Step
}

// Load parses an experiment description, auto-detecting the YAML dialect
// or ModelNet-like XML, and validates it.
func Load(src string) (*Experiment, error) {
	var top *topology.Topology
	var err error
	if strings.Contains(src, "<topology") {
		top, err = topology.ParseXML(src)
	} else {
		top, err = topology.ParseYAML(src)
	}
	if err != nil {
		return nil, err
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return &Experiment{Topology: top}, nil
}

// Deploy instantiates the runtime over hosts physical machines. The
// topology's dynamic events (from the description or pre-registered with
// At) are validated and armed; more can be scheduled or applied while the
// experiment runs.
func (e *Experiment) Deploy(hosts int, opts ...Option) error {
	if e.Runtime != nil {
		return fmt.Errorf("kollaps: experiment already deployed")
	}
	if hosts < 1 {
		return fmt.Errorf("kollaps: Deploy needs at least one physical host, got %d", hosts)
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.period < 0 {
		return fmt.Errorf("kollaps: Deploy needs a non-negative emulation period, got WithPeriod(%v)", cfg.period)
	}
	kind, err := dissem.ParseKind(cfg.strategy)
	if err != nil {
		return err
	}
	e.seed = cfg.seed
	e.Eng = sim.NewEngine(cfg.seed)
	// The runtime always carries a metrics registry; tracer and probe
	// are opt-in.
	var tracer *obs.Tracer
	if cfg.trace {
		tracer = obs.NewTracer(obs.DefaultTraceEvents)
	}
	var probe *obs.Probe
	if cfg.probeEvery > 0 {
		probe = obs.NewProbe(cfg.probeEvery)
	}
	rt, err := core.NewRuntimeFromTopology(e.Eng, e.Topology, hosts, cfg.placement, core.Options{
		Period: cfg.period,
		Dissem: cfg.dissemConfig(kind),
		Tracer: tracer,
		Probe:  probe,
	})
	if err != nil {
		e.Eng = nil
		return err
	}
	e.Runtime = rt
	rt.Start()
	for _, s := range e.pendingChaos {
		e.armChaos(s)
	}
	e.pendingChaos = nil
	return nil
}

// Seed returns the seed the deployment runs under (valid after Deploy).
func (e *Experiment) Seed() int64 { return e.seed }

// Container looks up a deployed container by name ("sv" services with
// replicas expand to "sv-0", "sv-1", ...).
func (e *Experiment) Container(name string) (*core.Container, error) {
	if e.Runtime == nil {
		return nil, fmt.Errorf("kollaps: experiment not deployed")
	}
	c, ok := e.Runtime.Container(name)
	if !ok {
		return nil, fmt.Errorf("kollaps: unknown container %q", name)
	}
	return c, nil
}

// AppStack implements the application StackProvider interface over the
// deployment.
func (e *Experiment) AppStack(name string) (*transport.Stack, packet.IP, error) {
	c, err := e.Container(name)
	if err != nil {
		return nil, packet.IP{}, err
	}
	return c.Stack, c.IP, nil
}

// Run advances the experiment to the given absolute virtual time. It
// errors when called before Deploy or with a time before the current one
// (running to the current time is a no-op), and surfaces the first error
// any scheduled topology event produced while running.
func (e *Experiment) Run(until time.Duration) error {
	if e.Runtime == nil {
		return fmt.Errorf("kollaps: Run before Deploy")
	}
	if now := e.Eng.Now(); until < now {
		return fmt.Errorf("kollaps: Run(%v) is before the current virtual time %v", until, now)
	}
	e.Eng.Run(until)
	return e.Runtime.EventError()
}

// MetadataTraffic reports total metadata bytes (sent, received) across
// Emulation Managers.
func (e *Experiment) MetadataTraffic() (int64, int64) {
	if e.Runtime == nil {
		return 0, 0
	}
	return e.Runtime.MetadataTraffic()
}

// DissemSummary folds every Manager's control-plane counters (datagrams,
// bytes, staleness) into one deployment-wide summary.
func (e *Experiment) DissemSummary() dissem.Summary {
	if e.Runtime == nil {
		return dissem.Summary{}
	}
	return dissem.Summarize(e.Runtime.DissemStats())
}

// Metrics returns the deployment's metrics registry (valid after Deploy;
// every deployment has one). Snapshot it for programmatic reads or
// export it with WritePrometheus; read it from the goroutine that drives
// Run, since gauges read live deployment state.
func (e *Experiment) Metrics() *obs.Registry {
	if e.Runtime == nil {
		return nil
	}
	return e.Runtime.Metrics()
}

// Tracer returns the deployment's flight recorder, or nil unless the
// experiment deployed with WithTrace.
func (e *Experiment) Tracer() *obs.Tracer {
	if e.Runtime == nil {
		return nil
	}
	return e.Runtime.Tracer()
}

// AccuracyProbe returns the emulation-accuracy probe, or nil unless the
// experiment deployed with WithAccuracyProbe.
func (e *Experiment) AccuracyProbe() *obs.Probe {
	if e.Runtime == nil {
		return nil
	}
	return e.Runtime.AccuracyProbe()
}

// WriteTrace exports the flight recorder as a Chrome trace_event JSON
// file, loadable in chrome://tracing or Perfetto. It errors when the
// experiment was deployed without WithTrace.
func (e *Experiment) WriteTrace(path string) error {
	tr := e.Tracer()
	if tr == nil {
		return fmt.Errorf("kollaps: no flight recorder; deploy with kollaps.WithTrace")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
