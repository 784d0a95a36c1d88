package kollaps

import (
	"time"

	"repro/internal/topology"
	"repro/internal/units"
)

// TopologyBuilder assembles an experiment description in Go, as an
// alternative to the YAML/XML dialects. Calls chain; Experiment()
// validates the result:
//
//	exp, err := kollaps.NewTopology().
//		Service("c1").
//		Service("kv", kollaps.Replicas(3)).
//		Bridge("s1").
//		Link("c1", "s1", kollaps.Latency(10*time.Millisecond), kollaps.Up(10*units.Mbps)).
//		Link("kv", "s1", kollaps.Latency(2*time.Millisecond), kollaps.Up(1*units.Gbps)).
//		At(30*time.Second, kollaps.LinkDown("c1", "s1")).
//		Experiment()
type TopologyBuilder struct {
	top topology.Topology
}

// NewTopology starts an empty programmatic topology.
func NewTopology() *TopologyBuilder { return &TopologyBuilder{} }

// ServiceOption refines a Service declaration.
type ServiceOption func(*topology.ServiceDef)

// Replicas declares n container replicas named name-0 .. name-(n-1).
func Replicas(n int) ServiceOption {
	return func(s *topology.ServiceDef) { s.Replicas = n }
}

// Image records the container image of a service (orchestrator
// artifacts only; the emulation itself is image-agnostic).
func Image(image string) ServiceOption {
	return func(s *topology.ServiceDef) { s.Image = image }
}

// Command records the container command of a service.
func Command(command string) ServiceOption {
	return func(s *topology.ServiceDef) { s.Command = command }
}

// Service declares an application service.
func (b *TopologyBuilder) Service(name string, opts ...ServiceOption) *TopologyBuilder {
	s := topology.ServiceDef{Name: name}
	for _, o := range opts {
		o(&s)
	}
	b.top.Services = append(b.top.Services, s)
	return b
}

// Bridge declares network elements (switches/routers).
func (b *TopologyBuilder) Bridge(names ...string) *TopologyBuilder {
	for _, n := range names {
		b.top.Bridges = append(b.top.Bridges, topology.BridgeDef{Name: n})
	}
	return b
}

// linkSpec is the target LinkOptions write to: a full link declaration
// for the builder and a sparse patch for set-link/link-up events.
type linkSpec struct {
	def   topology.LinkDef
	patch topology.LinkPatch
}

// LinkOption sets one property of a link declaration (TopologyBuilder.Link)
// or of a link patch (Set, LinkUp, Experiment.SetLink).
type LinkOption func(*linkSpec)

// Latency sets the one-way link latency.
func Latency(d time.Duration) LinkOption {
	return func(s *linkSpec) { s.def.Latency = d; s.patch.Latency = &d }
}

// Jitter sets the link's latency jitter.
func Jitter(d time.Duration) LinkOption {
	return func(s *linkSpec) { s.def.Jitter = d; s.patch.Jitter = &d }
}

// Up sets the upload (orig->dest) bandwidth.
func Up(bw units.Bandwidth) LinkOption {
	return func(s *linkSpec) { s.def.Up = bw; s.patch.Up = &bw }
}

// Down sets the download (dest->orig) bandwidth; it defaults to the
// upload bandwidth (§3: links are symmetric unless declared otherwise).
func Down(bw units.Bandwidth) LinkOption {
	return func(s *linkSpec) { s.def.Down = bw; s.patch.Down = &bw }
}

// Loss sets the link's packet-loss fraction.
func Loss(l units.Loss) LinkOption {
	return func(s *linkSpec) { s.def.Loss = l; s.patch.Loss = &l }
}

// Unidirectional suppresses the reverse link (builder only; patches
// always apply to both directions, like the YAML dialect's events).
func Unidirectional() LinkOption {
	return func(s *linkSpec) { s.def.Unidirectional = true }
}

// Network tags the link with a named network (orchestrator artifacts).
func Network(name string) LinkOption {
	return func(s *linkSpec) { s.def.Network = name }
}

// Link declares a link between two declared endpoints. Like the YAML
// dialect, the link is bidirectional unless Unidirectional is given, and
// Down defaults to Up.
func (b *TopologyBuilder) Link(orig, dest string, opts ...LinkOption) *TopologyBuilder {
	spec := linkSpec{def: topology.LinkDef{Orig: orig, Dest: dest}}
	for _, o := range opts {
		o(&spec)
	}
	def := spec.def
	if def.Down == 0 && !def.Unidirectional {
		def.Down = def.Up
	}
	b.top.Links = append(b.top.Links, def)
	return b
}

// At pre-registers dynamic events at an absolute experiment time — the
// builder equivalent of the YAML dynamic: section. Events given in one
// call (or separate calls with equal times) are applied atomically as one
// topology change.
func (b *TopologyBuilder) At(at time.Duration, evs ...Event) *TopologyBuilder {
	b.top.Events = append(b.top.Events, unwrap(at, evs)...)
	return b
}

// Experiment validates the built topology and wraps it as an
// undeployed Experiment. The slices are copied, so reusing the builder
// (or pre-registering more events on one experiment) cannot alias
// another experiment's topology.
func (b *TopologyBuilder) Experiment() (*Experiment, error) {
	top := topology.Topology{
		Services: append([]topology.ServiceDef(nil), b.top.Services...),
		Bridges:  append([]topology.BridgeDef(nil), b.top.Bridges...),
		Links:    append([]topology.LinkDef(nil), b.top.Links...),
		Events:   append([]topology.Event(nil), b.top.Events...),
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	return &Experiment{Topology: &top}, nil
}
