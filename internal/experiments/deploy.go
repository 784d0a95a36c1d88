package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// system deploys the target graph on an engine and returns each
// service's stack and address by name. Bare metal, the Mininet and
// Maxinet baselines and Kollaps differ only here; deploy builds every
// one of them the same way.
type system func(eng *sim.Engine, g *graph.Graph) (map[string]host, error)

type host struct {
	stack *transport.Stack
	ip    packet.IP
}

// network builds one non-Kollaps system's packet network over the
// target graph.
type network func(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error)

// onFabric is a non-Kollaps system: the network nw builds, with service
// i in node order attached as 10.0.(i/250).(i%250).
func onFabric(nw network) system {
	return func(eng *sim.Engine, g *graph.Graph) (map[string]host, error) {
		net, err := nw(eng, g)
		if err != nil {
			return nil, err
		}
		hosts := make(map[string]host)
		i := 0
		for _, n := range g.Nodes() {
			if n.Kind != graph.Service {
				continue
			}
			ip := packet.MakeIP(0, byte(i/250), byte(i%250))
			net.AttachEndpoint(n.ID, ip, nil)
			hosts[n.Name] = host{transport.NewStack(eng, net, ip), ip}
			i++
		}
		return hosts, nil
	}
}

// baremetal is the target topology as a physical network (full switch
// state, real queues, the fabric's default 20 µs per hop): the ground
// truth the paper measures emulation accuracy against.
var baremetal = onFabric(func(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	return fabric.New(eng, g, fabric.Options{}), nil
})

// mininet is the single-host Mininet baseline; it refuses what the real
// tool refuses (too many elements, links above 1 Gb/s).
var mininet = onFabric(func(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	mn, err := baselines.NewMininet(eng, g)
	if err != nil {
		return nil, err
	}
	return mn.Network, nil
})

// maxinet is the distributed Maxinet baseline.
var maxinet = onFabric(func(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	return baselines.NewMaxinet(eng, g).Network, nil
})

// onKollaps is Kollaps on n physical hosts with the settings
// kollaps.Experiment.Deploy resolves to when given no option: the
// default period, broadcast dissemination at the seed 42, no tracer and
// no probe.
func onKollaps(n int) system {
	return func(eng *sim.Engine, g *graph.Graph) (map[string]host, error) {
		rt, err := core.NewRuntime(eng, g, n, nil, core.Options{Dissem: dissem.Config{Seed: 42}})
		if err != nil {
			return nil, err
		}
		rt.Start()
		hosts := make(map[string]host)
		for _, c := range rt.Containers() {
			hosts[c.Name] = host{c.Stack, c.IP}
		}
		return hosts, nil
	}
}

// deployment is one system deployed over the target graph: its engine
// and one transport stack per service. It serves apps.StackProvider.
type deployment struct {
	eng   *sim.Engine
	hosts map[string]host
}

// deploy is the one way a system is built for a workload that reads
// only stacks: it deploys g with sys on an engine at the evaluation's
// seed, 42.
func deploy(g *graph.Graph, sys system) (*deployment, error) {
	if n := len(g.Services()); n > core.MaxContainers {
		return nil, fmt.Errorf("experiments: %d services exceed the address plan's limit of %d", n, core.MaxContainers)
	}
	eng := sim.NewEngine(42)
	hosts, err := sys(eng, g)
	if err != nil {
		return nil, err
	}
	return &deployment{eng, hosts}, nil
}

// mustDeploy deploys a built-in topology with sys; experiment code
// treats a refusal as a programming error.
func mustDeploy(top *topology.Topology, sys system) *deployment {
	d, err := deploy(mustGraph(top), sys)
	if err != nil {
		panic(fmt.Sprintf("experiments: deploy failed: %v", err))
	}
	return d
}

// AppStack implements apps.StackProvider.
func (d *deployment) AppStack(name string) (*transport.Stack, packet.IP, error) {
	h, ok := d.hosts[name]
	if !ok {
		return nil, packet.IP{}, fmt.Errorf("experiments: unknown host %q", name)
	}
	return h.stack, h.ip, nil
}

// mustYAML parses a built-in topology description; experiment code
// treats a malformed one as a programming error.
func mustYAML(src string) *topology.Topology {
	top, err := topology.ParseYAML(src)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in topology: %v", err))
	}
	return top
}

// mustGraph builds a built-in topology's target graph.
func mustGraph(top *topology.Topology) *graph.Graph {
	g, _, err := top.Build()
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in topology: %v", err))
	}
	return g
}
