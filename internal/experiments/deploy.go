package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// network builds one non-Kollaps system's packet network over the target
// graph. Bare metal and the Mininet and Maxinet baselines differ only
// here; deploy attaches the services the same way to each.
type network func(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error)

// baremetal is the target topology as a physical network (full switch
// state, real queues, the fabric's default 20 µs per hop): the ground
// truth the paper measures emulation accuracy against.
func baremetal(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	return fabric.New(eng, g, fabric.Options{}), nil
}

// mininet is the single-host Mininet baseline; it refuses what the real
// tool refuses (too many elements, links above 1 Gb/s).
func mininet(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	mn, err := baselines.NewMininet(eng, g)
	if err != nil {
		return nil, err
	}
	return mn.Network, nil
}

// maxinet is the distributed Maxinet baseline.
func maxinet(eng *sim.Engine, g *graph.Graph) (*fabric.Network, error) {
	return baselines.NewMaxinet(eng, g).Network, nil
}

// deployment is a non-Kollaps system: one network over the target graph
// with one transport stack per service. It serves apps.StackProvider.
type deployment struct {
	eng   *sim.Engine
	hosts map[string]host
}

type host struct {
	stack *transport.Stack
	ip    packet.IP
}

// deploy is the one way a non-Kollaps system is built: it builds nw over
// g on an engine at the evaluation's seed, 42, and attaches service i in
// node order as 10.0.(i/250).(i%250).
func deploy(g *graph.Graph, nw network) (*deployment, error) {
	if n := len(g.Services()); n > core.MaxContainers {
		return nil, fmt.Errorf("experiments: %d services exceed the address plan's limit of %d", n, core.MaxContainers)
	}
	eng := sim.NewEngine(42)
	net, err := nw(eng, g)
	if err != nil {
		return nil, err
	}
	d := &deployment{eng: eng, hosts: make(map[string]host)}
	i := 0
	for _, n := range g.Nodes() {
		if n.Kind != graph.Service {
			continue
		}
		ip := packet.MakeIP(0, byte(i/250), byte(i%250))
		net.AttachEndpoint(n.ID, ip, nil)
		d.hosts[n.Name] = host{transport.NewStack(eng, net, ip), ip}
		i++
	}
	return d, nil
}

// AppStack implements apps.StackProvider.
func (d *deployment) AppStack(name string) (*transport.Stack, packet.IP, error) {
	h, ok := d.hosts[name]
	if !ok {
		return nil, packet.IP{}, fmt.Errorf("experiments: unknown host %q", name)
	}
	return h.stack, h.ip, nil
}

// mustGraph builds a built-in topology description's target graph;
// experiment code treats a malformed one as a programming error.
func mustGraph(top *topology.Topology, err error) *graph.Graph {
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in topology: %v", err))
	}
	g, _, err := top.Build()
	if err != nil {
		panic(fmt.Sprintf("experiments: bad built-in topology: %v", err))
	}
	return g
}
