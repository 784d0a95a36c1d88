package baselines

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The distributed-emulation model.
const (
	// maxinetWorkers is the number of physical machines switches are
	// sharded over (the paper uses 4).
	maxinetWorkers = 4
	// maxinetControllerRTT is the network round trip from a switch to
	// its external SDN controller.
	maxinetControllerRTT = 2 * time.Millisecond
	// maxinetControllerServiceRate is the flow-setup requests per second
	// one controller handles before queueing.
	maxinetControllerServiceRate = 4000
	// maxinetControllers is the number of controller instances (the
	// paper runs 4 POX instances).
	maxinetControllers = 4
	// maxinetTunnelOverhead is the extra per-packet latency when a link
	// crosses workers (GRE tunnelling).
	maxinetTunnelOverhead = 60 * time.Microsecond
	// maxinetFlowIdleTimeout evicts switch flow entries: reactive
	// forwarding with short idle timeouts, so every ping after an expiry
	// pays the controller round trip at each switch — the overhead the
	// paper measures in Table 4.
	maxinetFlowIdleTimeout = 500 * time.Millisecond
	// maxinetPacketCost is per-packet forwarding work per switch.
	maxinetPacketCost = 2 * time.Microsecond
)

// Maxinet extends the Mininet model across worker machines: switches are
// sharded over workers (links crossing shards pay tunnel overhead), and
// every flow-table miss goes to an external controller whose queue grows
// with the topology — the overhead the paper blames for Table 4's large
// Maxinet errors.
type Maxinet struct {
	*fabric.Network
	eng   *sim.Engine
	flows map[mnFlowKey]time.Duration
	// per-controller queue horizon.
	ctrlBusy []time.Duration

	// FlowSetups counts controller round trips.
	FlowSetups int64
}

// NewMaxinet builds the distributed emulator. Switches are sharded over
// maxinetWorkers machines; the co-location constraint the paper mentions
// is a deployment restriction, not a performance feature, so the model
// charges every switch traversal the tunnel overhead of a round-robin
// (adversarial-but-fair) sharding.
func NewMaxinet(eng *sim.Engine, g *graph.Graph) *Maxinet {
	m := &Maxinet{
		eng:      eng,
		flows:    make(map[mnFlowKey]time.Duration),
		ctrlBusy: make([]time.Duration, maxinetControllers),
	}
	m.Network = fabric.New(eng, g, fabric.Options{Hook: m.hop})
	return m
}

func (m *Maxinet) hop(node graph.NodeID, p *packet.Packet, forward func()) {
	if m.Graph().Node(node).Kind != graph.Bridge {
		forward()
		return
	}
	now := m.eng.Now()
	delay := maxinetPacketCost

	// Tunnel overhead: we charge it per switch traversal whose previous
	// element lived on a different worker. Without per-packet ingress
	// tracking we approximate: each switch traversal has probability
	// (workers-1)/workers of crossing — deterministically charged as an
	// amortized cost.
	delay += maxinetTunnelOverhead * (maxinetWorkers - 1) / maxinetWorkers

	if p.Proto == packet.TCP || p.Proto == packet.UDP || p.Proto == packet.ICMP {
		key := mnFlowKey{sw: node, src: p.Src, dst: p.Dst, srcPort: p.SrcPort, dstPort: p.DstPort}
		last, known := m.flows[key]
		if !known || now-last > maxinetFlowIdleTimeout {
			// Table miss: punt to the controller (RTT + queueing).
			m.FlowSetups++
			ctrl := int(node) % maxinetControllers
			service := time.Second / maxinetControllerServiceRate
			start := now + maxinetControllerRTT/2
			if m.ctrlBusy[ctrl] > start {
				start = m.ctrlBusy[ctrl]
			}
			finish := start + service
			m.ctrlBusy[ctrl] = finish
			delay += (finish - now) + maxinetControllerRTT/2
		}
		m.flows[key] = now
	}
	m.eng.After(delay, forward)
}
