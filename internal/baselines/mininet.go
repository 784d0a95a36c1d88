// Package baselines implements the comparison systems of the evaluation:
// Mininet(-HiFi) [44, 53], Maxinet [87] and Trickle [39]. Each reproduces
// the mechanism the paper identifies as that system's accuracy limit —
// Mininet's single-host full-switch-state maintenance, Maxinet's external
// SDN controller on the flow-setup path, and Trickle's userspace
// write-granularity shaping.
package baselines

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// The single-host CPU model.
const (
	// mininetPacketCost is the forwarding work per packet per switch:
	// software switching on one core share.
	mininetPacketCost = 1500 * time.Nanosecond
	// mininetConnSetupCost is the extra work when a switch sees a new
	// transport connection: kernel OVS flow setup plus userspace
	// handling on an already-loaded host. This is what melts down under
	// the Figure 6 curl storm.
	mininetConnSetupCost = 2 * time.Millisecond
	// mininetFlowIdleTimeout evicts per-connection switch state.
	mininetFlowIdleTimeout = 5 * time.Second
)

// MininetMaxRate is the highest link bandwidth Mininet can shape: the
// paper notes it "does not allow imposing bandwidth limits greater than
// 1Gb/s" (Table 2's N/A rows).
const MininetMaxRate = 1 * units.Gbps

// MininetMaxElements models the single-host scalability ceiling: the paper
// could not gather Mininet results beyond the 1000-element topology of
// Table 4 ("due to the current limitations with Mininet, it was not
// possible to gather results for the larger topologies").
const MininetMaxElements = 1500

// Mininet emulates the full network state on a single host: every switch
// is a process competing for one machine's CPU, so forwarding work is
// serialized through a shared virtual CPU. Accuracy degrades when the
// packet or connection rate saturates that CPU.
type Mininet struct {
	*fabric.Network
	eng *sim.Engine

	// shared CPU: a busy-until horizon; work queues behind it.
	busyUntil time.Duration

	// per-switch connection state: (switch, 4-tuple) -> last seen.
	flows map[mnFlowKey]time.Duration

	// CPUDelayTotal accumulates queueing+service time spent on the
	// virtual CPU (observability).
	CPUDelayTotal time.Duration
	// FlowsInstalled counts flow-state installations.
	FlowsInstalled int64
}

type mnFlowKey struct {
	sw      graph.NodeID
	src     packet.IP
	dst     packet.IP
	srcPort uint16
	dstPort uint16
}

// NewMininet builds the emulator for a topology. It fails if any link
// exceeds MininetMaxRate, mirroring the real tool's limitation.
func NewMininet(eng *sim.Engine, g *graph.Graph) (*Mininet, error) {
	if g.NumNodes() > MininetMaxElements {
		return nil, fmt.Errorf("baselines: mininet cannot emulate %d elements on one host (limit %d)",
			g.NumNodes(), MininetMaxElements)
	}
	for i := 0; i < g.NumLinks(); i++ {
		if g.LinkRemoved(i) {
			continue
		}
		if bw := g.Link(i).Bandwidth; bw > MininetMaxRate {
			return nil, fmt.Errorf("baselines: mininet cannot shape %v (limit %v)", bw, MininetMaxRate)
		}
	}
	m := &Mininet{eng: eng, flows: make(map[mnFlowKey]time.Duration)}
	m.Network = fabric.New(eng, g, fabric.Options{Hook: m.hop})
	return m, nil
}

// hop charges the shared CPU for one switch traversal.
func (m *Mininet) hop(node graph.NodeID, p *packet.Packet, forward func()) {
	if m.Graph().Node(node).Kind != graph.Bridge {
		forward()
		return
	}
	now := m.eng.Now()
	cost := mininetPacketCost
	if p.Proto == packet.TCP || p.Proto == packet.UDP {
		key := mnFlowKey{sw: node, src: p.Src, dst: p.Dst, srcPort: p.SrcPort, dstPort: p.DstPort}
		last, known := m.flows[key]
		if !known || now-last > mininetFlowIdleTimeout {
			cost += mininetConnSetupCost
			m.FlowsInstalled++
		}
		m.flows[key] = now
	}
	// Serialize through the shared CPU.
	start := now
	if m.busyUntil > start {
		start = m.busyUntil
	}
	finish := start + cost
	m.busyUntil = finish
	m.CPUDelayTotal += finish - now
	m.eng.At(finish, forward)
}
