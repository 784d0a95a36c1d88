package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// startProbe arms the accuracy probe's sampling timer. Samples fire
// every Probe.Every periods, offset by half a period so every Manager's
// emulation loop (which fires on period boundaries) has collected,
// disseminated and enforced before the probe reads the result.
func (rt *Runtime) startProbe() {
	p := rt.opts.Probe
	if p == nil {
		return
	}
	every := p.Every
	if every < 1 {
		every = 1
	}
	interval := time.Duration(every) * rt.opts.Period
	sample := func() {
		mean, max, ok := rt.shareDeviation()
		if !ok {
			return
		}
		now := rt.Eng.Now()
		p.Record(now, mean, max)
		rt.opts.Tracer.Record(now, obs.KindProbe, -1, int64(mean*1e6), int64(max*1e6))
	}
	rt.Eng.At(rt.Eng.Now()+rt.opts.Period/2, func() {
		sample()
		rt.Eng.Every(interval, sample)
	})
}

// shareDeviation compares the allocations the Managers actually enforced
// this period against a perfect-information oracle: the production
// solver (AllocState.Allocate) run over every live flow in the
// deployment, with no dissemination delay, staleness or aggregation. It
// mirrors the Managers' §4.1 enforcement rule — max of the demand-aware
// pass and the greedy entitlement pass, floored at 1 Kb/s — so a
// deployment whose control plane distributes
// perfect information shows ~0 deviation, and what the probe measures is
// exactly the accuracy cost of the dissemination strategy (plus one
// period of demand movement between enforcement and probe).
//
// It returns the mean and worst per-flow relative deviation
// |enforced-oracle|/oracle, and ok=false when no flow was comparable
// (idle deployment). Sampling allocates; it runs only on probed periods.
//
// Flows owned by killed Managers are included as frozen: their last
// enforced allocation and last collected flow set stand in, which is the
// honest reading — a dead control plane's containers keep sending under
// stale allocations, and that divergence is accuracy loss.
func (rt *Runtime) shareDeviation() (mean, max float64, ok bool) {
	caps, _ := rt.linkCaps()
	nLinks := len(caps)

	var flows []FlowDemand
	var obsRates []units.Bandwidth
	for _, m := range rt.managers {
		for i := range m.flowsBuf {
			f := &m.flowsBuf[i]
			valid := true
			for _, l := range f.links {
				if l < 0 || l >= nLinks {
					// A dead manager's frozen flow can reference links the
					// live topology no longer has; there is no oracle to
					// price it against.
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			flows = append(flows, FlowDemand{
				ID:     LocalFlowID(m.host, i),
				Links:  f.links,
				RTT:    f.rtt,
				Demand: m.demandLocal(f),
			})
			enforced, _ := f.src.tcal.Props(f.dstIP)
			obsRates = append(obsRates, enforced.Bandwidth)
		}
	}
	if len(flows) == 0 {
		return 0, 0, false
	}

	var s AllocState
	withDemand := s.Allocate(caps, flows, nil)
	greedy := make([]FlowDemand, len(flows))
	copy(greedy, flows)
	for i := range greedy {
		greedy[i].Demand = 0
	}
	entitled := s.Allocate(caps, greedy, nil)

	n := 0
	for i := range flows {
		oracle := enforcedRate(withDemand[i].Rate, entitled[i].Rate)
		dev := float64(obsRates[i]-oracle) / float64(oracle)
		if dev < 0 {
			dev = -dev
		}
		mean += dev
		if dev > max {
			max = dev
		}
		n++
	}
	mean /= float64(n)
	return mean, max, true
}
