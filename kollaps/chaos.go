package kollaps

import (
	"fmt"

	"repro/internal/chaos"
)

// Chaos plane: deterministic fault injection on the control plane's
// metadata datagrams. The injector sits between every Emulation
// Manager's transport and the fabric; it is part of every deployment
// but transparent (and randomness-free) until armed, so experiments
// that never touch it replay byte-identically to pre-chaos builds.
//
// Faults are scripted one way: a chaos.Plan of timed steps over the
// chaos package's actions (SetProfile, Off, PartitionOneWay, Heal),
// scheduled with ChaosPlan before or after Deploy:
//
//	exp.ChaosPlan(new(chaos.Plan).
//		At(5*time.Second, chaos.PartitionOneWay(0, 1)).
//		At(15*time.Second, chaos.Heal()))
//
// A running experiment arms a fault at the current virtual time with a
// one-step plan:
//
//	exp.ChaosPlan(new(chaos.Plan).At(exp.Eng.Now(), chaos.SetProfile(p)))
//
// Same seed, same plan → byte-identical fault schedule, verifiable via
// ChaosScheduleHash. Every injected fault is recorded on the flight
// recorder (deploy with WithTrace) and counted in ChaosStats.

// ChaosPlan schedules every step of a chaos plan. Before Deploy the
// steps are pre-registered and armed at Deploy; after Deploy a step in
// the virtual past is an error. A plan with an invalid step — a negative
// time or a time in the virtual past — is rejected before any step is
// scheduled.
func (e *Experiment) ChaosPlan(p *chaos.Plan) error {
	for _, s := range p.Steps {
		if s.At < 0 {
			return fmt.Errorf("kollaps: chaos step at %v is before the experiment start", s.At)
		}
		if e.Runtime != nil && s.At < e.Eng.Now() {
			return fmt.Errorf("kollaps: chaos step at %v is in the virtual past (now %v)", s.At, e.Eng.Now())
		}
	}
	if e.Runtime == nil {
		e.pendingChaos = append(e.pendingChaos, p.Steps...)
		return nil
	}
	for _, s := range p.Steps {
		e.armChaos(s)
	}
	return nil
}

// armChaos schedules one checked chaos step on the live engine.
func (e *Experiment) armChaos(s chaos.Step) {
	inj := e.Runtime.Chaos()
	e.Eng.At(s.At, func() {
		for _, a := range s.Acts {
			a.Apply(e.Eng.Now(), inj)
		}
	})
}

// ChaosStats returns cumulative injected-fault counters (valid after
// Deploy; all zero when chaos was never armed).
func (e *Experiment) ChaosStats() chaos.Stats {
	if e.Runtime == nil {
		return chaos.Stats{}
	}
	return e.Runtime.Chaos().Stats()
}

// ChaosScheduleHash folds every injected fault (kind, endpoints,
// magnitude, in order) into one value: two runs with the same seed and
// plan must return the same hash — the cheap way to assert a fault
// schedule replayed byte-identically.
func (e *Experiment) ChaosScheduleHash() uint64 {
	if e.Runtime == nil {
		return 0
	}
	return e.Runtime.Chaos().ScheduleHash()
}
