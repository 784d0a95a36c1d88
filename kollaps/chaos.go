package kollaps

import (
	"fmt"
	"time"

	"repro/internal/chaos"
)

// Chaos plane: deterministic fault injection on the control plane's
// metadata datagrams. The injector sits between every Emulation
// Manager's transport and the fabric; it is part of every deployment
// but transparent (and randomness-free) until armed, so experiments
// that never touch it replay byte-identically to pre-chaos builds.
//
// Faults schedule exactly like topology events:
//
//	exp.At(5*time.Second, kollaps.PartitionHosts(0, 1))
//	exp.At(15*time.Second, kollaps.HealPartitions())
//
// or arm immediately from a running experiment:
//
//	exp.Chaos(chaos.Profile{Drop: 0.05, Duplicate: 0.02})
//
// or replay a whole seeded schedule:
//
//	exp.ChaosPlan(new(chaos.Plan).
//		At(0, chaos.SetProfile(chaos.Profile{Drop: 0.1})).
//		At(10*time.Second, chaos.Off()))
//
// Same seed, same plan → byte-identical fault schedule, verifiable via
// ChaosScheduleHash. Every injected fault is recorded on the flight
// recorder (deploy with WithTrace) and counted in ChaosStats.

// chaosStep is one pre-Deploy chaos schedule entry, armed at Deploy.
type chaosStep struct {
	at   time.Duration
	acts []chaos.Action
}

// scheduleChaos binds chaos actions to an absolute virtual time: before
// Deploy they are pre-registered and armed when the runtime exists,
// after Deploy they go straight onto the engine.
func (e *Experiment) scheduleChaos(at time.Duration, acts []chaos.Action) error {
	if e.Runtime == nil {
		e.pendingChaos = append(e.pendingChaos, chaosStep{at: at, acts: acts})
		return nil
	}
	return e.armChaos(at, acts)
}

// armChaos schedules chaos actions on the live engine. Scheduling in
// the virtual past is an error, mirroring topology events.
func (e *Experiment) armChaos(at time.Duration, acts []chaos.Action) error {
	if at < e.Eng.Now() {
		return fmt.Errorf("kollaps: chaos step at %v is in the virtual past (now %v)", at, e.Eng.Now())
	}
	inj := e.Runtime.Chaos()
	e.Eng.At(at, func() {
		for _, a := range acts {
			a.Apply(e.Eng.Now(), inj)
		}
	})
	return nil
}

// ChaosProfile arms a stochastic fault profile (drop, duplicate,
// reorder, corrupt, delay probabilities) on the metadata plane as a
// schedulable event: exp.At(t, kollaps.ChaosProfile(p)).
func ChaosProfile(p chaos.Profile) Event {
	a := chaos.SetProfile(p)
	return Event{chaos: &a}
}

// ChaosOff clears the stochastic fault profile. Partitions and gray
// failures are separate channels and stay as set; see HealPartitions
// and ClearGrayHost.
func ChaosOff() Event {
	a := chaos.Off()
	return Event{chaos: &a}
}

// PartitionHosts cuts the listed physical hosts off from every host
// outside the set, in both directions — a clean island. Metadata
// datagrams crossing the cut are dropped deterministically (and
// recorded); application traffic is untouched, which is exactly what
// makes control-plane partitions interesting to inject.
func PartitionHosts(hosts ...int) Event {
	a := chaos.PartitionHosts(hosts...)
	return Event{chaos: &a}
}

// PartitionOneWay blocks metadata datagrams from one host to another in
// that direction only — the asymmetric cut that turns a crashed peer
// into a disagreeing rumor (from still hears to, to never hears from).
func PartitionOneWay(from, to int) Event {
	a := chaos.PartitionOneWay(from, to)
	return Event{chaos: &a}
}

// HealPartitions removes every partition edge, one-way and symmetric.
func HealPartitions() Event {
	a := chaos.Heal()
	return Event{chaos: &a}
}

// GrayHost puts one host into gray failure: every metadata datagram it
// sends or receives is delayed uniformly within [min, max] — alive,
// reachable, and consistently late, the failure shape that defeats
// binary alive/dead detectors. At rejects a band with min < 0 or
// max < min.
func GrayHost(host int, min, max time.Duration) Event {
	a := chaos.Gray(host, min, max)
	return Event{chaos: &a}
}

// ClearGrayHost lifts a host's gray failure.
func ClearGrayHost(host int) Event {
	a := chaos.ClearGray(host)
	return Event{chaos: &a}
}

// Chaos arms a fault profile on the running deployment immediately, at
// the current virtual time. Use At with ChaosProfile to schedule one
// instead, or ChaosPlan for a whole seeded schedule.
func (e *Experiment) Chaos(p chaos.Profile) error {
	if e.Runtime == nil {
		return fmt.Errorf("kollaps: Chaos before Deploy (schedule with At or ChaosPlan instead)")
	}
	chaos.SetProfile(p).Apply(e.Eng.Now(), e.Runtime.Chaos())
	return nil
}

// ChaosPlan schedules every step of a chaos plan. Before Deploy the
// steps are pre-registered and armed at Deploy; after Deploy a step in
// the virtual past is an error. A plan with an invalid step — a negative
// time, a time in the virtual past, or an invalid action (see
// chaos.Action.Err) — is rejected before any step is scheduled.
func (e *Experiment) ChaosPlan(p *chaos.Plan) error {
	for _, s := range p.Steps {
		if s.At < 0 {
			return fmt.Errorf("kollaps: chaos step at %v is before the experiment start", s.At)
		}
		if e.Runtime != nil && s.At < e.Eng.Now() {
			return fmt.Errorf("kollaps: chaos step at %v is in the virtual past (now %v)", s.At, e.Eng.Now())
		}
		for _, a := range s.Acts {
			if err := a.Err(); err != nil {
				return fmt.Errorf("kollaps: chaos step at %v: %w", s.At, err)
			}
		}
	}
	for _, s := range p.Steps {
		if err := e.scheduleChaos(s.At, s.Acts); err != nil {
			return err
		}
	}
	return nil
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
