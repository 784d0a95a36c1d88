package chaos

import "time"

// Action is one schedulable mutation of an injector's fault state —
// the currency of the chaos plane's experiment API: kollaps wraps
// Actions in topology-style events so a chaos step schedules exactly
// like a link failure.
type Action struct {
	apply func(now time.Duration, inj *Injector)
}

// Apply runs the action against an injector at virtual time now.
func (a Action) Apply(now time.Duration, inj *Injector) {
	if a.apply != nil && inj != nil {
		a.apply(now, inj)
	}
}

// SetProfile swaps the per-datagram fault profile (drop, duplicate,
// reorder, corrupt, delay-spike probabilities).
func SetProfile(p Profile) Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.setProfile(now, p) },
	}
}

// Off clears everything: zero profile, no partitions.
func Off() Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) {
			inj.setProfile(now, Profile{})
			inj.heal(now)
		},
	}
}

// PartitionOneWay discards every datagram from→to while keeping the
// reverse direction intact — the asymmetric partition real networks
// produce (a dead return path, a misconfigured firewall rule).
func PartitionOneWay(from, to int) Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.partitionOneWay(now, from, to) },
	}
}

// Heal removes every partition.
func Heal() Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.heal(now) },
	}
}

// Step is one instant of a Plan: the actions to apply at virtual time
// At.
type Step struct {
	At   time.Duration
	Acts []Action
}

// Plan is a reproducible chaos schedule: a list of timed steps over a
// deployment's fault injector. Plans are plain data, so the soak
// harness and experiments share one schedule definition.
type Plan struct {
	Steps []Step
}

// At appends a step and returns the plan for chaining.
func (p *Plan) At(at time.Duration, acts ...Action) *Plan {
	p.Steps = append(p.Steps, Step{At: at, Acts: acts})
	return p
}
