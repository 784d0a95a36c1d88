package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Action is one schedulable mutation of an injector's fault state —
// the currency of the chaos plane's experiment API: kollaps wraps
// Actions in topology-style events so a chaos step schedules exactly
// like a link failure.
type Action struct {
	apply func(now time.Duration, inj *Injector)
	desc  string
	err   error
}

// Apply runs the action against an injector at virtual time now. An
// invalid action (Err non-nil) does nothing.
func (a Action) Apply(now time.Duration, inj *Injector) {
	if a.apply != nil && inj != nil {
		a.apply(now, inj)
	}
}

// Err reports why the action's arguments are invalid, or nil. Schedulers
// reject an invalid action instead of applying it.
func (a Action) Err() error { return a.err }

// String describes the action for logs and traces.
func (a Action) String() string {
	if a.desc == "" {
		return "chaos: no-op"
	}
	return a.desc
}

// SetProfile swaps the per-datagram fault profile (drop, duplicate,
// reorder, corrupt, delay-spike probabilities).
func SetProfile(p Profile) Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.setProfile(now, p) },
		desc:  fmt.Sprintf("chaos: profile drop=%.3f dup=%.3f reorder=%.3f corrupt=%.3f delay=%.3f", p.Drop, p.Duplicate, p.Reorder, p.Corrupt, p.Delay),
	}
}

// Off clears everything: zero profile, no partitions, no gray hosts.
func Off() Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) {
			inj.setProfile(now, Profile{})
			inj.heal(now)
			for h := range inj.gray {
				delete(inj.gray, h)
			}
		},
		desc: "chaos: off",
	}
}

// PartitionOneWay discards every datagram from→to while keeping the
// reverse direction intact — the asymmetric partition real networks
// produce (a dead return path, a misconfigured firewall rule).
func PartitionOneWay(from, to int) Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.partitionOneWay(now, from, to) },
		desc:  fmt.Sprintf("chaos: partition %d->%d", from, to),
	}
}

// PartitionHosts isolates the given hosts from the rest of the
// deployment in both directions (the hosts still reach each other).
func PartitionHosts(hosts ...int) Action {
	island := append([]int(nil), hosts...)
	sort.Ints(island)
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.partitionHosts(now, island) },
		desc:  fmt.Sprintf("chaos: partition island %v", island),
	}
}

// Heal removes every partition (one-way and island alike).
func Heal() Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.heal(now) },
		desc:  "chaos: heal partitions",
	}
}

// Gray marks a host gray-failed: every datagram it sends or receives
// gains a uniform extra latency in [min, max] — the slow-but-alive
// failure mode that defeats binary failure detectors. A band with
// min < 0 or max < min is invalid (see Action.Err).
func Gray(host int, min, max time.Duration) Action {
	if min < 0 || max < min {
		return Action{err: fmt.Errorf("chaos: gray host %d delay band [%v,%v] needs 0 <= min <= max", host, min, max)}
	}
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.setGray(now, host, min, max) },
		desc:  fmt.Sprintf("chaos: gray host %d [%v,%v]", host, min, max),
	}
}

// ClearGray restores a gray-failed host to normal latency.
func ClearGray(host int) Action {
	return Action{
		apply: func(now time.Duration, inj *Injector) { inj.clearGray(now, host) },
		desc:  fmt.Sprintf("chaos: clear gray host %d", host),
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
