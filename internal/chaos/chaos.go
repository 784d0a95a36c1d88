// Package chaos is the deterministic control-plane fault injector: it
// interposes on the cluster fabric between managerTransport.SendTo and
// Manager.onMetadata and composes independent fault channels — drop,
// duplicate (burst n), reorder (bounded displacement), bit-corrupt,
// delay spike and one-way host partitions.
//
// Every decision is drawn from the injector's own seeded source and
// timed on the virtual clock, so a seed replays a byte-identical fault
// schedule (ScheduleHash pins this in tests and the chaos soak). The
// layer split with internal/netem is deliberate: netem models link
// physics (rate, delay, jitter, Bernoulli loss — faults a healthy
// network exhibits), chaos models adversarial failure (faults the
// network stack and operators inflict). An injector with no profile and
// no partitions is transparent and draws no randomness,
// so deployments that never call into the chaos plane replay exactly as
// before.
//
//kollaps:deterministic
package chaos

import (
	"math/rand"
	"time"

	"repro/internal/obs"
)

// Profile sets the probability and shape of each per-datagram fault
// channel. Channels are independent: one datagram can be delayed,
// reordered and corrupted in the same pass. The zero Profile injects
// nothing.
type Profile struct {
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Duplicate is the probability a datagram is delivered again;
	// DupBurst is how many extra copies arrive (default 1).
	Duplicate float64
	DupBurst  int
	// Reorder is the probability a datagram is held back by a uniform
	// extra latency in (0, ReorderDelay], letting later datagrams
	// overtake it — bounded displacement, like netem's reorder gap.
	Reorder      float64
	ReorderDelay time.Duration
	// Corrupt is the probability 1..CorruptBits random bits of the
	// datagram are flipped (default 3 bits).
	Corrupt     float64
	CorruptBits int
	// Delay is the probability of a latency spike uniform in
	// [DelayMin, DelayMax].
	Delay              float64
	DelayMin, DelayMax time.Duration
}

// active reports whether any channel can fire.
func (p Profile) active() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Corrupt > 0 || p.Delay > 0
}

// withDefaults normalizes the shape parameters of enabled channels.
func (p Profile) withDefaults() Profile {
	if p.DupBurst <= 0 {
		p.DupBurst = 1
	}
	if p.CorruptBits <= 0 {
		p.CorruptBits = 3
	}
	if p.ReorderDelay <= 0 {
		p.ReorderDelay = time.Millisecond
	}
	if p.DelayMax < p.DelayMin {
		p.DelayMax = p.DelayMin
	}
	return p
}

// Stats counts the faults an injector has inflicted, by channel.
// Blocked counts datagrams discarded by a partition (as opposed to the
// random Drop channel).
type Stats struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Corrupted  int64
	Delayed    int64
	Blocked    int64
}

// Total sums every discarded or mutated datagram decision.
func (s Stats) Total() int64 {
	return s.Dropped + s.Duplicated + s.Reordered + s.Corrupted + s.Delayed + s.Blocked
}

// Injector is the fault-injection engine for one deployment's metadata
// fabric. It is not safe for concurrent use; the deterministic
// simulation is single-threaded.
type Injector struct {
	rng    *rand.Rand
	tracer *obs.Tracer

	profile Profile
	blocked map[[2]int]bool // {from,to} pairs a partition discards

	stats   Stats
	hash    uint64 // FNV-1a fold of every fault decision
	corrupt []byte // the corrupted copy Send delivers, reused
}

// fnvOffset / fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// NewInjector builds an injector over its own seeded random source.
// tracer may be nil (faults still inject, just unrecorded).
func NewInjector(seed int64, tracer *obs.Tracer) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed ^ 0x6b6f6c6c61707321)), // decorrelate from other seed consumers
		tracer:  tracer,
		blocked: make(map[[2]int]bool),
		hash:    fnvOffset,
	}
}

// Active reports whether the injector currently perturbs any datagram.
// While false, Send is a transparent passthrough that draws no
// randomness, so an untouched chaos plane cannot shift the replay of a
// pre-chaos deployment.
func (inj *Injector) Active() bool {
	return inj.profile.active() || len(inj.blocked) > 0
}

// Stats returns the per-channel fault counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// ScheduleHash returns an FNV-1a fold of every fault decision taken so
// far (channel, endpoints, delay). Two runs with the same seed and the
// same traffic produce the same hash — the soak's byte-identical
// fault-schedule check.
func (inj *Injector) ScheduleHash() uint64 { return inj.hash }

// fold mixes one fault decision into the schedule hash.
func (inj *Injector) fold(code byte, from, to int, arg int64) {
	h := inj.hash
	h = (h ^ uint64(code)) * fnvPrime
	h = (h ^ uint64(uint32(from))) * fnvPrime
	h = (h ^ uint64(uint32(to))) * fnvPrime
	h = (h ^ uint64(arg)) * fnvPrime
	inj.hash = h
}

// Send passes one datagram from host from to host to through the fault
// pipeline. deliver is invoked zero or more times: not at all when the
// datagram is dropped or partition-blocked, once normally, and once per
// extra copy under duplication. d is the extra latency chaos adds on
// top of the fabric's own (0 for an undisturbed datagram); p is the
// payload to deliver — the caller's, or a copy in the injector's own
// buffer when chaos corrupted it. p is valid only during the call:
// deliver copies what it sends, and the caller's buffer is never written.
func (inj *Injector) Send(now time.Duration, from, to int, payload []byte, deliver func(d time.Duration, p []byte)) {
	if !inj.Active() {
		deliver(0, payload)
		return
	}
	if inj.blocked[[2]int{from, to}] {
		inj.stats.Blocked++
		inj.fold('P', from, to, 0)
		inj.tracer.Record(now, obs.KindChaosDrop, int32(from), int64(to), 1)
		return
	}
	var d time.Duration
	p := inj.profile
	if p.Drop > 0 && inj.rng.Float64() < p.Drop {
		inj.stats.Dropped++
		inj.fold('D', from, to, 0)
		inj.tracer.Record(now, obs.KindChaosDrop, int32(from), int64(to), 0)
		return
	}
	if p.Delay > 0 && inj.rng.Float64() < p.Delay {
		spike := p.DelayMin
		if span := p.DelayMax - p.DelayMin; span > 0 {
			spike += time.Duration(inj.rng.Int63n(int64(span) + 1))
		}
		d += spike
		inj.stats.Delayed++
		inj.fold('L', from, to, int64(spike))
		inj.tracer.Record(now, obs.KindChaosDelay, int32(from), int64(to), int64(spike))
	}
	if p.Reorder > 0 && inj.rng.Float64() < p.Reorder {
		// Holding this datagram back a bounded extra latency lets the
		// next ones overtake it — displacement is bounded by how many
		// datagrams the fabric carries within ReorderDelay.
		hold := time.Duration(inj.rng.Int63n(int64(p.ReorderDelay))) + 1
		d += hold
		inj.stats.Reordered++
		inj.fold('R', from, to, int64(hold))
		inj.tracer.Record(now, obs.KindChaosReorder, int32(from), int64(to), int64(hold))
	}
	if p.Corrupt > 0 && inj.rng.Float64() < p.Corrupt && len(payload) > 0 {
		corrupted := append(inj.corrupt[:0], payload...)
		inj.corrupt = corrupted
		bits := 1 + inj.rng.Intn(p.CorruptBits)
		for i := 0; i < bits; i++ {
			bit := inj.rng.Intn(len(corrupted) * 8)
			corrupted[bit/8] ^= 1 << (bit % 8)
		}
		payload = corrupted
		inj.stats.Corrupted++
		inj.fold('C', from, to, int64(bits))
		inj.tracer.Record(now, obs.KindChaosCorrupt, int32(from), int64(to), int64(bits))
	}
	deliver(d, payload)
	if p.Duplicate > 0 && inj.rng.Float64() < p.Duplicate {
		inj.stats.Duplicated++
		inj.fold('U', from, to, int64(p.DupBurst))
		inj.tracer.Record(now, obs.KindChaosDuplicate, int32(from), int64(to), int64(p.DupBurst))
		for i := 0; i < p.DupBurst; i++ {
			deliver(d, payload)
		}
	}
}

// setProfile swaps the per-datagram fault profile.
func (inj *Injector) setProfile(now time.Duration, p Profile) {
	inj.profile = p.withDefaults()
	inj.tracer.Record(now, obs.KindChaosProfile, -1, 0, 0)
}

// partitionOneWay starts discarding datagrams from→to.
func (inj *Injector) partitionOneWay(now time.Duration, from, to int) {
	inj.blocked[[2]int{from, to}] = true
	inj.tracer.Record(now, obs.KindChaosPartition, -1, int64(from), int64(to))
}

// heal clears every partition.
func (inj *Injector) heal(now time.Duration) {
	for k := range inj.blocked {
		delete(inj.blocked, k)
	}
	inj.tracer.Record(now, obs.KindChaosHeal, -1, -1, -1)
}
