// Package core implements the paper's primary contribution: the Kollaps
// emulation model and the decentralized Emulation Manager / Emulation Core
// machinery that maintains it (§3).
//
// This file contains the RTT-Aware Min-Max bandwidth sharing model [49, 57].
// Each flow's share of a contended link is proportional to the inverse of
// its round-trip time, mimicking TCP Reno's steady state:
//
//	Share(f) = ( RTT(f) · Σ 1/RTT(fi) )⁻¹
//
// followed by the maximization step of §3: when a flow cannot use its full
// share (because another link on its path, or its own demand, limits it
// further), the surplus is redistributed to the remaining flows
// proportionally to their original shares. Iterating this to a fixed point
// is exactly weighted max-min fairness with weights 1/RTT, which we compute
// with progressive filling. The unit tests check the resulting allocations
// against every break-point published in Figure 8 of the paper.
//
// The solver here is the indexed, allocation-free form: all intermediate
// state lives in a reusable AllocState arena (dense per-link arrays plus a
// link→flow CSR index), so that at Table-4 scale the §4.1 emulation loop
// does no steady-state allocation and no per-round sorting. AllocState.
// Allocate is the package's one solver entry point. The seed's map-based
// progressive filling is retained verbatim as AllocateReference in
// share_reference_test.go — test-only, the differential-testing oracle and
// the benchmark baseline.
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package core

import (
	"math"
	"slices"
	"time"

	"repro/internal/units"
)

// minRTT floors the RTT used for weighting so that co-located containers
// (near-zero latency paths) cannot claim unbounded weight.
const minRTT = 100 * time.Microsecond

// FlowID identifies one entry of the sharing computation. It is a packed
// integer — the §4.1 hot loop never builds strings — and is resolved to a
// human-readable name only at the metrics boundary via String.
type FlowID int64

// remoteIDFlag marks ids of flows learned from peer Managers.
const remoteIDFlag FlowID = 1 << 62

// LocalFlowID packs (host, local flow index) into a FlowID. 32 bits each
// leave the packing collision-free far past any deployable host count.
func LocalFlowID(host, i int) FlowID {
	return FlowID(host&0x3fffffff)<<32 | FlowID(uint32(i))
}

// RemoteFlowID packs a remote-view index into a FlowID.
func RemoteFlowID(i int) FlowID { return remoteIDFlag | FlowID(uint32(i)) }

// String renders the id for logs and metrics: "h3f7" for the 8th local
// flow of host 3, "r5" for the 6th remote-view aggregate.
func (id FlowID) String() string {
	if id&remoteIDFlag != 0 {
		return "r" + itoa(int(id&0xffffffff))
	}
	return "h" + itoa(int(id>>32)) + "f" + itoa(int(id&0xffffffff))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// FlowDemand describes one entry in the bandwidth sharing computation.
// Kollaps shares bandwidth per destination, not per transport connection
// (§3), so a FlowDemand aggregates all traffic from one container to one
// destination container.
type FlowDemand struct {
	ID FlowID
	// Links lists the physical link ids the collapsed path traverses.
	Links []int
	// RTT is the round-trip time of the path (twice the one-way latency).
	RTT time.Duration
	// Demand is the bandwidth each underlying flow is currently trying to
	// use; 0 means greedy (take any share offered).
	Demand units.Bandwidth
	// Weight is the number of identical underlying flows this entry
	// aggregates; 0 and 1 both mean a single flow. A Weight-w entry is
	// exactly equivalent to w duplicate entries — the dissemination layer's
	// aggregated records (RemoteFlow.Count) feed this instead of
	// materializing Count duplicates.
	Weight int
}

// Allocation is the result of the sharing model for one flow.
type Allocation struct {
	ID FlowID
	// Rate is the bandwidth each underlying flow is entitled to (for
	// Weight-w entries the aggregate entitlement is w·Rate; the w
	// underlying flows are identical, so their shares are too).
	Rate units.Bandwidth
	// Bottleneck is the link id that capped the flow, or -1 when the
	// flow was capped by its own demand.
	Bottleneck int
}

// AllocState is the reusable scratch arena of the indexed solver. A zero
// AllocState is ready to use; after the first call its buffers are reused,
// so steady-state Allocate calls do not allocate. It is not safe for
// concurrent use — one per Emulation Manager, like the loop that owns it.
type AllocState struct {
	// per-flow scratch

	weight   []float64 // 1/RTT of one underlying flow
	wmult    []int     // weight multiplier (aggregated flow count)
	demTheta []float64 // demand/weight, +Inf for greedy flows
	frozen   []bool
	level    []float64 // highest fill level up to the flow's freeze (see demandSlack)
	hi       float64   // highest fill level so far in this call

	// per-link scratch, dense over the capacity table's id space

	capLeft []float64
	sumW    []float64 // Σ weights of unfrozen flows; refreshed when dirty
	dirty   []bool    // sumW invalidated by a freeze on this link
	unfro   []int32   // unfrozen flow entries crossing the link
	start   []int32   // CSR bucket start per link
	end     []int32   // CSR bucket end per link (fill cursor during build)
	touched []uint32  // per-call first-touch stamps
	stamp   []uint32  // per-flow link-dedup stamps
	calls   uint32
	stamps  uint32

	active []int32 // constrained link ids with ≥1 flow, ascending
	csr    []int32 // link→flow index storage

	remaining int
}

// grow returns s resized to n elements, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
// The growth branch runs only until the arena reaches the deployment's
// working-set size, then never again — the steady state the 0-alloc
// gate measures.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nextStamp returns a fresh dedup generation, clearing the stamp array on
// the (once per 4·10⁹ flows) wraparound.
func (s *AllocState) nextStamp() uint32 {
	s.stamps++
	if s.stamps == 0 {
		full := s.stamp[:cap(s.stamp)]
		for i := range full {
			full[i] = 0
		}
		s.stamps = 1
	}
	return s.stamps
}

// Allocate computes the RTT-aware min-max allocation for the given flows.
// caps is the dense per-link capacity table: caps[id] is the capacity of
// link id in bits/s (negative values — tombstoned links — count as zero
// capacity), NaN marks an unconstrained link, and ids outside the table
// are unconstrained. The result is appended to out[:0]'s storage and
// ordered like flows.
//
// The algorithm is progressive filling, bit-identical in outcome to the
// reference solver: repeatedly find the most contended constraint (link
// capacity divided by the total weight of its unfrozen flows, where
// weight = 1/RTT; a flow's demand acts as a private virtual constraint),
// freeze the flows it saturates at weight-proportional shares, subtract
// their allocation from every link they cross, and continue until every
// flow is frozen. The indexed form differs only in representation: link
// state is dense (no maps), the link→flow index is a CSR built once per
// call (no per-round set compaction), the active link list is sorted once
// (no per-round sort.Ints — ties still break toward the lowest link id),
// and per-link weight sums are updated on freeze — a freeze invalidates
// exactly the links it crossed, and only those are re-summed, instead of
// every link being re-summed every round. The refresh walks the CSR
// bucket in the same (flow index) order the reference sums its per-link
// sets in, so every theta, every tie-break and every rounded rate is
// reproduced bit for bit — the differential tests hold to exact equality.
//
// Each freeze also stores the highest fill level reached so far in
// s.level (+Inf for flows no constraint applied to): the certificate
// demandSlack checks a demand vector against.
//
// Allocate is on the 0 allocs/op hot path: arenas grow to the working
// set once and are reused every period thereafter.
func (s *AllocState) Allocate(caps []float64, flows []FlowDemand, out []Allocation) []Allocation {
	n := len(flows)
	out = grow(out, n)
	if n == 0 {
		return out
	}
	L := len(caps)

	s.weight = grow(s.weight, n)
	s.wmult = grow(s.wmult, n)
	s.demTheta = grow(s.demTheta, n)
	s.frozen = grow(s.frozen, n)
	s.level = grow(s.level, n)
	s.capLeft = grow(s.capLeft, L)
	s.sumW = grow(s.sumW, L)
	s.dirty = grow(s.dirty, L)
	s.unfro = grow(s.unfro, L)
	s.start = grow(s.start, L)
	s.end = grow(s.end, L)
	// Stamp arrays must preserve their contents across calls (stale stamps
	// from older generations are harmless; equal stamps are not), so grow
	// them zero-filled instead of with arbitrary reused contents.
	s.touched = growStamps(s.touched, L)
	s.stamp = growStamps(s.stamp, L)

	inf := math.Inf(1)
	for i := range flows {
		f := &flows[i]
		w := flowWeight(f.RTT)
		s.weight[i] = w
		m := f.Weight
		if m < 1 {
			m = 1
		}
		s.wmult[i] = m
		if f.Demand > 0 {
			s.demTheta[i] = float64(f.Demand) / w
		} else {
			s.demTheta[i] = inf
		}
		s.frozen[i] = false
		out[i] = Allocation{ID: f.ID, Bottleneck: -1}
	}

	// Count pass: discover the constrained links the flows actually cross,
	// initialize their dense state on first touch, and size CSR buckets.
	s.calls++
	if s.calls == 0 {
		full := s.touched[:cap(s.touched)]
		for i := range full {
			full[i] = 0
		}
		s.calls = 1
	}
	call := s.calls
	s.active = s.active[:0]
	for i := range flows {
		gen := s.nextStamp()
		for _, l := range flows[i].Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) || s.stamp[l] == gen {
				continue
			}
			s.stamp[l] = gen
			if s.touched[l] != call {
				s.touched[l] = call
				s.capLeft[l] = caps[l]
				s.sumW[l] = 0
				s.dirty[l] = false
				s.unfro[l] = 0
				s.active = append(s.active, int32(l))
			}
			s.unfro[l]++
		}
	}
	slices.Sort(s.active)

	// Fill pass: lay the CSR buckets out in link order, append flows in
	// index order (the same order the reference's per-link sets grow in),
	// and build the initial per-link weight sums — one addition per
	// underlying flow, so a Weight-w entry sums exactly like w duplicates.
	total := 0
	for _, l := range s.active {
		s.start[l] = int32(total)
		s.end[l] = int32(total)
		total += int(s.unfro[l])
	}
	s.csr = grow(s.csr, total)
	for i := range flows {
		gen := s.nextStamp()
		w := s.weight[i]
		m := s.wmult[i]
		for _, l := range flows[i].Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) || s.stamp[l] == gen {
				continue
			}
			s.stamp[l] = gen
			s.csr[s.end[l]] = int32(i)
			s.end[l]++
			for j := 0; j < m; j++ {
				s.sumW[l] += w
			}
		}
	}

	s.remaining = n
	s.hi = 0
	for s.remaining > 0 {
		// Find the tightest constraint: the link (or flow demand) whose
		// fill level theta = capacity / Σ weights is smallest. Links are
		// scanned in ascending id order, then demands in flow order —
		// the reference's deterministic tie-breaking.
		bestTheta := inf
		bestLink := -1 // -2 means a demand constraint
		bestFlow := -1
		for _, l32 := range s.active {
			l := int(l32)
			if s.unfro[l] == 0 {
				continue
			}
			if s.dirty[l] {
				// Re-sum the link's unfrozen weights in CSR (flow index)
				// order — the exact order the reference's per-link set
				// grows and is summed in, so the float result is
				// bitwise identical.
				sw := 0.0
				for k := s.start[l]; k < s.end[l]; k++ {
					fi := int(s.csr[k])
					if s.frozen[fi] {
						continue
					}
					w := s.weight[fi]
					for j := 0; j < s.wmult[fi]; j++ {
						sw += w
					}
				}
				s.sumW[l] = sw
				s.dirty[l] = false
			}
			sw := s.sumW[l]
			if sw <= 0 {
				continue
			}
			c := s.capLeft[l]
			if c < 0 {
				c = 0
			}
			theta := c / sw
			if theta < bestTheta {
				bestTheta, bestLink, bestFlow = theta, l, -1
			}
		}
		for i := 0; i < n; i++ {
			if s.frozen[i] {
				continue
			}
			if t := s.demTheta[i]; t < bestTheta {
				bestTheta, bestLink, bestFlow = t, -2, i
			}
		}

		if bestLink == -1 && bestFlow == -1 {
			// No constraint applies to the remaining flows: they are
			// unbounded. Freeze them at +inf conceptually; report 0 demand
			// flows as unconstrained max.
			for i := 0; i < n; i++ {
				if !s.frozen[i] {
					s.frozen[i] = true
					s.remaining--
					s.level[i] = inf
					out[i].Rate = units.Bandwidth(math.MaxInt64 / 2)
					out[i].Bottleneck = -1
				}
			}
			break
		}
		if bestTheta > s.hi {
			s.hi = bestTheta
		}

		if bestFlow >= 0 {
			// A demand constraint binds first: each underlying flow takes
			// exactly its demand and stops competing.
			s.freeze(caps, flows, out, bestFlow, float64(flows[bestFlow].Demand), -1)
			continue
		}
		// The link bestLink saturates: all its unfrozen flows freeze at
		// weight-proportional shares of what is left. The CSR bucket is
		// immutable; entries frozen in earlier rounds are skipped, which
		// preserves the reference's (ascending flow index) freeze order.
		for k := s.start[bestLink]; k < s.end[bestLink]; k++ {
			fi := int(s.csr[k])
			if s.frozen[fi] {
				continue
			}
			s.freeze(caps, flows, out, fi, s.weight[fi]*bestTheta, bestLink)
		}
	}
	return out
}

// freeze fixes flow fi at unitRate per underlying flow and withdraws it
// from the competition: every constrained link on its path loses the
// flow's bandwidth and weight. The per-underlying-flow subtraction loop
// reproduces the reference's arithmetic (which clamps after every
// duplicate's subtraction) bit for bit.
func (s *AllocState) freeze(caps []float64, flows []FlowDemand, out []Allocation, fi int, unitRate float64, bottleneck int) {
	s.frozen[fi] = true
	s.level[fi] = s.hi
	s.remaining--
	if unitRate < 0 {
		unitRate = 0
	}
	out[fi].Rate = units.Bandwidth(unitRate + 0.5)
	out[fi].Bottleneck = bottleneck
	m := s.wmult[fi]
	L := len(caps)
	gen := s.nextStamp()
	for _, l := range flows[fi].Links {
		if l < 0 || l >= L || math.IsNaN(caps[l]) || s.stamp[l] == gen {
			continue
		}
		s.stamp[l] = gen
		for j := 0; j < m; j++ {
			s.capLeft[l] -= unitRate
			if s.capLeft[l] < 0 {
				s.capLeft[l] = 0
			}
		}
		s.unfro[l]--
		s.dirty[l] = true
	}
}

// flowWeight is the sharing weight of one underlying flow: 1/RTT, with
// the RTT floored at minRTT. Allocate and demandSlack both call it, so
// they see the same float for the same flow.
func flowWeight(rtt time.Duration) float64 {
	if rtt < minRTT {
		rtt = minRTT
	}
	return 1 / rtt.Seconds()
}

// demandSlack reports whether Allocate over flows would return exactly
// what it returned over the same flows with every Demand zeroed, given
// level — that greedy call's per-flow fill levels (AllocState.level: the
// highest theta reached up to and including the round that froze the
// flow, +Inf when no constraint applied). Greedy and demand-aware solves
// differ only in demTheta. If no demand-capped flow has demTheta < level,
// then in every round each still-unfrozen flow's demand is at least that
// round's link theta, the strict < of the demand scan never displaces the
// link, and both solves freeze the same flows at the same rates in the
// same order: the same state, so the same bits. demTheta is recomputed
// with Allocate's own operations.
func demandSlack(flows []FlowDemand, level []float64) bool {
	for i := range flows {
		f := &flows[i]
		if f.Demand > 0 && float64(f.Demand)/flowWeight(f.RTT) < level[i] {
			return false
		}
	}
	return true
}

// growStamps resizes a stamp array preserving existing stamps and
// zero-filling fresh elements (zero never equals a live generation).
func growStamps(s []uint32, n int) []uint32 {
	if cap(s) < n {
		ns := make([]uint32, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}
