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
// state lives in a reusable AllocState arena (dense per-link slots, a
// link→flow CSR index and one selection heap), so that at Table-4 scale
// the §4.1 emulation loop does no steady-state allocation, and a round
// costs what its freezes changed rather than a rescan of every link and
// flow. AllocState.Allocate is the package's one solver entry point. The
// seed's map-based progressive filling is retained verbatim as
// AllocateReference in share_reference_test.go — test-only, the
// differential-testing oracle and the benchmark baseline.
//
// The package is deterministic: no wall-clock reads and no global
// math/rand outside //kollaps:wallclock sites (kollapslint walltime),
// and no map-iteration order reaching an encoder (maporder).
//
//kollaps:deterministic
package core

import (
	"math"
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
	fl     []flowSlot // per flow
	level  []float64  // per flow: highest fill level up to its freeze (see demandSlack)
	hi     float64    // highest fill level so far in this call
	lk     []linkSlot // per link, dense over the capacity table's id space
	calls  uint32
	stamps uint32

	active    []int32 // constrained link ids with ≥1 flow, in first-touch order
	csr       []int32 // link→flow index storage
	dirtyHead int32   // the dirty links, listed through linkSlot.nextDirty; -1 ends

	// The selection heap of rounds 2 onward (see buildHeap): the shared
	// links, re-keyed when a freeze dirties them, and one key per unfrozen
	// flow, fixed until it freezes. A key whose link has no unfrozen flow
	// left, or whose flow froze, is popped when it reaches the top.
	heap keyHeap

	remaining int
}

// flowSlot is one flow's solver state.
type flowSlot struct {
	weight   float64 // 1/RTT of one underlying flow
	demTheta float64 // demand/weight, +Inf for greedy flows
	wmult    int     // weight multiplier (aggregated flow count)
	frozen   bool
}

// linkSlot is one link's solver state. All of it but the two stamps is
// reset when a call first touches the link.
type linkSlot struct {
	capLeft   float64
	sumW      float64 // Σ weights of unfrozen flows; refreshed when dirty
	unfro     int32   // unfrozen flow entries crossing the link
	start     int32   // CSR bucket start
	end       int32   // CSR bucket end (fill cursor during build)
	pos       int32   // index in the link heap
	nextDirty int32   // next link on the dirty list
	touched   uint32  // per-call first-touch stamp
	stamp     uint32  // per-flow dedup stamp
	dirty     bool    // sumW invalidated by a freeze on this link
}

// grow returns s resized to n elements, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
// The growth branch runs only until the arena reaches the deployment's
// working-set size, then never again — the steady state the 0-alloc
// gate measures. It at least doubles the capacity, so an arena climbing
// to its working set one flow at a time reallocates a few times, not
// once per new maximum.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// nextCall returns a fresh first-touch generation, clearing every link's
// touched stamp on the (once per 4·10⁹ calls) wraparound.
func (s *AllocState) nextCall() uint32 {
	s.calls++
	if s.calls == 0 {
		full := s.lk[:cap(s.lk)]
		for i := range full {
			full[i].touched = 0
		}
		s.calls = 1
	}
	return s.calls
}

// nextStamp returns a fresh dedup generation, clearing every link's stamp
// on the (once per 4·10⁹ flows) wraparound.
func (s *AllocState) nextStamp() uint32 {
	s.stamps++
	if s.stamps == 0 {
		full := s.lk[:cap(s.lk)]
		for i := range full {
			full[i].stamp = 0
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
// call (no per-round set compaction), and the tightest constraint comes
// off a heap instead of a per-round sort and rescan. Round 1 scans the
// links and demands once. A call that needs a second round heapifies one
// key per link that two or more flows cross and one per unfrozen flow:
// the least of its demand and the links only it crosses, whose keys stay
// fixed until it freezes. After each round only the shared links its
// freezes crossed are re-summed and re-keyed, and the keys of emptied
// links and frozen flows are popped when they reach the top. The heap
// orders by theta, then a link before a demand, then id: the reference's
// ascending-id scan with strict <, where a demand displaces a link only
// when strictly tighter, so every round freezes the same flows. Each
// re-sum walks the CSR bucket in the same
// (flow index) order the reference sums its per-link sets in, so every
// theta, every tie-break and every rounded rate is reproduced bit for
// bit — the differential tests hold to exact equality.
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

	s.fl = grow(s.fl, n)
	s.level = grow(s.level, n)
	// Link slots must preserve their stamps across calls (stale stamps
	// from older generations are harmless; equal stamps are not), so grow
	// them zero-filled instead of with arbitrary reused contents.
	s.lk = growLinks(s.lk, L)
	// The heap is sized with the rest of the arena on every call — by the
	// table and the flows, not by the active link count, which moves with
	// every route change — so it grows when the arena does, not first in
	// some later call that needs a second round.
	s.heap.e = grow(s.heap.e, L+n)

	inf := math.Inf(1)
	for i := range flows {
		f := &flows[i]
		w := flowWeight(f.RTT)
		fs := &s.fl[i]
		fs.weight = w
		fs.wmult = max(f.Weight, 1)
		if f.Demand > 0 {
			fs.demTheta = float64(f.Demand) / w
		} else {
			fs.demTheta = inf
		}
		fs.frozen = false
		out[i] = Allocation{ID: f.ID, Bottleneck: -1}
	}

	// Count pass: discover the constrained links the flows actually cross,
	// initialize their dense state on first touch, and size CSR buckets.
	call := s.nextCall()
	s.active = s.active[:0]
	for i := range flows {
		gen := s.nextStamp()
		for _, l := range flows[i].Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) {
				continue
			}
			ls := &s.lk[l]
			if ls.stamp == gen {
				continue
			}
			ls.stamp = gen
			if ls.touched != call {
				*ls = linkSlot{capLeft: caps[l], touched: call, stamp: gen}
				s.active = append(s.active, int32(l))
			}
			ls.unfro++
		}
	}
	s.dirtyHead = -1

	// Fill pass: lay the CSR buckets out in active order, append flows in
	// index order (the same order the reference's per-link sets grow in),
	// and build the initial per-link weight sums — one addition per
	// underlying flow, so a Weight-w entry sums exactly like w duplicates.
	total := int32(0)
	for _, l := range s.active {
		ls := &s.lk[l]
		ls.start, ls.end = total, total
		total += ls.unfro
	}
	s.csr = grow(s.csr, int(total))
	for i := range flows {
		gen := s.nextStamp()
		w, m := s.fl[i].weight, s.fl[i].wmult
		for _, l := range flows[i].Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) {
				continue
			}
			ls := &s.lk[l]
			if ls.stamp == gen {
				continue
			}
			ls.stamp = gen
			s.csr[ls.end] = int32(i)
			ls.end++
			for j := 0; j < m; j++ {
				ls.sumW += w
			}
		}
	}

	s.remaining = n
	s.hi = 0
	bestTheta, bestLink, bestFlow := s.scan()
	for round := 1; ; round++ {
		if bestLink == -1 && bestFlow == -1 {
			// No constraint applies to the remaining flows: they are
			// unbounded. Freeze them at +inf conceptually; report 0 demand
			// flows as unconstrained max.
			for i := range s.fl {
				if !s.fl[i].frozen {
					s.fl[i].frozen = true
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
		} else {
			// The link bestLink saturates: all its unfrozen flows freeze at
			// weight-proportional shares of what is left. The CSR bucket is
			// immutable; entries frozen in earlier rounds are skipped, which
			// preserves the reference's (ascending flow index) freeze order.
			b := &s.lk[bestLink]
			for _, fi := range s.csr[b.start:b.end] {
				if s.fl[fi].frozen {
					continue
				}
				s.freeze(caps, flows, out, int(fi), s.fl[fi].weight*bestTheta, bestLink)
			}
		}
		if s.remaining == 0 {
			break
		}
		if round == 1 {
			s.buildHeap(caps, flows)
		} else {
			s.rekey()
		}
		bestTheta, bestLink, bestFlow = s.pick()
	}
	return out
}

// theta is the link's fill level: its remaining capacity (negative
// counts as zero) over the weight sum of its unfrozen flows. A link
// without weight gets +Inf, which never binds.
func (ls *linkSlot) theta() float64 {
	if ls.sumW <= 0 {
		return math.Inf(1)
	}
	c := ls.capLeft
	if c < 0 {
		c = 0
	}
	return c / ls.sumW
}

// scan finds round 1's tightest constraint in one pass: the least
// (theta, link id) over the active links, then the first least demand
// theta strictly below it, in flow order. No flow is frozen yet and no
// weight sum is dirty.
func (s *AllocState) scan() (bestTheta float64, bestLink, bestFlow int) {
	bestTheta, bestLink, bestFlow = math.Inf(1), -1, -1
	for _, l32 := range s.active {
		l := int(l32)
		t := s.lk[l].theta()
		if t < bestTheta || t == bestTheta && bestLink >= 0 && l < bestLink {
			bestTheta, bestLink = t, l
		}
	}
	for i := range s.fl {
		if t := s.fl[i].demTheta; t < bestTheta {
			bestTheta, bestLink, bestFlow = t, -2, i
		}
	}
	return bestTheta, bestLink, bestFlow
}

// buildHeap heapifies, once a call needs a second round, one key per
// shared link (a CSR bucket of two or more flows) that still has an
// unfrozen flow, with the weight sums round 1 dirtied re-summed first, and
// one per unfrozen flow: the least of its demand and its single-flow
// links. Only a freeze of a flow crossing a link moves the link's key, so
// a single-flow link's key is fixed until its one flow freezes, and the
// flow's key stands for all of them. A demand's id is the table length
// plus the flow index, so at an equal theta a link comes first.
func (s *AllocState) buildHeap(caps []float64, flows []FlowDemand) {
	for l := s.dirtyHead; l >= 0; l = s.lk[l].nextDirty {
		s.lk[l].dirty = false
		s.resum(&s.lk[l])
	}
	s.dirtyHead = -1
	s.heap = keyHeap{e: s.heap.e[:0], lk: s.lk}
	for _, l := range s.active {
		if ls := &s.lk[l]; ls.unfro > 0 && ls.end-ls.start > 1 {
			ls.pos = int32(len(s.heap.e))
			s.heap.e = append(s.heap.e, heapKey{ls.theta(), l})
		}
	}
	L := len(caps)
	for i := range s.fl {
		if s.fl[i].frozen {
			continue
		}
		k := heapKey{s.fl[i].demTheta, int32(L + i)}
		for _, l := range flows[i].Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) || s.lk[l].end-s.lk[l].start > 1 {
				continue
			}
			if lk := (heapKey{s.lk[l].theta(), int32(l)}); lk.less(k) {
				k = lk
			}
		}
		if k.theta < math.Inf(1) {
			s.heap.e = append(s.heap.e, k)
		}
	}
	s.heap.heapify()
}

// rekey re-sums the links the last round's freezes dirtied and fixes
// their heap keys. Only a freeze moves a link's capacity or weight sum,
// so no other key changed. A link left without an unfrozen flow keeps
// its last key until pick pops it; a dirty single-flow link is one.
func (s *AllocState) rekey() {
	for l := s.dirtyHead; l >= 0; l = s.lk[l].nextDirty {
		ls := &s.lk[l]
		ls.dirty = false
		if ls.unfro == 0 {
			continue
		}
		s.resum(ls)
		s.heap.e[ls.pos].theta = ls.theta()
		s.heap.fix(int(ls.pos))
	}
	s.dirtyHead = -1
}

// resum recomputes the link's weight sum over its unfrozen flows in CSR
// (flow index) order — the exact order the reference's per-link set grows
// and is summed in, so the float result is bitwise identical.
func (s *AllocState) resum(ls *linkSlot) {
	sw := 0.0
	for _, fi := range s.csr[ls.start:ls.end] {
		fs := &s.fl[fi]
		if fs.frozen {
			continue
		}
		for j := 0; j < fs.wmult; j++ {
			sw += fs.weight
		}
	}
	ls.sumW = sw
}

// pick takes the tightest constraint off the heap: its least live key,
// unless that key's theta is +Inf, which never binds. A link's key is
// stale once no unfrozen flow crosses the link, a demand's once its flow
// froze; stale keys are popped on the way.
func (s *AllocState) pick() (bestTheta float64, bestLink, bestFlow int) {
	L := int32(len(s.lk))
	for len(s.heap.e) > 0 {
		top := s.heap.e[0]
		if top.id < L && s.lk[top.id].unfro == 0 || top.id >= L && s.fl[top.id-L].frozen {
			s.heap.pop()
			continue
		}
		if top.theta == math.Inf(1) {
			break
		}
		if top.id < L {
			return top.theta, int(top.id), -1
		}
		return top.theta, -2, int(top.id - L)
	}
	return math.Inf(1), -1, -1
}

// freeze fixes flow fi at unitRate per underlying flow and withdraws it
// from the competition: every constrained link on its path loses the
// flow's bandwidth and weight, and is listed dirty for the next re-key.
// The per-underlying-flow subtraction loop reproduces the reference's
// arithmetic (which clamps after every duplicate's subtraction) bit for
// bit.
func (s *AllocState) freeze(caps []float64, flows []FlowDemand, out []Allocation, fi int, unitRate float64, bottleneck int) {
	fs := &s.fl[fi]
	fs.frozen = true
	s.level[fi] = s.hi
	s.remaining--
	if unitRate < 0 {
		unitRate = 0
	}
	out[fi].Rate = rateOf(unitRate)
	out[fi].Bottleneck = bottleneck
	L := len(caps)
	gen := s.nextStamp()
	for _, l := range flows[fi].Links {
		if l < 0 || l >= L || math.IsNaN(caps[l]) {
			continue
		}
		ls := &s.lk[l]
		if ls.stamp == gen {
			continue
		}
		ls.stamp = gen
		for j := 0; j < fs.wmult; j++ {
			ls.capLeft -= unitRate
			if ls.capLeft < 0 {
				ls.capLeft = 0
			}
		}
		ls.unfro--
		if !ls.dirty {
			ls.dirty = true
			ls.nextDirty = s.dirtyHead
			s.dirtyHead = int32(l)
		}
	}
}

// rateOf rounds a non-negative per-flow rate to a Bandwidth. A rate at or
// past 2^63 b/s saturates instead of wrapping negative.
func rateOf(unitRate float64) units.Bandwidth {
	if r := unitRate + 0.5; r < math.MaxInt64 {
		return units.Bandwidth(r)
	}
	return math.MaxInt64
}

// heapKey orders the solver's heap: the smaller theta first, ties to the
// smaller id — the order an ascending-id scan with strict < selects in.
// A link's id is its link id, a demand's the table length plus its flow
// index, so at an equal theta every link precedes every demand.
type heapKey struct {
	theta float64
	id    int32
}

func (a heapKey) less(b heapKey) bool {
	return a.theta < b.theta || a.theta == b.theta && a.id < b.id
}

// keyHeap is a binary min-heap of heapKeys. For an id that is a link id,
// lk[id].pos holds the entry's index in e, so a shared link's entry can
// be re-keyed in place.
type keyHeap struct {
	e  []heapKey
	lk []linkSlot
}

func (h *keyHeap) place(i int, k heapKey) {
	h.e[i] = k
	if int(k.id) < len(h.lk) {
		h.lk[k.id].pos = int32(i)
	}
}

// heapify orders e in O(len(e)); every link entry's pos must already be
// its index.
func (h *keyHeap) heapify() {
	for i := len(h.e)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// fix restores the heap after e[i]'s key changed.
func (h *keyHeap) fix(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

// pop deletes the least entry.
func (h *keyHeap) pop() {
	last := len(h.e) - 1
	if last > 0 {
		h.place(0, h.e[last])
	}
	h.e = h.e[:last]
	h.down(0)
}

// up and down sift e[i] toward the root or the leaves; an entry that
// does not move is not rewritten.
func (h *keyHeap) up(i int) bool {
	e := h.e
	k := e[i]
	j := i
	for j > 0 {
		p := (j - 1) / 2
		if !k.less(e[p]) {
			break
		}
		h.place(j, e[p])
		j = p
	}
	if j == i {
		return false
	}
	h.place(j, k)
	return true
}

func (h *keyHeap) down(i int) {
	e := h.e
	n := len(e)
	if i >= n {
		return
	}
	k := e[i]
	j := i
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e[r].less(e[c]) {
			c = r
		}
		if !e[c].less(k) {
			break
		}
		h.place(j, e[c])
		j = c
	}
	if j != i {
		h.place(j, k)
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

// fitMargin is the share of a link's capacity demandFits leaves free, and
// fitFlows the most underlying flows it lets cross a link: together they
// bound the solve's rounding below the margin (DESIGN.md has the proof).
const (
	fitMargin = 1e-9
	fitFlows  = 1 << 20
)

// demandFits reports whether Allocate over flows would freeze every flow
// at its demand, returning fitAllocation's result: every flow has a
// demand and, on every link Allocate constrains (skipped and deduplicated
// as Allocate does), Σ max(Weight, 1)·Demand ≤ cap·(1 − fitMargin) over
// at most fitFlows underlying flows; a negative cap fails. It stops at
// the first greedy flow and sums in s's link slots (capLeft the demands,
// sumW the flow count), so it costs O(Σ links) and allocates nothing.
func (s *AllocState) demandFits(caps []float64, flows []FlowDemand) bool {
	L := len(caps)
	s.lk = growLinks(s.lk, L)
	call := s.nextCall()
	for i := range flows {
		f := &flows[i]
		if f.Demand <= 0 {
			return false
		}
		m, gen := float64(max(f.Weight, 1)), s.nextStamp()
		for _, l := range f.Links {
			if l < 0 || l >= L || math.IsNaN(caps[l]) || s.lk[l].stamp == gen {
				continue
			}
			ls := &s.lk[l]
			if ls.touched != call {
				*ls = linkSlot{touched: call}
			}
			ls.stamp = gen
			ls.capLeft += m * float64(f.Demand)
			ls.sumW += m
			if !(ls.capLeft <= caps[l]*(1-fitMargin)) || ls.sumW > fitFlows {
				return false
			}
		}
	}
	return true
}

// fitAllocation is Allocate's result when demandFits holds, appended to
// out[:0]'s storage: each flow frozen at its demand, rounded as by freeze.
func fitAllocation(flows []FlowDemand, out []Allocation) []Allocation {
	out = grow(out, len(flows))
	for i := range flows {
		out[i] = Allocation{ID: flows[i].ID, Rate: rateOf(float64(flows[i].Demand)), Bottleneck: -1}
	}
	return out
}

// growLinks resizes the link slots preserving existing ones and
// zero-filling fresh ones (zero never equals a live stamp), growing the
// capacity as grow does.
func growLinks(s []linkSlot, n int) []linkSlot {
	if cap(s) < n {
		ns := make([]linkSlot, n, max(n, 2*cap(s)))
		copy(ns, s)
		return ns
	}
	return s[:n]
}
