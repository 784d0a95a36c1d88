package dissem

import (
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/wire"
)

// treeNode arranges the N managers in a complete fanout-k tree by host
// index: parent(i) = (i-1)/k, root at host 0. Every node maintains two
// aggregates and pushes both eagerly:
//
//   - up: the merged flows of its own containers and its children's
//     latest subtree aggregates, sent to the parent at every publish and
//     re-sent immediately whenever a child's up arrives — so a leaf's
//     report relays hop by hop to the root within microseconds instead
//     of one period per level.
//   - down: for each child c, extern(c) — the aggregate of every flow
//     *outside* c's subtree, built from the node's own extern (received
//     from its parent), its local flows, and the up-reports of its other
//     children. The root seeds one cascade per period; every interior
//     node relays a freshly recomputed extern(c) the moment its own
//     extern arrives, so the global view reaches the leaves within one
//     period and each tree edge carries exactly one down per period.
//
// By construction a node's view — extern(v) merged with its children's
// up-reports — covers every flow in the deployment except its own, with
// no double counting and no subtraction. Interior nodes merge records
// sharing identical link paths, summing usage and carrying a flow count
// so consumers can still weight each underlying flow separately.
//
// Cost: an up at depth d relays d−1 times, so one period costs
// Σ_v depth(v) = Θ(N·log_k N) ups plus N−1 cascaded downs — O(N·log N)
// datagrams per period against Broadcast's O(N²), at the price of fatter
// datagrams (interior nodes forward near-global state) and roughly one
// extra period of staleness for flows in distant subtrees. Records carry
// their origin age, so that staleness is measured, not hidden — and the
// consumer (core.Manager) treats records older than a period as greedy
// rather than demand-capped, which keeps the sharing model conservative
// under aggregation delay.
//
// Failure model: the overlay re-forms deterministically around suspected
// dead managers. Each node watches only its current neighbors (they
// exchange traffic every period); a neighbor silent for more than
// SuspectAfter periods is suspected, and the node recomputes its
// neighborhood over the static tree with suspects skipped: a live node's
// parent is its nearest live static ancestor, a dead interior node's
// orphaned children are grafted onto that same ancestor, and when a
// node's whole ancestor chain is dead (the root died) the lowest-indexed
// live host becomes the root and adopts the orphaned subtree roots.
// State keyed to the old shape (ups from ex-children, the ex-parent's
// extern) is flushed so nothing is double-counted across the re-graft.
// Because the overlay is a pure function of the static tree and the
// local suspect set, two nodes that momentarily disagree simply drop
// each other's messages until the first datagram heard from a suspect
// clears the suspicion and both converge back — false suspicion
// self-heals the same way a restart does.
//
// Asymmetric faults (a one-way partition or gray failure on a tree
// edge) break the symmetry that reasoning relies on: the child suspects
// its silent parent and reroutes its ups to the grandparent, but the
// grandparent still hears the parent fine, never suspects it, and so
// never grafts the orphan in — the orphan would send ups into the void
// and receive no downs until the fault healed. Adoption closes the gap:
// an up from a static descendant that is not currently a child is proof
// the sender considers this node its parent, so the node fosters it —
// relays its subtree upward, serves it downs — until its ups stop
// arriving (the fault healed and they returned to the static parent),
// which un-adopts without suspicion or probing. While the fault is
// active the orphan's flows can transiently reach the root twice (the
// ex-parent's view of the orphan heals and re-expires on the probe
// cycle); path coverage is never affected and the surplus resolves with
// the fault.
type treeNode struct {
	endpoint

	live     *liveness
	parent   int // -1 for the root
	children []int
	// foster holds, by host, the liveness tick of the latest up from an
	// adopted orphan — a static descendant whose ups arrive here because
	// an asymmetric fault hides its parent from it but not from us —
	// and -1 for everyone else. Expired in Publish after SuspectAfter
	// silent ticks.
	foster []int

	local      []aggRec     // own flows as aggregate records, path-sorted
	localLinks []uint16     // arena backing local's link slices
	childUp    []treeReport // by child host: latest subtree aggregate
	extern     treeReport   // latest extern from the parent

	// lastSeq tracks each neighbor's newest envelope sequence — the
	// tree's epoch check. Ups and downs trigger immediate relays, so an
	// unguarded duplicate would not just waste a merge: it would re-fire
	// sendUp/sendDowns and amplify one duplicated datagram into a
	// cascade. Zeroed when a suspect is re-admitted (its counter may
	// have regressed past what seqFresh's restart gap can absorb).
	lastSeq []uint32

	// Scratch. in is where Receive decodes; an aggregate that passes every
	// check is swapped with the one it replaces.
	in       treeReport
	codec    treeCodec
	watched  []bool // reform: by host, a current neighbor
	targets  []int  // sendDowns: the children and fosters being served
	suspects []int  // Publish: the suspects being probed
	probe    []byte // Publish: the probe sealed once per suspect
}

func newTreeNode(cfg Config, host int, tr Transport) *treeNode {
	n := &treeNode{
		endpoint: endpoint{cfg: cfg, host: host, tr: tr},
		live:     newLiveness(cfg.SuspectAfter, cfg.NumHosts),
		childUp:  make([]treeReport, cfg.NumHosts),
		lastSeq:  make([]uint32, cfg.NumHosts),
		foster:   make([]int, cfg.NumHosts),
		watched:  make([]bool, cfg.NumHosts),
	}
	for h := range n.foster {
		n.foster[h] = -1
	}
	n.reform()
	n.appendView = n.AppendView
	return n
}

// parentOf computes host i's overlay parent under the node's current
// suspect set: the nearest live static ancestor (static parent(i) =
// (i−1)/fanout), or — when the whole chain up to and including host 0 is
// suspected — the lowest-indexed live host, which adopts every orphaned
// subtree so a dead root cannot partition the overlay. Returns -1 for
// the overlay root. The result is a pure function of (static tree,
// suspect set): no negotiation, no extra messages, deterministic.
func (n *treeNode) parentOf(i int) int {
	for i > 0 {
		p := (i - 1) / n.cfg.Fanout
		if !n.live.suspected(p) {
			return p
		}
		i = p
	}
	return -1
}

// overlayParent resolves host i's parent, handling the dead-root graft.
func (n *treeNode) overlayParent(i int) int {
	if p := n.parentOf(i); p >= 0 {
		return p
	}
	// i's entire static ancestor chain (possibly empty: i == 0) is dead.
	// The lowest-indexed live host is the overlay root; every other
	// orphan attaches to it.
	root := 0
	for root < n.cfg.NumHosts && n.live.suspected(root) {
		root++
	}
	if i == root {
		return -1
	}
	return root
}

// reform recomputes the node's overlay neighborhood from the current
// suspect set and flushes state keyed to the old shape: ups from hosts
// that are no longer children would double-count once their flows arrive
// through the new shape, and the old parent's extern partitions the
// world along a boundary that no longer exists.
func (n *treeNode) reform() {
	oldParent := n.parent
	n.parent = n.overlayParent(n.host)
	n.children = n.children[:0]
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h == n.host || n.live.suspected(h) {
			continue
		}
		if n.overlayParent(h) == n.host {
			n.children = append(n.children, h)
		}
	}
	// Watch exactly the new neighbors; newly adopted ones get a fresh
	// grace window. Suspects stay remembered inside live until heard.
	clear(n.watched)
	if n.parent >= 0 {
		n.watched[n.parent] = true
		n.live.watch(n.parent)
	}
	for _, c := range n.children {
		n.watched[c] = true
		n.live.watch(c)
		// A foster that became a real child is just a child now.
		n.foster[c] = -1
	}
	for h, neighbor := range n.watched {
		if !neighbor {
			n.live.unwatch(h)
			if n.foster[h] < 0 {
				n.childUp[h].held = false
			}
		}
	}
	if n.parent != oldParent {
		n.extern.held = false
	}
}

func (n *treeNode) Publish(now time.Duration, msg *metadata.Message) {
	if msg == nil || n.cfg.NumHosts < 2 {
		return
	}
	// Advance the failure detector one period and re-form the overlay
	// around any neighbor that went silent.
	if newly := n.live.advance(); len(newly) > 0 {
		n.stats.Suspicions.Add(int64(len(newly)))
		for _, h := range newly {
			n.cfg.Tracer.Record(now, obs.KindSuspect, int32(n.host), int64(h), 0)
		}
		n.reform()
	}
	// Expire fosters whose ups stopped coming: the asymmetric fault
	// healed and their ups returned to the static parent. Un-adoption,
	// not death — no suspicion, no probes.
	for f, tick := range n.foster {
		if tick >= 0 && n.live.tick-tick > n.cfg.SuspectAfter {
			n.foster[f] = -1
			n.childUp[f].held = false
		}
	}
	// n.local outlives this call (ups are re-sent when a child's report
	// arrives), while the caller owns and reuses msg's link slices — copy
	// them into the node's own arena.
	n.local = n.local[:0]
	n.localLinks = n.localLinks[:0]
	for _, f := range msg.Flows {
		start := len(n.localLinks)
		n.localLinks = append(n.localLinks, f.Links...)
		n.local = append(n.local, newAggRec(wire.U16(n.host, nil), now, metadata.FlowRecord{
			BPS:   f.BPS,
			Count: 1,
			Links: n.localLinks[start:len(n.localLinks):len(n.localLinks)],
		}))
	}
	slices.SortFunc(n.local, compareAggPaths)
	n.sendUp(now)
	// Only the root seeds the down cascade: every interior node relays a
	// recomputed extern(c) the moment its own extern arrives, so each
	// tree edge carries exactly one down per period and every hop splices
	// in its current local flows and sibling aggregates.
	if n.parent < 0 {
		n.sendDowns(now)
	}
	// Probe every suspect once per SuspectAfter periods with the subtree
	// aggregate. Suspicion is otherwise sticky-until-heard, and after a
	// *mutual* false suspicion (control loss in both directions between
	// two live nodes) neither overlay neighbor would ever address the
	// other again — the partition could never heal. The probe is the
	// healing path: its first delivery clears the receiver's suspicion,
	// the receiver re-forms and its next datagram clears ours. Probes to
	// genuinely dead hosts just drop; the cost is one datagram per
	// suspect per SuspectAfter periods.
	if n.live.tick%n.cfg.SuspectAfter == 0 {
		if n.suspects = n.live.appendSuspects(n.suspects[:0]); len(n.suspects) > 0 {
			n.codec.parts = append(n.codec.parts, n.local)
			n.probe = append(n.probe[:0], n.codec.encode(msgTreeUp, n.host, now, n.codec.merge(), &n.stats)...)
			for _, h := range n.suspects {
				n.stats.post(n.tr, h, n.probe)
			}
			n.stats.sent(len(n.suspects), len(n.probe))
		}
	}
}

// staticAncestorOf reports whether this node is a strict ancestor of
// host h in the static tree — the adoption precondition: only a static
// ancestor can legitimately be chosen as a rerouted parent, so anything
// else sending ups here (a probe from a suspect, a corrupted sender id)
// is not adopted.
func (n *treeNode) staticAncestorOf(h int) bool {
	for h > 0 {
		h = (h - 1) / n.cfg.Fanout
		if h == n.host {
			return true
		}
	}
	return false
}

// queueUp queues host h's subtree aggregate for the next merge, if one
// is held and no older than maxAge.
func (n *treeNode) queueUp(h int, now, maxAge time.Duration) {
	if r := &n.childUp[h]; r.held && now-r.at <= maxAge {
		n.codec.parts = append(n.codec.parts, r.recs)
	}
}

// queueUps queues the subtree aggregates of the children, then the
// fosters, each in ascending host order.
func (n *treeNode) queueUps(now, maxAge time.Duration) {
	for _, c := range n.children {
		n.queueUp(c, now, maxAge)
	}
	for f, tick := range n.foster {
		if tick >= 0 {
			n.queueUp(f, now, maxAge)
		}
	}
}

// sendUp pushes the subtree aggregate — children and fosters — to the
// parent.
func (n *treeNode) sendUp(now time.Duration) {
	if n.parent < 0 {
		return
	}
	n.codec.parts = append(n.codec.parts, n.local)
	n.queueUps(now, forever)
	n.stats.send(n.tr, n.parent, n.codec.encode(msgTreeUp, n.host, now, n.codec.merge(), &n.stats))
}

// sendDowns pushes extern(c) to every child and foster c.
func (n *treeNode) sendDowns(now time.Duration) {
	targets := append(take(&n.targets), n.children...)
	for f, tick := range n.foster {
		if tick >= 0 {
			targets = append(targets, f)
		}
	}
	for _, c := range targets {
		n.codec.parts = append(n.codec.parts, n.local)
		if n.extern.held {
			n.codec.parts = append(n.codec.parts, n.extern.recs)
		}
		for _, c2 := range targets {
			if c2 != c {
				n.queueUp(c2, now, forever)
			}
		}
		n.stats.send(n.tr, c, n.codec.encode(msgTreeDown, n.host, now, n.codec.merge(), &n.stats))
	}
	n.targets = targets
}

// forever is the maxAge of merges that take held aggregates at any age.
const forever = time.Duration(1<<63 - 1)

func (n *treeNode) Receive(now time.Duration, payload []byte) {
	payload, seq, ok := n.stats.open(payload)
	if !ok {
		return
	}
	if len(payload) < 4 {
		n.stats.BadDatagram.Inc()
		return
	}
	if payload[1]&treeVerMask != treeVerMask {
		n.stats.BadVersion.Inc()
		return // a retired v0 body: byte 1 was the high byte of a host id
	}
	typ := payload[0]
	from := int(binary.BigEndian.Uint16(payload[2:]))
	if from >= n.cfg.NumHosts || from == n.host {
		n.stats.BadDatagram.Inc()
		return // corrupted or spoofed sender id
	}
	if !decodeTree(payload, now, &n.in, &n.stats) {
		return // corrupted or future-version: the next report repairs
	}
	// Traffic from a suspect clears the suspicion before the message is
	// dispatched, so a restarted (or falsely suspected) neighbor's first
	// datagram already reaches it through the re-formed overlay.
	if n.live.heard(from) {
		n.stats.Recoveries.Inc()
		n.cfg.Tracer.Record(now, obs.KindRecover, int32(n.host), int64(from), 0)
		n.reform()
		n.lastSeq[from] = 0 // new epoch: forget the dead life's counter
	}
	// Epoch check against the sender's envelope sequence: duplicates and
	// displaced stale copies are shed here, before they can overwrite a
	// fresher aggregate or re-fire the eager relays.
	if !seqFresh(n.lastSeq[from], seq) {
		return
	}
	n.lastSeq[from] = seq
	switch typ {
	case msgTreeUp:
		// Accept subtree aggregates from actual children, relaying the
		// refreshed aggregate toward the root immediately. An up from a
		// static descendant that is not a child means an asymmetric
		// fault: the sender suspects an ancestor between us that we still
		// hear, so it rerouted its ups here and we never grafted it in.
		// Adopt it (see the failure model above).
		if slices.Contains(n.children, from) {
			n.foster[from] = -1
		} else if n.staticAncestorOf(from) {
			n.foster[from] = n.live.tick
		} else {
			return
		}
		n.adopt(&n.childUp[from], now)
		n.sendUp(now)
	case msgTreeDown:
		// A fresh extern cascades to the leaves immediately.
		if from == n.parent {
			n.adopt(&n.extern, now)
			n.sendDowns(now)
		}
	}
}

// adopt installs the aggregate just decoded as slot's; the storage of the
// one it replaces decodes the next datagram.
func (n *treeNode) adopt(slot *treeReport, now time.Duration) {
	n.in, *slot = *slot, n.in
	slot.held, slot.at = true, now
}

// AppendView lends each merged record as a block of its own, in place: a
// merged record carries its own age and origin. Merging rebuilds the
// records on every call, so every block gets a fresh stamp.
func (n *treeNode) AppendView(now, maxAge time.Duration, out []OriginView) []OriginView {
	if n.extern.held && now-n.extern.at <= maxAge {
		n.codec.parts = append(n.codec.parts, n.extern.recs)
	}
	n.queueUps(now, maxAge)
	merged := n.codec.merge()
	for i := range merged {
		r := &merged[i]
		out = append(out, OriginView{Origin: r.origin, Age: now - r.ts, Stamp: n.newStamp(), recs: r.rec[:]})
	}
	return out
}
