package dissem

import (
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/wire"
)

// deltaNode keeps the full mesh but sends incremental reports: only flows
// whose usage moved beyond Epsilon relative to the last report every peer
// acknowledged, plus tombstones for ended flows. Receivers ack each
// sequence number; the sender diffs against the oldest globally-acked
// snapshot, so a lost datagram only widens the next delta instead of
// losing updates. Every ResyncEvery periods — or whenever a peer falls
// behind the retained snapshot window — the full state is re-sent.
//
// Liveness: every peer reports every period (empty diffs are the
// heartbeat), so a peer silent for more than SuspectAfter periods is
// suspected dead. Suspected peers are excluded from the acked baseline
// and their ack state is garbage-collected — one dead manager would
// otherwise pin minAcked forever, and once its snapshot fell out of
// retention *every* report would degrade to a full resync. Reports keep
// flowing to suspects (they cost no fresh encoding and break the mutual
// silence a false suspicion could otherwise deadlock into); the first
// datagram heard from a suspect re-admits it and schedules it a targeted
// full report, which rebuilds its state — and its ack — from scratch.
//
// Flows are keyed by their link path (the paper's flow identity); flows
// sharing one path are summed but keep a count so receivers can hand the
// sharing model one demand per underlying flow. Records carry absolute
// usage values, so applying a delta is idempotent and tolerant of
// redundant retransmission.
type deltaNode struct {
	endpoint

	// sender side
	seq uint32
	// snaps retains the newest snapshots, oldest first; sequence numbers
	// are consecutive, so the window is [snaps[0].seq, seq]. The snapshot
	// that falls out of retention lends its storage to the next one.
	snaps     []deltaSnapshot
	acked     []uint32 // by peer: highest acked seq, 0 = none
	sinceFull int
	// forcedGap/forcedWait implement the capped exponential backoff on
	// baseline-miss forced fulls (see Publish); scheduled ResyncEvery
	// fulls are not affected.
	forcedGap  int
	forcedWait int
	// live suspects peers silent for more than SuspectAfter periods;
	// needFull marks re-admitted peers owed a targeted full report.
	live     *liveness
	needFull []bool // by peer
	// lastSent holds, per path, the value most recently included in any
	// report. Epsilon-comparing against it catches slow monotonic drift
	// that stays sub-epsilon within the ack window but compounds across
	// windows (each mention rebases the comparison point).
	lastSent recSet

	// receiver side
	peers []deltaPeer // by peer

	// Scratch. upd is the diff being sent or the report being received,
	// in wire order and then path order; next is where it is applied to a
	// table (the result is swapped in, the old table becomes the new next).
	upd, next recSet
	changed   []bool     // diff: by current record, re-send it
	removed   [][]uint16 // diff: paths to tombstone
	raw       []byte     // Publish's encoded report, sealed once per peer
	readmit   []byte     // Publish's targeted full for re-admitted peers
}

// deltaSnapshot is one published report: path aggregates in path order.
type deltaSnapshot struct {
	seq uint32
	recSet
}

type deltaPeer struct {
	held      bool   // false: no state (fresh, expired, or dropped at re-admission)
	flows     recSet // the peer's report as last reconstructed, path-sorted
	lastSeq   uint32
	refreshed time.Duration // arrival time of the newest report
	originTS  time.Duration // sender-side generation time of that report
	shape     uint64        // OriginView.Stamp of flows
}

func newDeltaNode(cfg Config, host int, tr Transport) *deltaNode {
	n := &deltaNode{
		endpoint: endpoint{cfg: cfg, host: host, tr: tr},
		acked:    make([]uint32, cfg.NumHosts),
		peers:    make([]deltaPeer, cfg.NumHosts),
		live:     newLiveness(cfg.SuspectAfter, cfg.NumHosts),
		needFull: make([]bool, cfg.NumHosts),
	}
	for h := 0; h < cfg.NumHosts; h++ {
		if h != host {
			n.live.watch(h)
		}
	}
	n.appendView = n.AppendView
	return n
}

func (n *deltaNode) Publish(now time.Duration, msg *metadata.Message) {
	if msg == nil || n.cfg.NumHosts < 2 {
		return
	}
	// Expire the state of peers silent for ExpireAfter periods: the next
	// report from one must be a full (receiveReport).
	horizon := n.horizon(now)
	for h := range n.peers {
		if p := &n.peers[h]; p.refreshed < horizon {
			p.held = false
		}
	}
	// Advance the failure detector one period. A newly suspected peer's
	// ack state is garbage-collected: it must neither pin the baseline
	// nor, if stale, be trusted after the peer restarts with empty state.
	for _, h := range n.live.advance() {
		n.stats.Suspicions.Inc()
		n.cfg.Tracer.Record(now, obs.KindSuspect, int32(n.host), int64(h), 0)
		n.acked[h] = 0
		n.needFull[h] = false
	}
	// Retain snapshots across the resync window plus the ack cadence: a
	// peer lagging further than that gets a full report anyway.
	n.seq++
	if len(n.snaps) < n.cfg.ResyncEvery+n.cfg.AckEvery+2 {
		n.snaps = append(n.snaps, deltaSnapshot{})
	} else {
		oldest := n.snaps[0]
		copy(n.snaps, n.snaps[1:])
		n.snaps[len(n.snaps)-1] = oldest
	}
	cur := &n.snaps[len(n.snaps)-1]
	cur.seq = n.seq
	cur.fold(msg)

	baseSeq := n.minAcked()
	ok := baseSeq >= n.snaps[0].seq && baseSeq <= n.seq
	n.sinceFull++
	full := n.sinceFull >= n.cfg.ResyncEvery
	if !ok && !full {
		// The acked baseline fell out of retention (a peer stopped
		// acking — dead, partitioned, or flapping), which forces a full
		// report. Re-forcing it every period would turn one unreachable
		// peer into a per-period full-state storm to everyone, so forced
		// fulls back off exponentially (1, 2, 4, ... periods, capped at
		// the ResyncEvery cadence); during the holdoff the node diffs
		// against every retained snapshot — the widest diff it can still
		// prove correct. The backoff resets as soon as the baseline is
		// acked again.
		if n.forcedWait > 0 {
			n.forcedWait--
			baseSeq = 0
		} else {
			full = true
			n.forcedGap *= 2
			if n.forcedGap < 1 {
				n.forcedGap = 1
			} else if n.forcedGap > n.cfg.ResyncEvery {
				n.forcedGap = n.cfg.ResyncEvery
			}
			n.forcedWait = n.forcedGap
		}
	} else if ok {
		n.forcedGap, n.forcedWait = 0, 0
	}
	// lastSent only records what actually made it onto the wire: a record
	// clamped off a saturated datagram must stay eligible for the next
	// diff, or its drift would be suppressed forever.
	var sent int
	if full {
		n.sinceFull = 0
		n.raw, sent = n.appendReport(n.raw[:0], msgDeltaFull, now, cur.recs)
		applyRecs(&n.next, nil, cur.recs[:sent])
		clear(n.needFull) // everyone gets this full anyway
	} else {
		n.diff(baseSeq, cur.recs)
		n.raw, sent = n.appendReport(n.raw[:0], msgDeltaDiff, now, n.upd.recs)
		n.upd.recs = n.upd.recs[:sent]
		sortByPath(&n.upd)
		applyRecs(&n.next, n.lastSent.recs, n.upd.recs)
	}
	n.lastSent, n.next = n.next, n.lastSent
	// Re-admitted peers get a targeted full instead of the diff: after a
	// restart (or an expiry-induced state flush) they have no baseline to
	// apply a diff against and would stay silent — and unacked — forever.
	// lastSent is untouched: the full went to one peer, not all.
	n.readmit = n.readmit[:0]
	readmits := 0
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h == n.host {
			continue
		}
		if !full && n.needFull[h] {
			if len(n.readmit) == 0 {
				n.readmit, _ = n.appendReport(n.readmit, msgDeltaFull, now, cur.recs)
			}
			n.stats.post(n.tr, h, n.readmit)
			n.needFull[h] = false
			readmits++
			continue
		}
		n.stats.post(n.tr, h, n.raw)
	}
	n.stats.sent(readmits, len(n.readmit))
	n.stats.sent(n.cfg.NumHosts-1-readmits, len(n.raw))
}

// minAcked returns the lowest sequence number acknowledged by every peer
// not suspected dead and not owed a re-admission full (0 when some live
// peer has never acked). Excluding suspects is what keeps one dead
// manager from freezing the baseline; excluding needFull peers keeps a
// *re-admitted* one — whose ack state was garbage-collected at suspicion
// — from dragging the baseline to zero on its first datagram, which
// would turn the targeted re-admission full into a full resync broadcast
// to every peer:
// with it pinned, the baseline snapshot eventually falls out of
// retention and every report degrades to a full resync — strictly worse
// than Broadcast, forever. With *no* live peer at all (every other
// manager suspected), the baseline is the current snapshot: nobody can
// apply a diff anyway, so the node heartbeats empty diffs instead of
// degrading to a full per period; re-admission fulls rebuild returning
// peers.
func (n *deltaNode) minAcked() uint32 {
	min := ^uint32(0)
	found := false
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h == n.host || n.live.suspected(h) || n.needFull[h] {
			continue
		}
		found = true
		if a := n.acked[h]; a < min {
			min = a
		}
	}
	if !found {
		return n.seq
	}
	return min
}

// exceeds reports whether the current aggregate v must be re-sent to a
// peer that may hold old (had==false: that may not hold the path at all).
func (n *deltaNode) exceeds(old, v metadata.FlowRecord, had bool) bool {
	if !had || old.Count != v.Count {
		return true
	}
	d := int64(v.BPS) - int64(old.BPS)
	if d < 0 {
		d = -d
	}
	return float64(d) > n.cfg.Epsilon*float64(old.BPS)
}

// diff lists path aggregates to re-send, gated two ways:
//
//   - against every retained snapshot at or after the acked baseline: a
//     peer applied intermediate diffs (acked or not), so a value that
//     spiked and reverted, or a flow that was tombstoned and resumed,
//     must be re-sent even though it matches the baseline again;
//   - against the last value actually sent per path (lastSent): a value
//     drifting monotonically but sub-epsilon within each ack window
//     would otherwise never be re-sent and the peer's error would
//     compound unbounded; rebasing only on mention caps it at Epsilon.
//
// A record is included when either comparison (including absence)
// exceeds Epsilon or differs in flow count. A peer that *lost* the diff
// carrying a path's last mention can still hold an older value until
// the next full resync — that bound is ResyncEvery, same as the
// protocol's tolerance for any lost datagram. Tombstones symmetrically
// cover paths present in any windowed snapshot but gone now.
//
// The result is n.upd in wire order: the changed records in path order,
// then the tombstones (count 0) in path order. Their link lists point
// into the snapshots; encoding and applyRecs copy them out.
func (n *deltaNode) diff(baseSeq uint32, cur []metadata.FlowRecord) {
	n.changed = slices.Grow(n.changed[:0], len(cur))[:len(cur)]
	clear(n.changed)
	n.removed = n.removed[:0]
	for i := range n.snaps {
		// Skip what predates the acked baseline, and the current state itself.
		if s := &n.snaps[i]; s.seq >= baseSeq && s.seq < n.seq {
			n.against(cur, s.recs, true)
		}
	}
	n.against(cur, n.lastSent.recs, false)

	n.upd.reset()
	for i, v := range cur {
		if n.changed[i] {
			n.upd.recs = append(n.upd.recs, v)
		}
	}
	slices.SortFunc(n.removed, slices.Compare[[]uint16])
	n.removed = slices.CompactFunc(n.removed, slices.Equal[[]uint16])
	for _, links := range n.removed {
		n.upd.recs = append(n.upd.recs, metadata.FlowRecord{Links: links})
	}
}

// against walks an older table alongside cur, both in path order, marking
// the current records a holder of old would need re-sent and, when
// tombstones is set, collecting old's paths that are gone now.
func (n *deltaNode) against(cur, old []metadata.FlowRecord, tombstones bool) {
	for i, v := range cur {
		for len(old) > 0 && slices.Compare(old[0].Links, v.Links) < 0 {
			if tombstones {
				n.removed = append(n.removed, old[0].Links)
			}
			old = old[1:]
		}
		var was metadata.FlowRecord
		had := len(old) > 0 && slices.Equal(old[0].Links, v.Links)
		if had {
			was, old = old[0], old[1:]
		}
		if !n.changed[i] && n.exceeds(was, v, had) {
			n.changed[i] = true
		}
	}
	if tombstones {
		for _, r := range old {
			n.removed = append(n.removed, r.Links)
		}
	}
}

// sortByPath puts a report's records in path order, one per path. A
// well-formed report is already sorted (a full) or two sorted runs (a
// diff's changes, then its tombstones); whatever arrives, a path named
// twice keeps its last record, as when records were applied one by one.
func sortByPath(s *recSet) {
	sorted := true
	for i := 1; i < len(s.recs) && sorted; i++ {
		sorted = comparePaths(s.recs[i-1], s.recs[i]) < 0
	}
	if sorted {
		return
	}
	slices.SortStableFunc(s.recs, comparePaths)
	w := 0
	for i := 1; i < len(s.recs); i++ {
		if !slices.Equal(s.recs[i].Links, s.recs[w].Links) {
			w++
		}
		s.recs[w] = s.recs[i]
	}
	s.recs = s.recs[:w+1]
}

// applyRecs writes into dst the table base updated by upd — both in path
// order, one record per path: an update replaces or inserts its path, a
// tombstone (count 0) removes it. Links are copied into dst's arena.
func applyRecs(dst *recSet, base, upd []metadata.FlowRecord) {
	dst.reset()
	for _, u := range upd {
		for len(base) > 0 && slices.Compare(base[0].Links, u.Links) < 0 {
			dst.add(base[0])
			base = base[1:]
		}
		if len(base) > 0 && slices.Equal(base[0].Links, u.Links) {
			base = base[1:]
		}
		if u.Count != 0 {
			dst.add(u)
		}
	}
	for _, b := range base {
		dst.add(b)
	}
}

// appendReport serializes a full or diff report:
//
//	[type][host:2][seq:4][ts:8][n:2] n×(bps:4, count:2, nlinks:1, links)
//
// recs are in wire order — live records in path order, then the
// tombstones (bps==0, count==0) in path order. Reports that would
// overflow the 16-bit record count are clamped — live records take
// priority over tombstones — and the drop is counted; the clamped tail
// heals through later diffs (lastSent is only advanced for records
// actually sent) and resyncs. It returns how many records were encoded.
func (n *deltaNode) appendReport(buf []byte, typ byte, now time.Duration, recs []metadata.FlowRecord) ([]byte, int) {
	if dropped := len(recs) - maxWireRecords; dropped > 0 {
		n.stats.TruncatedRecords.Add(int64(dropped))
		recs = recs[:maxWireRecords]
	}
	buf = slices.Grow(buf, 17+recsWireSize(recs, n.cfg.Wide))
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(n.host, &n.stats.Saturated))
	buf = binary.BigEndian.AppendUint32(buf, n.seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(now))
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(len(recs), &n.stats.Saturated))
	return appendRecs(buf, recs, n.cfg.Wide, &n.stats.Saturated), len(recs)
}

func (n *deltaNode) Receive(now time.Duration, payload []byte) {
	payload, _, ok := n.stats.open(payload)
	if !ok {
		return
	}
	if len(payload) < 3 {
		n.stats.BadDatagram.Inc()
		return
	}
	typ := payload[0]
	from := int(binary.BigEndian.Uint16(payload[1:]))
	// A corrupted or spoofed sender id must not drive acks (the
	// transport indexes peers by host) or pollute peer state.
	if from >= n.cfg.NumHosts || from == n.host {
		n.stats.BadDatagram.Inc()
		return
	}
	// Any traffic proves the peer alive. A re-admitted suspect is owed a
	// full report: whatever state it holds (none after a restart, stale
	// after a partition) is rebuilt wholesale rather than diffed against.
	// Our own state for it is dropped symmetrically — a restarted peer's
	// sequence numbers regress, so its reports would otherwise be
	// mistaken for duplicates of the pre-failure stream.
	if n.live.heard(from) {
		n.stats.Recoveries.Inc()
		n.cfg.Tracer.Record(now, obs.KindRecover, int32(n.host), int64(from), 0)
		n.live.watch(from)
		n.needFull[from] = true
		n.peers[from].held = false
	}
	switch typ {
	case msgDeltaAck:
		if len(payload) < 7 {
			n.stats.BadDatagram.Inc()
			return
		}
		seq := binary.BigEndian.Uint32(payload[3:])
		if seq > n.acked[from] {
			n.acked[from] = seq
		}
	case msgDeltaFull, msgDeltaDiff:
		n.receiveReport(now, typ, from, payload)
	}
}

func (n *deltaNode) receiveReport(now time.Duration, typ byte, from int, payload []byte) {
	if len(payload) < 17 {
		n.stats.BadDatagram.Inc()
		return
	}
	seq := binary.BigEndian.Uint32(payload[3:])
	ts := time.Duration(binary.BigEndian.Uint64(payload[7:]))
	nrec := int(binary.BigEndian.Uint16(payload[15:]))
	p := &n.peers[from]
	if !p.held && typ == msgDeltaDiff {
		// No state for this peer (fresh, or expired after a silence): a
		// diff has nothing to apply against, and acking it would let the
		// sender keep diffing forever against a baseline we no longer
		// hold. Stay silent — the sender's snapshot for our last ack
		// falls out of retention and it falls back to a full report.
		return
	}
	// Reordered or duplicate datagrams: re-ack (the sender tracks the
	// max) but do not regress the state. One exception: a *full* whose
	// sequence moved backwards is a restarted sender (a fresh node counts
	// from 1 again) — possibly one that died and returned faster than the
	// suspicion threshold, so no recovery fired. Its full is authoritative
	// current state; treating it as a duplicate would pin the view on the
	// pre-failure stream until the retention fallback. The generation
	// timestamp disambiguates the restart from a *reordered old* full
	// (periodic resyncs make those common under a displacing fabric): a
	// restarted sender generates at a later virtual time than anything it
	// published before dying, while a displaced old full's ts predates
	// the report the view already holds.
	if p.held && seq <= p.lastSeq && !(typ == msgDeltaFull && seq < p.lastSeq && ts > p.originTS) {
		n.maybeAck(typ, from, seq)
		return
	}
	if end, ok := skipRecs(payload, 17, nrec, n.cfg.Wide); !ok || end != len(payload) {
		n.stats.BadDatagram.Inc()
		return // truncated or trailing garbage: drop without acking, a resync repairs
	}
	n.upd.reset()
	n.upd.readRecs(payload, 17, nrec, n.cfg.Wide)
	sortByPath(&n.upd)
	base := p.flows.recs
	if typ == msgDeltaFull {
		base = nil
	}
	applyRecs(&n.next, base, n.upd.recs)
	p.flows, n.next = n.next, p.flows
	if !p.held || !sameShape(p.flows.recs, n.next.recs) {
		p.shape = n.newStamp()
	}
	p.held = true
	p.lastSeq = seq
	p.refreshed = now
	p.originTS = ts
	n.maybeAck(typ, from, seq)
}

// maybeAck rate-limits acknowledgements: fulls are always acked (they
// reset the sender's baseline), diffs only every AckEvery-th sequence.
func (n *deltaNode) maybeAck(typ byte, to int, seq uint32) {
	if typ == msgDeltaDiff && seq%uint32(n.cfg.AckEvery) != 0 {
		return
	}
	frame := append(newFrame(n.tr, 7), msgDeltaAck)
	frame = binary.BigEndian.AppendUint16(frame, wire.U16(n.host, &n.stats.Saturated))
	frame = binary.BigEndian.AppendUint32(frame, seq)
	n.stats.sendFrame(n.tr, to, frame)
}

func (n *deltaNode) AppendView(now, maxAge time.Duration, out []OriginView) []OriginView {
	for h := range n.peers {
		if p := &n.peers[h]; p.held && now-p.refreshed <= maxAge {
			out = append(out, OriginView{Origin: wire.U16(h, nil), Age: now - p.originTS, Stamp: p.shape, recs: p.flows.recs})
		}
	}
	return out
}
