package dissem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/wire"
)

// gossipNode is the epidemic strategy: no mesh, no overlay, no structure
// a dead manager can take down. Each period a node pushes its *hot*
// records — entries whose content it recently learned — to Fanout peers
// drawn by seeded sampling, receivers forward novelty immediately for
// ⌈log_Fanout(N)⌉+1 hops (infect-and-die: a rumor everyone already knows stops
// being told), and every datagram carries the sender's version vector so
// a node that missed a wave detects the gap and pulls exactly the origins
// it lacks (anti-entropy). Cost is O(N·Fanout) datagrams per period plus
// the novelty-driven forwards, against Broadcast's O(N²).
//
// State per origin o is one entry {cver, ts, flows}:
//
//   - cver is o's content version, a uint64. It starts at the origin's
//     creation time in virtual microseconds and increments on every
//     content change, which makes it monotonic *across restarts* — a
//     restarted manager's first report carries a higher cver than
//     anything its previous life published (the µs clock always outruns
//     the change counter), so peers adopt it instead of mistaking it for
//     a replay. Version vectors are therefore totally ordered per origin
//     and "vv[o] > mine" always means "they have newer content".
//   - ts is o's latest publish time — the liveness heartbeat. Content
//     rides the wire only while hot; ts refreshes ride the version
//     vector of every datagram (ages), so a stable deployment's steady
//     state is vv-only traffic, like Delta's empty diffs but O(N·Fanout)
//     instead of O(N²) datagrams.
//
// Peer sampling is deterministic given Config.Seed. The per-publish
// targets are ring offsets derived from (Seed, tick) shared by every
// node, so in steady state the N·Fanout pushes of a period tile the ring
// and every manager hears from exactly Fanout peers — coverage is
// guaranteed, not merely probable. Forward targets for novelty use the
// node's own seeded stream, which keeps the epidemic's diversity.
//
// Failure model: the node watches every peer through the shared
// suspicion detector, with the threshold scaled by ⌈(N−1)/Fanout⌉ —
// under sampling a live peer legitimately stays silent for many periods,
// so the Delta/Tree threshold would mis-fire constantly. Suspicion is
// advisory here: suspects are skipped when sampling and probed with a
// vv-only datagram every SuspectAfter periods (the heal path after false
// suspicion), but view correctness never depends on it — a dead origin's
// entry simply ages out of RemoteFlows, and a false suspect keeps
// receiving nothing worse than fewer pushes. This is what makes churn
// degrade latency instead of completeness: there is no baseline to pin
// (Delta) and no subtree to blind (Tree). A restarted manager converges
// through one received datagram: its vv shows it behind on every origin,
// it pulls them all, and its own fresh entry out-versions its past life.
type gossipNode struct {
	endpoint
	rounds int
	rng    *rand.Rand // forward sampling: the node's own stream
	// offsetRng draws each period's ring offsets; re-seeded from
	// (Seed, tick) every Publish, so every node draws the same ones.
	offsetRng *rand.Rand

	live *liveness

	// entries is the node's world view, by origin. Expired entries are
	// kept (filtered at view time): dropping one would also drop its
	// cver, and a stale peer's version vector could then resurrect a dead
	// origin through a pull.
	entries []gossipEntry
	// peerVV holds, per overlay link (peer this node heard from), the
	// peer's last version vector — cver per origin; nil until the peer is
	// first heard. Convergence detection: a hot entry is not pushed to a
	// peer whose vv already covers it, so rumors die per-link exactly when
	// the link has nothing to learn.
	peerVV [][]uint64
	// lastPull rate-limits anti-entropy: at most one pull per origin per
	// period, so a slow origin cannot be pulled from every peer at once.
	// pullGap stretches that to a capped exponential backoff while a
	// pull goes unanswered (partitioned or flapping origin): 1, 2, 4, 8
	// periods between retries, reset to 1 (stored as 0) the moment the
	// origin's content is adopted — so a healed partition recovers within
	// one backoff step instead of compounding a pull storm while down.
	lastPull []int
	pullGap  []int

	// Scratch. folded is where Publish folds the local report; when the
	// content changed it is swapped with the own entry's records. in is
	// where receivePush decodes an adopted entry's records, swapped with
	// the ones they replace.
	folded   recSet
	in       recSet
	offsets  []int    // Publish: the period's ring offsets
	suspects []int    // Publish: the suspects being probed
	probe    []byte   // Publish: the vv-only probe sealed once per suspect
	origins  []uint16 // the origins one datagram carries or asks for
	fresh    []uint16 // receivePush: origins adopted with hops left
	pool     []int    // forward: candidate targets
}

// gossipEntry is one origin's report.
type gossipEntry struct {
	held bool // false: nothing known about the origin yet
	cver uint64
	ts   time.Duration
	ttl  int // remaining infect-and-die hops (0 = cold)
	recSet
	shape uint64 // OriginView.Stamp of the records
}

func newGossipNode(cfg Config, host int, tr Transport) *gossipNode {
	// The infect-and-die hop budget, ⌈log_f(N)⌉ + 1: the push wave covers
	// the deployment with one spare hop; pulls repair the tail. The wire
	// carries ttl in one byte.
	rounds := 2
	for covered := cfg.Fanout; covered < cfg.NumHosts && rounds < 255; covered *= cfg.Fanout {
		rounds++
	}
	n := &gossipNode{
		endpoint:  endpoint{cfg: cfg, host: host, tr: tr},
		rounds:    rounds,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(host)*0x5E3779B97F4A7C15)),
		offsetRng: rand.New(rand.NewSource(0)),
		live:      newLiveness(cfg.SuspectAfter*gossipCycle(cfg), cfg.NumHosts),
		entries:   make([]gossipEntry, cfg.NumHosts),
		peerVV:    make([][]uint64, cfg.NumHosts),
		lastPull:  make([]int, cfg.NumHosts),
		pullGap:   make([]int, cfg.NumHosts),
	}
	for h := 0; h < cfg.NumHosts; h++ {
		if h != host {
			n.live.watch(h)
		}
	}
	n.appendView = n.AppendView
	return n
}

// gossipCycle is the sampling cycle length: a live peer addresses any
// given node once per ⌈(N−1)/Fanout⌉ periods on average, so the
// suspicion threshold is scaled by it. False suspicion is still possible
// (sampling is probabilistic) and deliberately benign: it only trims the
// sampling pool until the periodic probe heals it.
func gossipCycle(cfg Config) int {
	c := (cfg.NumHosts - 1 + cfg.Fanout - 1) / cfg.Fanout
	if c < 1 {
		c = 1
	}
	return c
}

// ringOffsets derives the period's shared ring offsets from (seed, tick)
// into n.offsets. Every node computes the same set, so node i pushing to
// i+offset (mod N) tiles the ring: each node receives exactly Fanout
// pushes per period while targets still vary pseudo-randomly over time.
// The draw is rand.Perm(N−1)[:Fanout] without the allocation.
func (n *gossipNode) ringOffsets() []int {
	n.offsetRng.Seed(n.cfg.Seed ^ int64(n.live.tick)*0x6A09E667F3BCC909)
	perm := n.offsets[:0]
	for i := 0; i < n.cfg.NumHosts-1; i++ {
		j := n.offsetRng.Intn(i + 1)
		perm = append(perm, 0)
		perm[i] = perm[j]
		perm[j] = i
	}
	n.offsets = perm
	perm = perm[:min(n.cfg.Fanout, len(perm))]
	for i := range perm {
		perm[i]++ // offsets in [1, N-1]
	}
	return perm
}

func (n *gossipNode) Publish(now time.Duration, msg *metadata.Message) {
	if msg == nil || n.cfg.NumHosts < 2 {
		return
	}
	if newly := n.live.advance(); len(newly) > 0 {
		n.stats.Suspicions.Add(int64(len(newly)))
		for _, h := range newly {
			n.cfg.Tracer.Record(now, obs.KindSuspect, int32(n.host), int64(h), 0)
		}
	}

	// Fold the local report into the own entry: merge same-path flows
	// (sum usage, keep the flow count), bump cver only when the content
	// actually changed — ts alone is the heartbeat.
	n.folded.fold(msg)
	self := &n.entries[n.host]
	if !self.held || !slices.EqualFunc(self.recs, n.folded.recs, sameRec) {
		if self.held {
			self.cver++
		} else {
			// Creation-time µs seed makes cver monotonic across restarts.
			self.held, self.cver = true, uint64(now/time.Microsecond)+1
		}
		self.ttl = n.rounds
		self.recSet, n.folded = n.folded, self.recSet
	}
	self.ts = now

	// Push hot entries to this period's ring targets, filtering per
	// target by its last-heard version vector (no point re-telling a
	// rumor the peer provably knows).
	for _, off := range n.ringOffsets() {
		t := (n.host + off) % n.cfg.NumHosts
		if t == n.host || n.live.suspected(t) {
			continue
		}
		n.sendPush(now, t, n.hotOrigins(t))
	}
	// Decrement the hop budget once per period: a rumor is told for
	// n.rounds periods from each node that adopted it, then dies.
	for o := range n.entries {
		if e := &n.entries[o]; e.ttl > 0 {
			e.ttl--
		}
	}
	// Probe suspects with a vv-only datagram every SuspectAfter periods.
	// Suspicion is sticky-until-heard, so after a mutual false suspicion
	// the probe is the only datagram that can heal either side; probes to
	// genuinely dead hosts just drop.
	if n.live.tick%n.cfg.SuspectAfter == 0 {
		if n.suspects = n.live.appendSuspects(n.suspects[:0]); len(n.suspects) > 0 {
			n.probe = n.appendPush(n.probe[:0], now, nil)
			for _, h := range n.suspects {
				n.stats.post(n.tr, h, n.probe)
			}
			n.stats.sent(len(n.suspects), len(n.probe))
		}
	}
}

func sameRec(a, b metadata.FlowRecord) bool {
	return a.BPS == b.BPS && a.Count == b.Count && slices.Equal(a.Links, b.Links)
}

// hotOrigins lists, ascending, the origins with a live hop budget that
// target's last version vector does not already cover (all of them when
// none was heard). The result is valid until the next call.
func (n *gossipNode) hotOrigins(target int) []uint16 {
	vv := n.peerVV[target]
	n.origins = n.origins[:0]
	for o := range n.entries {
		e := &n.entries[o]
		if !e.held || e.ttl <= 0 {
			continue
		}
		if vv != nil && vv[o] >= e.cver {
			continue // per-link convergence: the peer already has it
		}
		n.origins = append(n.origins, wire.U16(o, nil))
	}
	return n.origins
}

// sendPush sends one target a push carrying the given origins' entries
// (hot entries, novelty forwards, pull replies), built straight into its
// frame.
func (n *gossipNode) sendPush(now time.Duration, target int, origins []uint16) {
	size := 5 + 2 + 12*n.cfg.NumHosts
	for _, o := range origins {
		recs := n.entries[o].recs
		size += 17 + recsWireSize(recs[:min(len(recs), maxWireRecords)], n.cfg.Wide)
	}
	n.stats.sendFrame(n.tr, target, n.appendPush(newFrame(n.tr, size), now, origins))
}

// appendPush serializes a gossip push — the given origins' entries (none
// for the probe/heartbeat form), then the full version vector:
//
//	[type][host:2][n:2] n×(origin:2, cver:8, ageµs:4, ttl:1, nrec:2,
//	                       nrec×(bps:4, count:2, nlinks:1, links))
//	[N:2] N×(cver:8, ageµs:4)      // index = origin host id; cver 0 = none
//
// Ages are relative to the send time (saturating µs), reconstructed at
// arrival like the tree codec's.
func (n *gossipNode) appendPush(buf []byte, now time.Duration, origins []uint16) []byte {
	buf = append(buf, msgGossip)
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(n.host, &n.stats.Saturated))
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(len(origins), &n.stats.Saturated))
	for _, o := range origins {
		e := &n.entries[o]
		buf = binary.BigEndian.AppendUint16(buf, o)
		buf = binary.BigEndian.AppendUint64(buf, e.cver)
		buf = binary.BigEndian.AppendUint32(buf, wireAge(now, e.ts))
		ttl := e.ttl
		if ttl < 1 {
			ttl = 1 // pull replies are point-to-point: deliver, don't re-spread
		}
		buf = append(buf, wire.U8(ttl, &n.stats.Saturated))
		nrec := len(e.recs)
		if nrec > maxWireRecords {
			n.stats.TruncatedRecords.Add(int64(nrec - maxWireRecords))
			nrec = maxWireRecords
		}
		buf = binary.BigEndian.AppendUint16(buf, wire.U16(nrec, &n.stats.Saturated))
		buf = appendRecs(buf, e.recs[:nrec], n.cfg.Wide, &n.stats.Saturated)
	}
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(n.cfg.NumHosts, &n.stats.Saturated))
	for h := range n.entries {
		e := &n.entries[h]
		if !e.held {
			buf = binary.BigEndian.AppendUint64(buf, 0)
			buf = binary.BigEndian.AppendUint32(buf, ^uint32(0))
			continue
		}
		buf = binary.BigEndian.AppendUint64(buf, e.cver)
		buf = binary.BigEndian.AppendUint32(buf, wireAge(now, e.ts))
	}
	return buf
}

// wireAge is a timestamp's age at send time in saturating microseconds.
func wireAge(now, ts time.Duration) uint32 {
	age := (now - ts) / time.Microsecond
	if age < 0 {
		age = 0
	}
	return clampU32(uint64(age))
}

// gossipEntryHeader is the fixed part of one push entry on the wire.
const gossipEntryHeader = 17

// vvEntry reads origin h's pair of a push's version vector (vv starts at
// its first pair): the sender's cver and its heartbeat time reconstructed
// at arrival, -1 when the sender knows nothing of h.
func vvEntry(vv []byte, h int, now time.Duration) (cver uint64, ts time.Duration) {
	cver, age := binary.BigEndian.Uint64(vv[12*h:]), binary.BigEndian.Uint32(vv[12*h+8:])
	if age == ^uint32(0) {
		return cver, -1
	}
	return cver, now - time.Duration(age)*time.Microsecond
}

// checkGossip bounds-checks a push end to end — every entry, every
// record, the version vector's length against the payload's — without
// decoding anything, and returns the entry count and the offset of the
// version vector's first (cver, age) pair. Strict: trailing bytes reject
// the datagram.
func checkGossip(payload []byte, numHosts int, wide bool) (nent, vvOff int, ok bool) {
	if len(payload) < 5 {
		return 0, 0, false
	}
	nent = int(binary.BigEndian.Uint16(payload[3:]))
	off := 5
	for i := 0; i < nent; i++ {
		if off+gossipEntryHeader > len(payload) {
			return 0, 0, false
		}
		nrec := int(binary.BigEndian.Uint16(payload[off+15:]))
		if off, ok = skipRecs(payload, off+gossipEntryHeader, nrec, wide); !ok {
			return 0, 0, false
		}
	}
	if off+2 > len(payload) {
		return 0, 0, false
	}
	nvv := int(binary.BigEndian.Uint16(payload[off:]))
	off += 2
	if nvv != numHosts || off+12*nvv != len(payload) {
		return 0, 0, false
	}
	return nent, off, true
}

func (n *gossipNode) Receive(now time.Duration, payload []byte) {
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
	if from >= n.cfg.NumHosts || from == n.host {
		n.stats.BadDatagram.Inc()
		return // corrupted or spoofed sender id
	}
	switch typ {
	case msgGossip:
		n.receivePush(now, from, payload)
	case msgGossipPull:
		n.receivePull(now, from, payload)
	}
}

// heardFrom re-admits a suspect on first contact.
func (n *gossipNode) heardFrom(now time.Duration, from int) {
	if n.live.heard(from) {
		n.stats.Recoveries.Inc()
		n.cfg.Tracer.Record(now, obs.KindRecover, int32(n.host), int64(from), 0)
		n.live.watch(from)
	}
}

func (n *gossipNode) receivePush(now time.Duration, from int, payload []byte) {
	nent, vvOff, ok := checkGossip(payload, n.cfg.NumHosts, n.cfg.Wide)
	if !ok {
		n.stats.BadDatagram.Inc()
		return // corrupted: the epidemic repairs
	}
	n.heardFrom(now, from)
	senderVV := payload[vvOff:]
	// Adopt novel content. cver is monotonic per origin across restarts,
	// so "higher cver with a fresher heartbeat" is always the newer
	// report; equal cver means identical content and at most refreshes ts.
	// Only an adopted entry's records are decoded, straight into the
	// origin's own storage.
	fresh := take(&n.fresh)
	for off := 5; nent > 0; nent-- {
		origin := int(binary.BigEndian.Uint16(payload[off:]))
		cver := binary.BigEndian.Uint64(payload[off+2:])
		ts := now - time.Duration(binary.BigEndian.Uint32(payload[off+10:]))*time.Microsecond
		ttl := min(int(payload[off+14])-1, n.rounds)
		nrec := int(binary.BigEndian.Uint16(payload[off+15:]))
		recsOff := off + gossipEntryHeader
		off, _ = skipRecs(payload, recsOff, nrec, n.cfg.Wide)
		if origin >= n.cfg.NumHosts || origin == n.host {
			continue
		}
		local := &n.entries[origin]
		switch {
		case !local.held, cver > local.cver && ts > local.ts:
			n.in.reset()
			n.in.readRecs(payload, recsOff, nrec, n.cfg.Wide)
			if !local.held || !sameShape(local.recs, n.in.recs) {
				local.shape = n.newStamp()
			}
			local.recSet, n.in = n.in, local.recSet
			local.held, local.cver, local.ts, local.ttl = true, cver, ts, ttl
			n.pullGap[origin] = 0 // content arrived: reset the pull backoff
			if ttl > 0 {
				fresh = append(fresh, wire.U16(origin, nil))
			}
		case cver == local.cver && ts > local.ts:
			local.ts = ts // heartbeat: same content, fresher liveness
		}
	}

	// Version-vector bookkeeping: remember the peer's vector (the per-link
	// state convergence detection and pull targeting run on), refresh the
	// heartbeat of origins whose content we already hold, and pull the
	// origins the sender provably out-knows us on.
	vv := n.peerVV[from]
	if vv == nil {
		vv = make([]uint64, n.cfg.NumHosts)
		n.peerVV[from] = vv
	}
	want := n.origins[:0]
	for h := range n.entries {
		cver, ts := vvEntry(senderVV, h, now)
		vv[h] = cver
		if h == n.host || cver == 0 {
			continue
		}
		local := &n.entries[h]
		if local.held && cver == local.cver {
			local.ts = max(local.ts, ts)
			continue
		}
		// At most one pull per origin per pullGap periods: every
		// datagram of a wave carries the same vv, and pulling from
		// each sender would multiply the repair traffic for nothing.
		// The gap doubles (capped at 8) for every unanswered pull —
		// capped exponential backoff, so a partitioned origin costs
		// a bounded trickle instead of a per-period pull storm —
		// and resets when the origin's content is finally adopted.
		if (!local.held || cver > local.cver) && n.lastPull[h] <= n.live.tick {
			gap := max(n.pullGap[h], 1)
			n.lastPull[h] = n.live.tick + gap
			n.pullGap[h] = min(2*gap, 8)
			want = append(want, wire.U16(h, nil))
		}
	}
	n.origins = want
	if len(want) > 0 {
		frame := append(newFrame(n.tr, 5+2*len(want)), msgGossipPull)
		frame = binary.BigEndian.AppendUint16(frame, wire.U16(n.host, &n.stats.Saturated))
		frame = binary.BigEndian.AppendUint16(frame, wire.U16(len(want), &n.stats.Saturated))
		for _, o := range want {
			frame = binary.BigEndian.AppendUint16(frame, o)
		}
		n.stats.sendFrame(n.tr, from, frame)
	}

	// Forward novelty immediately (the infect step): the rumor crosses
	// the deployment within one period instead of one hop per period.
	// Targets come from the node's own seeded stream — diversity is what
	// makes the wave cover nodes the ring offsets miss this period.
	if len(fresh) > 0 {
		n.forward(now, from, fresh)
	}
	n.fresh = fresh
}

// forward pushes just-adopted entries to Fanout sampled peers.
func (n *gossipNode) forward(now time.Duration, except int, origins []uint16) {
	pool := take(&n.pool)
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h == n.host || h == except || n.live.suspected(h) {
			continue
		}
		pool = append(pool, h)
	}
	n.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, t := range pool[:min(n.cfg.Fanout, len(pool))] {
		n.sendPush(now, t, origins)
	}
	n.pool = pool
}

func (n *gossipNode) receivePull(now time.Duration, from int, payload []byte) {
	if len(payload) < 5 {
		n.stats.BadDatagram.Inc()
		return
	}
	nreq := int(binary.BigEndian.Uint16(payload[3:]))
	if 5+2*nreq != len(payload) {
		n.stats.BadDatagram.Inc()
		return
	}
	n.heardFrom(now, from)
	have := n.origins[:0]
	for i := 0; i < nreq; i++ {
		o := binary.BigEndian.Uint16(payload[5+2*i:])
		if int(o) >= n.cfg.NumHosts {
			n.stats.BadDatagram.Inc()
			return // corrupted request
		}
		if n.entries[o].held {
			have = append(have, o)
		}
	}
	n.origins = have
	if len(have) > 0 {
		n.sendPush(now, from, have)
	}
}

func (n *gossipNode) AppendView(now, maxAge time.Duration, out []OriginView) []OriginView {
	// Heartbeats diffuse epidemically, so a live origin's ts at a distant
	// node legitimately lags a couple of periods behind the origin's own
	// clock. Expiry therefore tolerates maxAge plus a 2/3 diffusion
	// allowance — a dead origin still vanishes promptly (its ts freezes
	// everywhere at once), while a live one cannot flicker out of the
	// view just because this period's waves happened to route around the
	// viewer. Reported Age stays the honest now−ts, so the consumer's
	// staleness handling (old ⇒ greedy) is unaffected.
	expire := maxAge + maxAge*2/3
	for h := range n.entries {
		e := &n.entries[h]
		age := now - e.ts
		if !e.held || h == n.host || age > expire {
			continue // unknown, or dead or unreachable: expired, but kept (cver)
		}
		out = append(out, OriginView{Origin: wire.U16(h, nil), Age: age, Stamp: e.shape, recs: e.recs})
	}
	return out
}
