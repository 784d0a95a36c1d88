// Package dissem is the pluggable metadata-dissemination subsystem: the
// control plane that carries each Emulation Manager's per-flow usage
// report to its peers every emulation period.
//
// The paper's decentralized design (§4.2) has every Manager unicast its
// full report to every peer — O(N²) datagrams per period, which the paper
// itself identifies as the scalability ceiling of the control plane. This
// package factors that exchange behind a Strategy so deployments can
// trade message volume against metadata freshness:
//
//   - Broadcast reproduces the paper byte for byte: full report, full
//     mesh, O(N²) datagrams and O(N²·F) bytes per period (F = flows per
//     manager).
//   - Delta keeps the full mesh but sends only flows whose usage moved
//     beyond a configurable epsilon since the last report acknowledged by
//     every peer, with periodic full-state resyncs. Datagram count stays
//     O(N²) (plus tiny acks) but bytes collapse to O(N²·ΔF) where ΔF is
//     the churn rate — near zero for stable workloads.
//   - Tree arranges managers in a fanout-k aggregation overlay: children
//     report up, interior nodes merge records sharing identical link
//     paths, and each child receives back the aggregate of everything
//     outside its own subtree — O(N) up + O(N) down = O(N·fanout)
//     datagrams per period, at the price of O(log_k N) periods of extra
//     staleness for distant managers. Aggregates travel in the versioned
//     compressed wire format of codec.go (varint link ids, shared-path
//     prefixes, grouped origins).
//   - Gossip drops all fixed structure: every period each manager pushes
//     its hot records to Fanout sampled peers, receivers forward novelty
//     for GossipRounds hops (infect-and-die), and per-peer version
//     vectors carried on every datagram detect convergence and drive
//     anti-entropy pulls for anything a node is missing. O(N·fanout)
//     datagrams per period with no overlay to maintain, so manager churn
//     degrades only latency, never completeness.
//
// Every node exposes control-plane counters (datagrams, bytes, staleness)
// through internal/metrics so experiments can quantify the trade-off.
//
// The package is a deterministic wire codec, with both contracts
// enforced by kollapslint: no wall-clock or global-rand reads (time is
// the virtual `now` threaded through every call; randomness is the
// seeded gossip sampler), and no unchecked integer narrowing into wire
// fields (saturate via internal/wire instead of wrapping).
//
//kollaps:deterministic
//kollaps:wirecodec
package dissem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Kind selects a dissemination strategy.
type Kind int

const (
	// Broadcast is the paper's §4.2 full-mesh exchange.
	Broadcast Kind = iota
	// Delta is the epsilon-gated incremental encoding over the full mesh.
	Delta
	// Tree is the fanout-k hierarchical aggregation overlay.
	Tree
	// Gossip is the epidemic exchange: seeded peer sampling,
	// infect-and-die record propagation, version-vector anti-entropy.
	Gossip
)

// String returns the CLI name of the strategy.
func (k Kind) String() string {
	switch k {
	case Broadcast:
		return "broadcast"
	case Delta:
		return "delta"
	case Tree:
		return "tree"
	case Gossip:
		return "gossip"
	}
	return fmt.Sprintf("dissem.Kind(%d)", int(k))
}

// ParseKind maps a CLI name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "broadcast", "":
		return Broadcast, nil
	case "delta":
		return Delta, nil
	case "tree":
		return Tree, nil
	case "gossip":
		return Gossip, nil
	}
	return 0, fmt.Errorf("dissem: unknown strategy %q (want broadcast, delta, tree or gossip)", s)
}

// Config tunes a strategy. The zero value selects Broadcast with the
// defaults below.
type Config struct {
	// Kind selects the strategy.
	Kind Kind
	// Epsilon is the relative usage change below which Delta suppresses
	// a flow record: a flow is re-sent when |new−old| > Epsilon·old
	// (default 0.05). Zero keeps the default; negative disables the gate
	// (every change is sent); NaN and ±Inf are rejected.
	Epsilon float64
	// ResyncEvery is the number of periods between Delta full-state
	// resyncs (default 20). Resyncs bound the error a lost delta or a
	// suppressed sub-epsilon drift can accumulate.
	ResyncEvery int
	// AckEvery makes Delta receivers acknowledge full reports always but
	// incremental diffs only every AckEvery-th sequence number (default
	// 4). Larger values shrink ack traffic; the diff baseline lags
	// accordingly, re-sending recent changes a few extra times.
	AckEvery int
	// Fanout is the arity of the Tree overlay (default 4, minimum 2) and
	// the number of peers a Gossip node pushes to per period.
	Fanout int
	// GossipRounds is the infect-and-die hop budget: how many hops a
	// record adopted as new is forwarded before the rumor dies. The
	// default, ⌈log_Fanout(NumHosts)⌉+1, covers the deployment with one
	// spare hop; anti-entropy pulls repair whatever the push wave misses.
	GossipRounds int
	// Seed drives Gossip's deterministic peer sampling; the runtime fills
	// it with the deployment seed so identical seeds replay identical
	// control-plane traffic.
	Seed int64
	// SuspectAfter is the failure-detection threshold, in emulation
	// periods: a peer this node expects traffic from (every peer for
	// Delta, overlay neighbors for Tree) that stays silent for more than
	// SuspectAfter consecutive publishes is suspected dead (default 3).
	// Suspected peers stop pinning Delta's ack baseline and are routed
	// around in the Tree overlay; the first datagram heard from one
	// re-admits it. Broadcast needs no suspicion — its per-peer view
	// simply expires.
	SuspectAfter int
	// NumHosts is the number of Emulation Managers; filled in by the
	// runtime at deployment.
	NumHosts int
	// Wide selects 2-byte link identifiers on the wire (topologies with
	// more than 256 links); filled in by the runtime.
	Wide bool
	// Tracer, when non-nil, records failure-detector transitions
	// (suspect/recover) in the deployment's flight recorder; filled in
	// by the runtime. Every hook is nil-safe, so strategies record
	// unconditionally.
	Tracer *obs.Tracer
}

// withDefaults returns a validated configuration's normalized copy.
func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	} else if c.Epsilon < 0 {
		c.Epsilon = 0
	}
	if c.ResyncEvery == 0 {
		c.ResyncEvery = 20
	}
	if c.AckEvery == 0 {
		c.AckEvery = 4
	}
	if c.Fanout == 0 {
		c.Fanout = 4
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3
	}
	return c
}

// Validate reports whether the configuration is usable. It judges the
// configuration as the caller wrote it: zero knobs mean "default", but a
// negative count is a mistake to report, not to paper over with one.
func (c Config) Validate() error {
	switch c.Kind {
	case Broadcast, Delta, Tree, Gossip:
	default:
		return fmt.Errorf("dissem: unknown strategy kind %d", int(c.Kind))
	}
	for _, knob := range []struct {
		name string
		v    int
	}{
		{"ResyncEvery", c.ResyncEvery}, {"AckEvery", c.AckEvery}, {"Fanout", c.Fanout},
		{"GossipRounds", c.GossipRounds}, {"SuspectAfter", c.SuspectAfter},
	} {
		if knob.v < 0 {
			return fmt.Errorf("dissem: %s must not be negative, got %d (0 selects the default)", knob.name, knob.v)
		}
	}
	// A NaN gate compares false against every change, so Delta would
	// never re-send a flow between resyncs; an infinite one does the same.
	if math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("dissem: Epsilon must be finite, got %v (0 selects the default, negative disables the gate)", c.Epsilon)
	}
	if c.Kind == Tree && c.Fanout == 1 {
		return fmt.Errorf("dissem: tree fanout must be >= 2, got %d", c.Fanout)
	}
	if c.NumHosts > maxHosts {
		return fmt.Errorf("dissem: at most %d managers (16-bit host ids), got %d", maxHosts, c.NumHosts)
	}
	return nil
}

// Transport carries one datagram to a peer Emulation Manager. The core
// runtime backs it with the cluster fabric's UDP stack; tests use an
// in-memory loopback. The transport owns the payload from SendTo on.
type Transport interface {
	SendTo(host int, payload []byte)
}

// FrameSource is implemented by a Transport that recycles frames: Frame
// returns an empty buffer with capacity at least n, which the node fills
// and hands back through SendTo. The core runtime serves frames from the
// simulation's packet pool.
type FrameSource interface {
	Frame(n int) []byte
}

// MergedOrigin marks a RemoteFlow produced by merging records from more
// than one reporting manager (Tree interior aggregation).
const MergedOrigin uint16 = 0xFFFF

// maxHosts caps a deployment's managers: host ids ride 16-bit wire
// fields, and MergedOrigin reserves the largest.
const maxHosts = int(MergedOrigin)

// RemoteFlow is one entry of a node's current view of every other
// manager's flows — the input the bandwidth-sharing model consumes.
//
//kollaps:wire
type RemoteFlow struct {
	// Origin is the reporting manager, or MergedOrigin for aggregates.
	Origin uint16
	// BPS is the summed observed usage in bits per second.
	BPS uint32
	// Count is the number of underlying flows this record aggregates
	// (1 for unmerged records). The sharing model weights each underlying
	// flow separately, so consumers split BPS evenly across Count.
	Count uint16
	// Links is the flow path's physical link ids.
	Links []uint16
	// Age is how old the underlying measurement is: view time minus the
	// virtual time the origin generated the report.
	Age time.Duration
}

// Stats are one node's control-plane counters.
type Stats struct {
	// DatagramsSent / BytesSent count every control datagram this node
	// handed to the transport (reports, acks, aggregates).
	DatagramsSent metrics.Counter
	BytesSent     metrics.Counter
	// DatagramsRecv / BytesRecv count every datagram handed to Receive.
	DatagramsRecv metrics.Counter
	BytesRecv     metrics.Counter
	// Staleness samples the age (milliseconds) of remote flows as the
	// emulation loop reads the view. Long runs are decimated: once the
	// histogram reaches maxStalenessSamples it is halved and further
	// ages are recorded at double the stride, bounding memory while
	// keeping the percentiles.
	Staleness metrics.Histogram
	// StaleLinks counts remote-flow link ids the consumer (the Emulation
	// Manager) had to drop because they fall outside the live topology's
	// link-id space — the footprint of stale or corrupt reports that can
	// no longer be priced against a real link.
	StaleLinks metrics.Counter
	// Suspicions counts peers this node declared suspected dead (silent
	// for more than SuspectAfter periods); Recoveries counts suspected
	// peers re-admitted on first contact. A restartless run keeps both at
	// zero.
	Suspicions metrics.Counter
	Recoveries metrics.Counter
	// TruncatedRecords counts flow records dropped because a control
	// datagram's 16-bit record count saturated (more than 65535 path
	// aggregates in one report — far past any benchmarked scale). The
	// encoders clamp instead of letting the count wrap, which used to
	// make receivers reject the entire datagram as trailing garbage.
	TruncatedRecords metrics.Counter
	// BadVersion counts control datagrams rejected because they carried a
	// wire version this node does not implement — the visible footprint
	// of a mixed-version deployment (an old node never sees its newer
	// peers' reports, which would otherwise read as a silent partition).
	BadVersion metrics.Counter
	// BadDatagram counts control datagrams rejected as structurally
	// invalid: truncated envelopes or inner frames, inconsistent lengths,
	// out-of-range sender ids, trailing garbage. Before this counter a
	// chaos run that shredded datagrams was invisible — every decode
	// path bare-returned.
	BadDatagram metrics.Counter
	// BadChecksum counts datagrams rejected by the envelope's CRC-32C:
	// the precise footprint of in-flight corruption, as opposed to the
	// structural damage BadDatagram counts. Non-zero exactly when the
	// fabric (or the chaos plane) flips bits.
	BadChecksum metrics.Counter
	// Saturated counts wire-field narrowings this node had to clamp
	// (link lists cut at 255 entries, 32-bit usage sums pinned at max):
	// the value on the wire is the field maximum, not a wrapped
	// garbage value, and this counter is the evidence. Mirrors the
	// process-wide wire.Saturations.
	Saturated metrics.Counter

	staleStride int
	staleSkip   int
	envSeq      uint32 // envelope sequence of the last datagram sealed
}

// maxStalenessSamples caps the staleness histogram per node.
const maxStalenessSamples = 1 << 16

// AdoptFrom transfers old's accumulated counters, staleness distribution
// and envelope sequence into s, field by field. It exists for manager
// restarts: control-plane counters are deployment observability, not
// process state, so a fresh node adopts its predecessor's totals to stay
// monotonic across the restart. Counters cannot be struct-copied (their
// values are atomics), hence the explicit transfer. Call it on the
// simulation thread before the fresh node starts publishing.
func (s *Stats) AdoptFrom(old *Stats) {
	s.DatagramsSent.Store(old.DatagramsSent.Value())
	s.BytesSent.Store(old.BytesSent.Value())
	s.DatagramsRecv.Store(old.DatagramsRecv.Value())
	s.BytesRecv.Store(old.BytesRecv.Value())
	s.StaleLinks.Store(old.StaleLinks.Value())
	s.Suspicions.Store(old.Suspicions.Value())
	s.Recoveries.Store(old.Recoveries.Value())
	s.TruncatedRecords.Store(old.TruncatedRecords.Value())
	s.BadVersion.Store(old.BadVersion.Value())
	s.BadDatagram.Store(old.BadDatagram.Value())
	s.BadChecksum.Store(old.BadChecksum.Value())
	s.Saturated.Store(old.Saturated.Value())
	s.Staleness.Reset()
	s.Staleness.Merge(&old.Staleness)
	s.staleStride = old.staleStride
	s.staleSkip = old.staleSkip
	s.envSeq = old.envSeq
}

// send copies one inner frame into a fresh integrity envelope
// (envelope.go) and hands it to the transport — the form for a payload
// encoded once and sent to several peers. Counters see the on-wire size.
func (s *Stats) send(tr Transport, host int, inner []byte) {
	s.sendFrame(tr, host, append(newFrame(tr, len(inner)), inner...))
}

// sendFrame stamps the envelope header of a frame built in place
// (newFrame, then the inner payload appended) and hands it to the
// transport, which owns it from here on.
func (s *Stats) sendFrame(tr Transport, host int, frame []byte) {
	s.stamp(frame)
	tr.SendTo(host, frame)
	s.DatagramsSent.Inc()
	s.BytesSent.Add(int64(len(frame)))
}

func (s *Stats) staleness(age time.Duration) {
	if s.staleStride == 0 {
		s.staleStride = 1
	}
	s.staleSkip++
	if s.staleSkip < s.staleStride {
		return
	}
	s.staleSkip = 0
	s.Staleness.AddDuration(age)
	if s.Staleness.Count() >= maxStalenessSamples {
		s.Staleness.Decimate()
		s.staleStride *= 2
	}
}

// Summary aggregates the stats of all nodes of a deployment.
type Summary struct {
	DatagramsSent int64
	BytesSent     int64
	DatagramsRecv int64
	BytesRecv     int64
	// StalenessP50Ms / StalenessP99Ms are percentiles over every view
	// sample of every node, in milliseconds.
	StalenessP50Ms float64
	StalenessP99Ms float64
}

// Summarize folds per-node stats into one Summary.
func Summarize(stats []*Stats) Summary {
	var sum Summary
	var h metrics.Histogram
	for _, s := range stats {
		if s == nil {
			continue
		}
		sum.DatagramsSent += s.DatagramsSent.Value()
		sum.BytesSent += s.BytesSent.Value()
		sum.DatagramsRecv += s.DatagramsRecv.Value()
		sum.BytesRecv += s.BytesRecv.Value()
		h.Merge(&s.Staleness)
	}
	sum.StalenessP50Ms = h.Percentile(50)
	sum.StalenessP99Ms = h.Percentile(99)
	return sum
}

// Node is one manager's endpoint of the dissemination subsystem. The
// emulation loop calls Publish once per period with the local report,
// feeds every inbound control datagram to Receive, and reads the fused
// remote view with RemoteFlows. Nodes are not safe for concurrent use;
// the deterministic simulation is single-threaded.
type Node interface {
	// Publish disseminates the manager's local report for this period.
	// The message, its flow records and their link slices remain owned by
	// the caller, which reuses them next period: implementations must
	// copy (or immediately serialize) anything they retain past the call.
	Publish(now time.Duration, msg *metadata.Message)
	// Receive processes one control datagram addressed to this node. The
	// payload stays owned by the caller, which recycles it once Receive
	// returns: implementations only read it, and copy what they keep.
	Receive(now time.Duration, payload []byte)
	// RemoteFlows returns the node's current view of every other
	// manager's flows, dropping entries not refreshed within maxAge.
	// The result is deterministic: ordered by origin, then path. Links
	// are lent exactly as by AppendRemoteFlows.
	RemoteFlows(now, maxAge time.Duration) []RemoteFlow
	// AppendRemoteFlows is RemoteFlows appending into buf's storage, so a
	// per-period caller reuses one buffer instead of allocating a view
	// every tick. The returned entries' Links slices stay owned by the
	// node and are valid until its next Publish or Receive, which may
	// recycle the storage behind them; callers copy what they keep.
	AppendRemoteFlows(now, maxAge time.Duration, buf []RemoteFlow) []RemoteFlow
	// Stats exposes the node's control-plane counters.
	Stats() *Stats
}

// endpoint is what every strategy's node starts from.
type endpoint struct {
	cfg   Config
	host  int
	tr    Transport
	stats Stats
}

// Stats exposes the node's control-plane counters.
func (e *endpoint) Stats() *Stats { return &e.stats }

// New builds a node for manager host under the given configuration.
// Config.NumHosts must be set: without it Tree would compute a bogus
// parent for any nonzero host and every strategy would misjudge its
// peer set, so any host index outside [0, NumHosts) is rejected.
func New(cfg Config, host int, tr Transport) (Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if host < 0 || host >= cfg.NumHosts {
		return nil, fmt.Errorf("dissem: host %d out of range [0,%d) (Config.NumHosts must cover every manager)", host, cfg.NumHosts)
	}
	switch cfg.Kind {
	case Broadcast:
		return newBroadcastNode(cfg, host, tr), nil
	case Delta:
		return newDeltaNode(cfg, host, tr), nil
	case Gossip:
		return newGossipNode(cfg, host, tr), nil
	default:
		return newTreeNode(cfg, host, tr), nil
	}
}

// ---- shared wire helpers ----
//
// Broadcast reuses metadata.Encode verbatim (no extra framing — the bytes
// on the wire are exactly the paper's format). The other strategies
// prepend a one-byte message type followed by the sender id:
//
//	delta full:  [type][host:2][seq:4][ts:8][n:2] n×(bps:4, count:2, nlinks:1, links)
//	delta diff:  same framing; count==0 is a tombstone (flow ended)
//	delta ack:   [type][host:2][seq:4]
//	tree up/down:versioned compressed aggregate format — see codec.go
//	gossip push: [type][host:2][n:2] n×entry, then the version vector —
//	             see gossip.go
//	gossip pull: [type][host:2][n:2] n×(origin:2)
//
// Link ids are 1 byte, or 2 when Config.Wide (same rule as metadata);
// the tree codec's varint link ids are width-agnostic.

const (
	msgDeltaFull  byte = 1
	msgDeltaDiff  byte = 2
	msgDeltaAck   byte = 3
	msgTreeUp     byte = 4
	msgTreeDown   byte = 5
	msgGossip     byte = 6
	msgGossipPull byte = 7
)

// maxWireRecords is the most records one control datagram can carry:
// the wire's record count is 16 bits, so a larger report would wrap the
// count and make the receiver's trailing-bytes check reject the whole
// datagram. Encoders clamp to it and count the overflow in
// Stats.TruncatedRecords.
const maxWireRecords = int(^uint16(0))

// idWidth is the on-wire size of one link id.
func idWidth(wide bool) int {
	if wide {
		return 2
	}
	return 1
}

// appendLinks encodes a link list with a 1-byte count. Paths longer
// than 255 links saturate: the first 255 ids are encoded and sat
// counts the clamp — the pre-fix behavior wrapped the count byte,
// desynchronizing the decoder from the first overlong path onward.
func appendLinks(buf []byte, links []uint16, wide bool, sat *metrics.Counter) []byte {
	if n := int(wire.U8(len(links), sat)); n < len(links) {
		links = links[:n]
	}
	buf = append(buf, wire.U8(len(links), nil))
	for _, l := range links {
		if wide {
			buf = binary.BigEndian.AppendUint16(buf, l)
		} else {
			// Narrow mode is only negotiated when every topology link id
			// fits a byte; a saturation here means mis-negotiation.
			buf = append(buf, wire.U8(int(l), sat))
		}
	}
	return buf
}

// clampU32 saturates a 64-bit usage sum into a 32-bit wire field,
// counting clamps in the process-wide wire.Saturations.
//
//kollaps:saturates
func clampU32(v uint64) uint32 { return wire.U32(v, nil) }

// take borrows a node's scratch slice for a call that keeps using it
// across a SendTo, and the caller assigns it back when done. Real
// transports deliver later, but the tests' loopback delivers
// synchronously, so a send can re-enter Receive on this very node; the
// re-entered call finds the field nil and grows a buffer of its own
// instead of overwriting the one in use. Scratch that is dead by the time
// the node sends, or that only Publish (never re-entered) touches, needs
// none of this.
func take[T any](scratch *[]T) []T {
	s := (*scratch)[:0]
	*scratch = nil
	return s
}

// ---- path-sorted records ----
//
// A flow is identified by its link path (the paper's flow identity), and
// Delta and Gossip both store a report as one record per distinct path.
// The records of one report live in a recSet: a slice ordered by path —
// lexicographically over the link ids, a proper prefix first — whose link
// lists all point into one arena, so a set is two recycled allocations,
// not one per record. Path order lets two sets be compared, diffed and
// merged by walking them side by side, and is the canonical order of
// records in views and on the wire.

// pathRec is one path aggregate: summed usage and the number of
// underlying flows. On Delta's wire count==0 marks a tombstone.
//
//kollaps:wire
type pathRec struct {
	bps   uint32
	count uint16
	links []uint16
}

// recSet is a reusable record list plus the arena behind its link lists.
type recSet struct {
	recs  []pathRec
	links []uint16
}

func (s *recSet) reset() {
	s.recs, s.links = s.recs[:0], s.links[:0]
}

// add appends a record, copying its links into the arena.
func (s *recSet) add(bps uint32, count uint16, links []uint16) {
	start := len(s.links)
	s.links = append(s.links, links...)
	s.recs = append(s.recs, pathRec{bps, count, s.links[start:len(s.links):len(s.links)]})
}

// comparePaths orders records by path.
func comparePaths(a, b pathRec) int { return slices.Compare(a.links, b.links) }

// fold loads a local report, merging flows that share a path: usage is
// summed (saturating) and count keeps how many flows went in.
func (s *recSet) fold(msg *metadata.Message) {
	s.reset()
	for _, f := range msg.Flows {
		s.add(f.BPS, 1, f.Links)
	}
	slices.SortFunc(s.recs, comparePaths)
	w := 0
	for i := 1; i < len(s.recs); i++ {
		if r := s.recs[i]; slices.Equal(r.links, s.recs[w].links) {
			s.recs[w].bps = clampU32(uint64(s.recs[w].bps) + uint64(r.bps))
			if s.recs[w].count < ^uint16(0) {
				s.recs[w].count++
			}
		} else {
			w++
			s.recs[w] = r
		}
	}
	if len(s.recs) > 0 {
		s.recs = s.recs[:w+1]
	}
}

// readRecs appends the n wire records (bps:4, count:2, nlinks:1, links)
// at b[off:], a span the caller has validated with skipRecs.
func (s *recSet) readRecs(b []byte, off, n int, wide bool) {
	for i := 0; i < n; i++ {
		bps, count, nl := binary.BigEndian.Uint32(b[off:]), binary.BigEndian.Uint16(b[off+4:]), int(b[off+6])
		off += 7
		start := len(s.links)
		for j := 0; j < nl; j++ {
			if wide {
				s.links = append(s.links, binary.BigEndian.Uint16(b[off:]))
				off += 2
			} else {
				s.links = append(s.links, uint16(b[off]))
				off++
			}
		}
		s.recs = append(s.recs, pathRec{bps, count, s.links[start:len(s.links):len(s.links)]})
	}
}

// skipRecs bounds-checks n wire records at b[off:] and returns the
// offset past them; ok==false means the datagram is truncated.
func skipRecs(b []byte, off, n int, wide bool) (int, bool) {
	idw := idWidth(wide)
	for i := 0; i < n; i++ {
		if off+7 > len(b) {
			return 0, false
		}
		off += 7 + idw*int(b[off+6])
		if off > len(b) {
			return 0, false
		}
	}
	return off, true
}

// appendRecs encodes records in the wire form readRecs parses.
func appendRecs(buf []byte, recs []pathRec, wide bool, sat *metrics.Counter) []byte {
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint32(buf, r.bps)
		buf = binary.BigEndian.AppendUint16(buf, r.count)
		buf = appendLinks(buf, r.links, wide, sat)
	}
	return buf
}

// recsWireSize is the exact number of bytes appendRecs produces.
func recsWireSize(recs []pathRec, wide bool) int {
	size, idw := 7*len(recs), idWidth(wide)
	for _, r := range recs {
		size += idw * min(len(r.links), 0xFF)
	}
	return size
}

// ---- liveness ----

// liveness is the failure detector Delta and Tree share: it watches the
// peers a node expects traffic from and suspects any that stay silent
// for more than suspectAfter of the node's own publish ticks. Publishes
// are the node's only clock — one per emulation period — so thresholds
// are counted in periods without the node knowing the period length.
// Suspicion is sticky until the suspect is heard from again (suspects
// stay off the watch list, so they cannot be re-suspected while dead);
// re-admission is the caller's signal to heal protocol state. All state
// transitions are driven by the deterministic publish/receive sequence,
// preserving the simulation's reproducibility.
type liveness struct {
	suspectAfter int
	tick         int
	lastHeard    []int  // by peer: last tick traffic arrived; unwatched when negative
	suspects     []bool // by peer: currently suspected dead
	newly        []int  // advance's result, reused
}

func newLiveness(suspectAfter, numHosts int) *liveness {
	l := &liveness{
		suspectAfter: suspectAfter,
		lastHeard:    make([]int, numHosts),
		suspects:     make([]bool, numHosts),
	}
	for h := range l.lastHeard {
		l.lastHeard[h] = -1
	}
	return l
}

// watch starts monitoring a peer, granting it a full suspectAfter grace
// window from now. Watching an already-watched peer keeps its deadline.
func (l *liveness) watch(host int) {
	if l.lastHeard[host] < 0 && !l.suspects[host] {
		l.lastHeard[host] = l.tick
	}
}

// unwatch stops monitoring a peer (it left the node's overlay
// neighborhood); an existing suspicion is kept until the peer is heard.
func (l *liveness) unwatch(host int) {
	l.lastHeard[host] = -1
}

// heard records traffic from a peer. It reports true when the peer was
// suspected dead — the caller must then re-admit it (re-add to the
// overlay, schedule a full report, ...).
func (l *liveness) heard(host int) bool {
	if l.suspects[host] {
		l.suspects[host] = false
		return true
	}
	if l.lastHeard[host] >= 0 {
		l.lastHeard[host] = l.tick
	}
	return false
}

// advance moves the publish clock one period and returns the watched
// peers newly suspected dead, in ascending host order (deterministic).
// The result is valid until the next advance.
func (l *liveness) advance() []int {
	l.tick++
	l.newly = l.newly[:0]
	for h, last := range l.lastHeard {
		if last >= 0 && l.tick-last > l.suspectAfter {
			l.lastHeard[h] = -1
			l.suspects[h] = true
			l.newly = append(l.newly, h)
		}
	}
	return l.newly
}

// suspected reports whether a peer is currently suspected dead.
func (l *liveness) suspected(host int) bool { return l.suspects[host] }

// appendSuspects appends the current suspects in ascending host order.
func (l *liveness) appendSuspects(buf []int) []int {
	for h, s := range l.suspects {
		if s {
			buf = append(buf, h)
		}
	}
	return buf
}
