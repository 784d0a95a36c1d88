package dissem

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

// Versioned wire codec for Tree aggregate datagrams.
//
// Tree buys its ~N/log N datagram reduction by forwarding near-global
// state on interior edges, which made its naive fixed-width encoding pay
// roughly 2× Broadcast's bytes per period. Aggregate records are heavily
// redundant — every record of one origin shares that origin id and
// generation age, link ids are small integers, and path-sorted records
// share path prefixes — so the v1 format removes the redundancy instead
// of shipping it:
//
//	v0 (retired): [type][host:2][n:2] n×(origin:2, bps:4, count:2,
//	              ageµs:4, nlinks:1, links: 1 or 2 bytes each)
//	v1:           [type][0xC1][host:2][ngroups uvarint] groups, where
//	  group  = origin+1 uvarint (0 ⇒ MergedOrigin)
//	           age uvarint        (units of 1024 µs before the send time)
//	           nrec<<1|hasCounts uvarint
//	           nrec × record
//	  record = bps uvarint
//	           count uvarint      (only when hasCounts; all-ones groups omit it)
//	           nshared<<4|nnew    (one byte; nshared = links shared with the
//	                               previous record's path prefix, resets per
//	                               group; 0xFF escapes to two uvarints when
//	                               either exceeds 14)
//	           nnew × link id uvarint
//
// Records are grouped by (origin, quantized age) — all flows of one
// report share both — in (origin, age) order, path-sorted within the
// group, so the encoding is canonical and deterministic. Link ids are
// uvarints, which also makes v1 independent of the 1-vs-2-byte link-id
// width negotiation (Config.Wide) that v0 inherited from the paper's
// metadata format.
//
// Version negotiation: byte 1 of a v0 datagram was the high byte of the
// sender's host id; a versioned datagram marks byte 1 with the 0xC0 mask
// plus the version number. No v0 sender exists any more (every node of a
// deployment runs this code), so there is one decoder: a datagram whose
// byte 1 is not the v1 marker — an unmarked v0 body or a future version —
// is rejected and counted in Stats.BadVersion, not silently dropped, so a
// mixed-version deployment degrades observably instead of corrupting
// views.

// treeWireVersion is the tree codec version this package encodes.
const treeWireVersion = 1

// treeVerMask marks byte 1 of a tree datagram as a version byte rather
// than the high byte of a v0 host id.
const treeVerMask byte = 0xC0

// treeAgeUnit is the v1 age quantum. Ages only feed the staleness
// histogram and the consumer's "older than 1.5 periods ⇒ greedy" cut,
// which operate at tens-of-milliseconds scale; quantizing to ~8 ms keeps
// the common ages (0, one period, two periods) one-byte uvarints *and*
// collapses the few-ms spread that relay hops add into one group per
// (origin, period) — per-group headers are the dominant overhead on fat
// interior datagrams. Quantization floors, so a record can only look
// marginally fresher — the conservative direction, same as network
// delay — and the ~8 ms error is well inside the 25 ms gap between the
// period-aligned age clusters and the 1.5-period greedy cut.
const treeAgeUnit = 8192 * time.Microsecond

// readUvarint decodes one uvarint at b[off:], rejecting truncation and
// 64-bit overflow. Non-minimal encodings decode like the standard
// library's (the encoder never emits them; decoders treat them as
// equivalent, not as errors).
func readUvarint(b []byte, off int) (uint64, int, bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, false
	}
	return v, off + n, true
}

// treeOriginEnc is the canonical group sort key: MergedOrigin first
// (encoded 0), then origins ascending.
func treeOriginEnc(origin uint16) uint64 {
	if origin == MergedOrigin {
		return 0
	}
	return uint64(origin) + 1
}

// aggRec is one aggregated flow record: the record itself and what
// merging and the codec need besides.
//
//kollaps:wire
type aggRec struct {
	// rec is the record: summed usage (saturating), the number of flows
	// summed, and the path. It is an array of one so that a view lends
	// it in place (rec[:]).
	rec    [1]metadata.FlowRecord
	origin uint16        // reporting host, MergedOrigin when aggregated
	ts     time.Duration // oldest origin generation time merged in
	prefix uint64        // pathPrefix(rec[0].Links), so most path comparisons never load links
}

// newAggRec wraps one record of origin's, generated at ts.
func newAggRec(origin uint16, ts time.Duration, r metadata.FlowRecord) aggRec {
	return aggRec{rec: [1]metadata.FlowRecord{r}, origin: origin, ts: ts, prefix: pathPrefix(r.Links)}
}

// pathPrefix packs a path's first four link ids, zero-padded, so that
// differing prefixes order as their paths do (a missing id sorts first,
// as a proper prefix must); equal prefixes decide nothing.
func pathPrefix(links []uint16) uint64 {
	var p uint64
	for i := 0; i < 4; i++ {
		p <<= 16
		if i < len(links) {
			p |= uint64(links[i])
		}
	}
	return p
}

// treeReport is one aggregate as a node holds it: records in path order,
// their link lists pointing into one arena, both recycled.
type treeReport struct {
	recs  []aggRec
	links []uint16
	held  bool
	at    time.Duration // arrival (virtual) time
}

// compareAggPaths orders records by path.
func compareAggPaths(a, b aggRec) int {
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix)
	}
	return slices.Compare(a.rec[0].Links, b.rec[0].Links)
}

// treeCodec is the scratch one node's merges and encodes run in.
type treeCodec struct {
	merged []aggRec
	parts  [][]aggRec // the next merge's inputs, consumed by it
	order  []treeGroupRef
	buf    []byte
}

// treeGroupRef places one record in the wire's group order.
type treeGroupRef struct {
	originEnc uint64
	ageQ      uint64
	idx       int // position in the path-sorted input
}

func compareGroupRefs(a, b treeGroupRef) int {
	if a.originEnc != b.originEnc {
		return cmp.Compare(a.originEnc, b.originEnc)
	}
	if a.ageQ != b.ageQ {
		return cmp.Compare(a.ageQ, b.ageQ)
	}
	return cmp.Compare(a.idx, b.idx)
}

// merge merges the path-sorted aggregates queued in c.parts into one
// path-sorted aggregate, records sharing a path folded into one, and
// empties the queue. The result (whose link lists still point into the
// parts) is valid until the codec's next merge.
func (c *treeCodec) merge() []aggRec {
	out := c.merged[:0]
	for {
		// The part whose next record sorts first; there are few (a node's
		// children plus two), so a scan beats a heap.
		best := -1
		for i, p := range c.parts {
			if len(p) > 0 && (best < 0 || compareAggPaths(p[0], c.parts[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := c.parts[best][0]
		c.parts[best] = c.parts[best][1:]
		if last := len(out) - 1; last >= 0 && compareAggPaths(out[last], r) == 0 {
			a := &out[last]
			s, f := &a.rec[0], &r.rec[0]
			s.BPS = clampU32(uint64(s.BPS) + uint64(f.BPS))
			// Saturate: at deployment scale the per-path flow count can
			// exceed 16 bits, and silent wraparound would hand the min-max
			// solver a tiny weight for the heaviest aggregate.
			s.Count = wire.U16(int(s.Count)+int(f.Count), nil)
			if r.ts < a.ts {
				a.ts = r.ts
			}
			if a.origin != r.origin {
				a.origin = MergedOrigin
			}
			continue
		}
		out = append(out, r)
	}
	c.merged, c.parts = out, c.parts[:0]
	return out
}

// encode serializes an up or down message in the v1 grouped format into
// the codec's buffer (valid until its next encode). recs must be
// path-sorted (merge output). Aggregates larger than the 16-bit record
// budget are clamped — the drop is deterministic (path order) and counted
// in stats.
//
// The body is varints, so its size is only known once written: it is
// built here and copied into an exact-size frame by Stats.send, which is
// cheaper than sizing a frame for the worst case.
func (c *treeCodec) encode(typ byte, host int, now time.Duration, recs []aggRec, stats *Stats) []byte {
	if len(recs) > maxWireRecords {
		stats.TruncatedRecords.Add(int64(len(recs) - maxWireRecords))
		recs = recs[:maxWireRecords]
	}

	// Order the records by (origin, quantized age) group, keeping the
	// path-sorted input order within each group.
	c.order = c.order[:0]
	for i := range recs {
		age := now - recs[i].ts
		if age < 0 {
			age = 0
		}
		ageQ := uint64(age / treeAgeUnit)
		if ageQ > uint64(^uint32(0)) {
			ageQ = uint64(^uint32(0))
		}
		c.order = append(c.order, treeGroupRef{treeOriginEnc(recs[i].origin), ageQ, i})
	}
	slices.SortFunc(c.order, compareGroupRefs)
	ngroups := 0
	for i, o := range c.order {
		if i == 0 || o.originEnc != c.order[i-1].originEnc || o.ageQ != c.order[i-1].ageQ {
			ngroups++
		}
	}

	buf := append(c.buf[:0], typ, treeVerMask|treeWireVersion)
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(host, &stats.Saturated))
	buf = binary.AppendUvarint(buf, uint64(ngroups))
	for g := c.order; len(g) > 0; {
		// One group: the run of refs sharing g[0]'s key.
		n, counts := 0, false
		for n < len(g) && g[n].originEnc == g[0].originEnc && g[n].ageQ == g[0].ageQ {
			counts = counts || recs[g[n].idx].rec[0].Count != 1
			n++
		}
		buf = binary.AppendUvarint(buf, g[0].originEnc)
		buf = binary.AppendUvarint(buf, g[0].ageQ)
		flag := uint64(n) << 1
		if counts {
			flag |= 1
		}
		buf = binary.AppendUvarint(buf, flag)
		var prev []uint16
		for _, ref := range g[:n] {
			r := &recs[ref.idx].rec[0]
			buf = binary.AppendUvarint(buf, uint64(r.BPS))
			if counts {
				buf = binary.AppendUvarint(buf, uint64(r.Count))
			}
			shared := 0
			for shared < len(prev) && shared < len(r.Links) && prev[shared] == r.Links[shared] {
				shared++
			}
			nnew := len(r.Links) - shared
			if shared < 15 && nnew < 15 {
				buf = append(buf, wire.U8(shared<<4|nnew, nil))
			} else {
				buf = append(buf, 0xFF)
				buf = binary.AppendUvarint(buf, uint64(shared))
				buf = binary.AppendUvarint(buf, uint64(nnew))
			}
			for _, l := range r.Links[shared:] {
				buf = binary.AppendUvarint(buf, uint64(l))
			}
			prev = r.Links
		}
		g = g[n:]
	}
	c.buf = buf
	return buf
}

// decodeTree parses a tree datagram into dst (reusing its storage),
// reconstructing record generation times from the encoded ages relative
// to the arrival time (the in-sim clocks are synchronized; network delay
// only ever makes records look marginally fresher than they are) and
// leaving the records in path order, ready to merge. A datagram that
// does not carry the v1 marker — a retired v0 body, an unknown future
// version — is rejected and counted in stats.BadVersion, a visible signal
// of a mixed-version deployment; a truncated or malformed body counts
// stats.BadDatagram. On failure dst holds garbage, which is why nodes
// decode into scratch.
func decodeTree(payload []byte, now time.Duration, dst *treeReport, stats *Stats) bool {
	if len(payload) < 2 {
		stats.BadDatagram.Inc()
		return false
	}
	if payload[1] != treeVerMask|treeWireVersion {
		stats.BadVersion.Inc()
		return false
	}
	if !decodeTreeV1(payload, now, dst) {
		stats.BadDatagram.Inc()
		return false
	}
	slices.SortFunc(dst.recs, compareAggPaths)
	return true
}

// decodeTreeV1 parses the grouped varint body.
func decodeTreeV1(payload []byte, now time.Duration, dst *treeReport) bool {
	if len(payload) < 5 {
		return false
	}
	dst.recs, dst.links = dst.recs[:0], dst.links[:0]
	off := 4
	ngroups, off, ok := readUvarint(payload, off)
	if !ok || ngroups > uint64(maxWireRecords) {
		return false
	}
	for g := uint64(0); g < ngroups; g++ {
		var originEnc, ageQ, flag uint64
		if originEnc, off, ok = readUvarint(payload, off); !ok || originEnc > 0x10000 {
			return false
		}
		origin := MergedOrigin
		if originEnc != 0 {
			origin = uint16(originEnc - 1)
		}
		if ageQ, off, ok = readUvarint(payload, off); !ok || ageQ > uint64(^uint32(0)) {
			return false
		}
		ts := now - time.Duration(ageQ)*treeAgeUnit
		if flag, off, ok = readUvarint(payload, off); !ok {
			return false
		}
		counts := flag&1 != 0
		nrec := flag >> 1
		if nrec > uint64(maxWireRecords) || len(dst.recs)+int(nrec) > maxWireRecords {
			return false
		}
		var prev []uint16
		for i := uint64(0); i < nrec; i++ {
			var bps, count, nshared, nnew uint64
			if bps, off, ok = readUvarint(payload, off); !ok || bps > uint64(^uint32(0)) {
				return false
			}
			count = 1
			if counts {
				if count, off, ok = readUvarint(payload, off); !ok || count > uint64(^uint16(0)) {
					return false
				}
			}
			if off >= len(payload) {
				return false
			}
			if nib := payload[off]; nib != 0xFF {
				nshared, nnew = uint64(nib>>4), uint64(nib&0x0F)
				off++
			} else {
				off++
				if nshared, off, ok = readUvarint(payload, off); !ok {
					return false
				}
				if nnew, off, ok = readUvarint(payload, off); !ok {
					return false
				}
			}
			if nshared > uint64(len(prev)) || nshared+nnew > 255 {
				return false
			}
			start := len(dst.links)
			dst.links = append(dst.links, prev[:nshared]...)
			for j := uint64(0); j < nnew; j++ {
				var l uint64
				if l, off, ok = readUvarint(payload, off); !ok || l > uint64(^uint16(0)) {
					return false
				}
				dst.links = append(dst.links, uint16(l))
			}
			prev = dst.links[start:len(dst.links):len(dst.links)]
			dst.recs = append(dst.recs, newAggRec(origin, ts, metadata.FlowRecord{
				BPS:   wire.U32(bps, nil),
				Count: wire.U16(int(count), nil),
				Links: prev,
			}))
		}
	}
	return off == len(payload)
}
