package dissem

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/metadata"
)

// Tests for the versioned tree wire codec: round-trip fidelity, the
// version contract (anything but v1 — the retired v0, a future version —
// rejected and counted), and the compression target the codec exists
// for: Tree at N=32 must pay at most 1.2× Broadcast's bytes per period,
// down from the retired fixed-width format's ~2.2×.

// codecRecs is a representative aggregate: several origins, one merged
// record, shared path prefixes, counts above 1, mixed ages.
func codecRecs(now time.Duration) []aggRec {
	return mergeRecs([]aggRec{
		agg(0, 2_900_000, 1, now, []uint16{1, 0, 2}),
		agg(0, 1_400_000, 1, now, []uint16{3, 0, 4}),
		agg(7, 2_100_000, 3, now-50*time.Millisecond, []uint16{300, 0, 301}),
		agg(7, 900, 1, now-50*time.Millisecond, []uint16{300, 0, 302}),
		agg(3, 5, 2, now-100*time.Millisecond, []uint16{9}),
		agg(MergedOrigin, 4_000_000_000, 40_000, now-time.Millisecond, []uint16{65535, 0}),
	})
}

// sortRecs puts decoded records in a canonical order for comparison
// (the wire's group order differs from mergeRecs' path order).
func sortRecs(recs []aggRec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].origin != recs[j].origin {
			return recs[i].origin < recs[j].origin
		}
		return pathKey(recs[i].rec[0].Links) < pathKey(recs[j].rec[0].Links)
	})
}

func TestTreeCodecRoundTrip(t *testing.T) {
	now := 3 * time.Second
	in := codecRecs(now)
	var stats Stats
	raw := encodeTree(msgTreeUp, 5, now, in, &stats)
	if raw[1] != treeVerMask|treeWireVersion {
		t.Fatalf("encoded version byte = %#x, want %#x", raw[1], treeVerMask|treeWireVersion)
	}
	if from := binary.BigEndian.Uint16(raw[2:]); from != 5 {
		t.Fatalf("encoded sender = %d, want 5", from)
	}
	out, ok := decodeTreeRecs(raw, now, &stats)
	if !ok {
		t.Fatal("v1 datagram did not decode")
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	sortRecs(in)
	sortRecs(out)
	for i := range in {
		if out[i].origin != in[i].origin || !reflect.DeepEqual(out[i].rec, in[i].rec) {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
		// Ages are quantized to the 1024 µs unit, flooring (records may
		// only look fresher, never staler).
		if d := out[i].ts - in[i].ts; d < 0 || d >= treeAgeUnit {
			t.Fatalf("record %d: ts moved by %v, want [0, %v)", i, d, treeAgeUnit)
		}
	}
	if stats.BadVersion.Value() != 0 || stats.TruncatedRecords.Value() != 0 {
		t.Fatalf("counters moved on a clean round trip: bad_version=%d truncated=%d",
			stats.BadVersion.Value(), stats.TruncatedRecords.Value())
	}
}

// TestTreeCodecLegacyRejected: the pre-v1 fixed-width format has no
// sender left, so its decoder is gone; a v0 body — byte 1 is the high
// byte of a host id, not a version marker — must be rejected whole and
// counted as a bad version, both by decodeTree and through a live node's
// Receive.
func TestTreeCodecLegacyRejected(t *testing.T) {
	now := 3 * time.Second
	// [type][host:2][n:2] n×(origin:2, bps:4, count:2, ageµs:4, nlinks:1, links:2 each)
	legacy := []byte{msgTreeUp, 0, 1, 0, 1}
	legacy = binary.BigEndian.AppendUint16(legacy, 1)
	legacy = binary.BigEndian.AppendUint32(legacy, 1000)
	legacy = binary.BigEndian.AppendUint16(legacy, 1)
	legacy = binary.BigEndian.AppendUint32(legacy, 0)
	legacy = append(legacy, 2, 0, 4, 0, 5)

	var stats Stats
	if _, ok := decodeTreeRecs(legacy, now, &stats); ok {
		t.Fatal("legacy v0 datagram decoded")
	}
	if got := stats.BadVersion.Value(); got != 1 {
		t.Fatalf("BadVersion = %d after one v0 datagram, want 1", got)
	}

	node, err := New(Config{Kind: Tree, NumHosts: 4, Fanout: 4, Wide: true}, 0, discardTr{})
	if err != nil {
		t.Fatal(err)
	}
	node.Receive(now, stats.seal(legacy))
	if v := node.RemoteFlows(now, time.Second); len(v) != 0 {
		t.Fatalf("view after legacy up = %+v, want it rejected", v)
	}
	if s := node.Stats(); s.BadVersion.Value() != 1 || s.BadDatagram.Value() != 0 {
		t.Fatalf("node counted bad_version=%d bad_datagram=%d for a v0 datagram, want 1 and 0",
			s.BadVersion.Value(), s.BadDatagram.Value())
	}
}

// TestTreeCodecFutureVersionRejected: an unknown future version must be
// rejected and *counted* — Stats.BadVersion is the observable footprint
// of a mixed-version deployment, not a silent drop.
func TestTreeCodecFutureVersionRejected(t *testing.T) {
	now := 3 * time.Second
	var stats Stats
	raw := encodeTree(msgTreeUp, 1, now, codecRecs(now), &stats)
	future := append([]byte(nil), raw...)
	future[1] = treeVerMask | (treeWireVersion + 1)
	if _, ok := decodeTreeRecs(future, now, &stats); ok {
		t.Fatal("future-version datagram decoded")
	}
	if got := stats.BadVersion.Value(); got != 1 {
		t.Fatalf("BadVersion = %d after one future-version datagram, want 1", got)
	}

	// Through a live node: view unchanged, counter on the node moves.
	node, err := New(Config{Kind: Tree, NumHosts: 4, Fanout: 4, Wide: true}, 0, discardTr{})
	if err != nil {
		t.Fatal(err)
	}
	up := encodeTree(msgTreeUp, 1, now, []aggRec{
		agg(1, 1000, 1, now, []uint16{4, 5}),
	}, &stats)
	node.Receive(now, stats.seal(up))
	before := node.RemoteFlows(now, time.Second)
	if len(before) == 0 {
		t.Fatal("sealed v1 datagram not adopted")
	}
	futureUp := append([]byte(nil), up...)
	futureUp[1] = treeVerMask | 0x3F
	node.Receive(now, stats.seal(futureUp))
	if got := node.Stats().BadVersion.Value(); got != 1 {
		t.Fatalf("node BadVersion = %d, want 1", got)
	}
	after := node.RemoteFlows(now, time.Second)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("future-version datagram changed the view:\n%+v\n%+v", before, after)
	}
}

// TestTreeCodecTruncationStillCounted: the 16-bit record budget clamp
// survives the codec change (regression guard for the PR 4 fix).
func TestTreeCodecTruncationStillCounted(t *testing.T) {
	now := time.Second
	recs := make([]aggRec, maxWireRecords+7)
	for i := range recs {
		recs[i] = agg(1, uint32(i), 1, now, []uint16{uint16(i / 256), uint16(i % 256)})
	}
	var stats Stats
	raw := encodeTree(msgTreeUp, 1, now, recs, &stats)
	if got := stats.TruncatedRecords.Value(); got != 7 {
		t.Fatalf("TruncatedRecords = %d, want 7", got)
	}
	out, ok := decodeTreeRecs(raw, now, &stats)
	if !ok || len(out) != maxWireRecords {
		t.Fatalf("clamped datagram decoded %d records, ok=%v; want %d", len(out), ok, maxWireRecords)
	}
}

// benchWorkload mirrors the failover benchmark's dumbbell at N managers:
// 4 flows per host, every path [access, bottleneck, server-access] with
// wide link ids, and usage jittering each round the way measured CBR
// rates do (whole packets per period), so Delta-style staleness cannot
// mask bytes.
func benchWorkload(n, round int) []*metadata.Message {
	msgs := make([]*metadata.Message, n)
	pairs := 4 * n
	for h := 0; h < n; h++ {
		m := hostMsg(h)
		for i := h; i < pairs; i += n {
			bps := uint32(1_400_000 + (i%4)*500_000 + ((round+i)%3)*160)
			m.Flows = append(m.Flows, metadata.FlowRecord{
				BPS:   bps,
				Links: []uint16{uint16(1 + 2*i), 0, uint16(2 + 2*i)},
			})
		}
		msgs[h] = m
	}
	return msgs
}

// TestTreeCompressedBytesVsBroadcast is the acceptance bound: at N=32 on
// the benchmark workload, compressed Tree must spend at most 1.2×
// Broadcast's control bytes per period (the legacy format paid ~2.2×)
// while keeping its ~N/log N datagram advantage.
func TestTreeCompressedBytesVsBroadcast(t *testing.T) {
	const n = 32
	const rounds = 20
	perPeriod := func(kind Kind) (bytes, dgrams int64) {
		h := newHarness(t, Config{Kind: kind, Fanout: 4, Wide: true}, n)
		for r := 0; r < 5; r++ {
			h.round(foPeriod, benchWorkload(n, r))
		}
		h.sent = nil
		for r := 0; r < rounds; r++ {
			h.round(foPeriod, benchWorkload(n, 5+r))
		}
		for _, s := range h.sent {
			bytes += int64(len(s.payload))
		}
		return bytes / rounds, int64(len(h.sent)) / rounds
	}
	bBytes, bDgrams := perPeriod(Broadcast)
	tBytes, tDgrams := perPeriod(Tree)
	ratio := float64(tBytes) / float64(bBytes)
	t.Logf("per period: broadcast %d B / %d dgrams, tree %d B / %d dgrams (ratio %.3f×)", bBytes, bDgrams, tBytes, tDgrams, ratio)
	if ratio > 1.2 {
		t.Fatalf("compressed tree spends %.3f× broadcast's bytes per period (%d vs %d), want <= 1.2×", ratio, tBytes, bBytes)
	}
	if tDgrams*4 >= bDgrams {
		t.Fatalf("tree datagram advantage lost: %d vs broadcast's %d per period", tDgrams, bDgrams)
	}
}

// TestTreeCodecDeterministic: identical inputs must produce identical
// bytes — group order, intra-group order and quantization are all
// canonical.
func TestTreeCodecDeterministic(t *testing.T) {
	now := 2 * time.Second
	var stats Stats
	a := encodeTree(msgTreeDown, 3, now, codecRecs(now), &stats)
	b := encodeTree(msgTreeDown, 3, now, codecRecs(now), &stats)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("encoder not deterministic:\n%x\n%x", a, b)
	}
}
