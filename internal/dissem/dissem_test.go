package dissem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/metrics"
)

// harness wires N nodes of one strategy together with a synchronous
// in-memory transport; drop lets tests inject loss per (from, to) pair
// and dead marks killed managers (muted publish, datagrams dropped both
// ways — the same semantics core.Runtime.KillManager enforces).
type harness struct {
	cfg   Config
	nodes []Node
	now   time.Duration
	drop  func(from, to int, payload []byte) bool
	dead  map[int]bool
	sent  []sentRec
	// pub and pubLinks are the storage round publishes every report from,
	// reused and overwritten like a Manager's report arenas.
	pub      metadata.Message
	pubLinks []uint16
}

type sentRec struct {
	from, to int
	payload  []byte
}

type harnessTr struct {
	h    *harness
	from int
}

// SendTo delivers a copy of the datagram and overwrites the copy once
// Receive returns: a frame is dead when Receive returns, so a node that
// keeps a slice of one reads garbage from then on.
func (t harnessTr) SendTo(host int, payload []byte) {
	t.h.sent = append(t.h.sent, sentRec{t.from, host, payload})
	if t.h.dead[t.from] || t.h.dead[host] {
		return
	}
	if t.h.drop != nil && t.h.drop(t.from, host, payload) {
		return
	}
	in := bytes.Clone(payload)
	t.h.nodes[host].Receive(t.h.now, in)
	for i := range in {
		in[i] = 0xA5
	}
}

func newHarness(t *testing.T, cfg Config, n int) *harness {
	t.Helper()
	cfg.NumHosts = n
	h := &harness{cfg: cfg, dead: make(map[int]bool)}
	for i := 0; i < n; i++ {
		node, err := New(cfg, i, harnessTr{h, i})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		h.nodes = append(h.nodes, node)
	}
	return h
}

// kill marks a manager dead: it stops publishing and its datagrams are
// dropped both ways.
func (h *harness) kill(host int) { h.dead[host] = true }

// restart revives a killed manager with a fresh node — like a restarted
// process it remembers nothing.
func (h *harness) restart(t *testing.T, host int) {
	t.Helper()
	node, err := New(h.cfg, host, harnessTr{h, host})
	if err != nil {
		t.Fatalf("restart New(%d): %v", host, err)
	}
	h.nodes[host] = node
	delete(h.dead, host)
}

// round advances time by period and publishes each live host's report in
// host order, as the emulation loop does — from storage the harness
// reuses, as Manager.collectLocal does, and overwrites as soon as Publish
// returns: a strategy must copy what it keeps of a published report.
func (h *harness) round(period time.Duration, msgs []*metadata.Message) {
	h.now += period
	for i, n := range h.nodes {
		if !h.dead[i] {
			n.Publish(h.now, h.stage(msgs[i]))
			h.scribble()
		}
	}
}

// stage copies msg into the harness's publish storage (nil stays nil).
func (h *harness) stage(msg *metadata.Message) *metadata.Message {
	if msg == nil {
		return nil
	}
	h.pub.Host, h.pub.Flows, h.pubLinks = msg.Host, h.pub.Flows[:0], h.pubLinks[:0]
	for _, f := range msg.Flows {
		start := len(h.pubLinks)
		h.pubLinks = append(h.pubLinks, f.Links...)
		h.pub.Flows = append(h.pub.Flows, metadata.FlowRecord{BPS: f.BPS, Links: h.pubLinks[start:len(h.pubLinks):len(h.pubLinks)]})
	}
	return &h.pub
}

// scribble overwrites the publish storage.
func (h *harness) scribble() {
	h.pub.Host = 0xFFFF
	for i := range h.pub.Flows {
		h.pub.Flows[i].BPS = 0xDEADBEEF
	}
	links := h.pubLinks[:cap(h.pubLinks)]
	for i := range links {
		links[i] = 0xBEEF
	}
}

// hostMsg builds a report with one flow per (bps, links) pair.
func hostMsg(host int, flows ...metadata.FlowRecord) *metadata.Message {
	return &metadata.Message{Host: uint16(host), Flows: flows}
}

// pathKey packs a link list into a map key, for tests that index views by
// path; keyLinks reverses it. The keys are fixed-width big-endian, so
// sorting them orders paths exactly as the package's record tables do.
func pathKey(links []uint16) string {
	b := make([]byte, 2*len(links))
	for i, l := range links {
		binary.BigEndian.PutUint16(b[2*i:], l)
	}
	return string(b)
}

func keyLinks(k string) []uint16 {
	links := make([]uint16, len(k)/2)
	for i := range links {
		links[i] = binary.BigEndian.Uint16([]byte(k[2*i : 2*i+2]))
	}
	return links
}

// agg is one aggregate record, built as a node builds its own.
func agg(origin uint16, bps uint32, count uint16, ts time.Duration, links []uint16) aggRec {
	return newAggRec(origin, ts, metadata.FlowRecord{BPS: bps, Count: count, Links: links})
}

// mergeRecs runs parts — path-sorted first, as a node holds them — through
// a fresh codec's merge.
func mergeRecs(parts ...[]aggRec) []aggRec {
	var c treeCodec
	for _, p := range parts {
		p = slices.Clone(p)
		slices.SortFunc(p, compareAggPaths)
		c.parts = append(c.parts, p)
	}
	return c.merge()
}

// encodeTree is a fresh codec's encode, copied out of its buffer.
func encodeTree(typ byte, host int, now time.Duration, recs []aggRec, stats *Stats) []byte {
	var c treeCodec
	return slices.Clone(c.encode(typ, host, now, recs, stats))
}

// decodeTreeRecs is decodeTree into fresh storage.
func decodeTreeRecs(payload []byte, now time.Duration, stats *Stats) ([]aggRec, bool) {
	var r treeReport
	if !decodeTree(payload, now, &r, stats) {
		return nil, false
	}
	return r.recs, true
}

// viewTotals sums BPS by path key over a view, also summing counts.
func viewTotals(view []RemoteFlow) map[string][2]uint64 {
	m := make(map[string][2]uint64)
	for _, rf := range view {
		k := pathKey(rf.Links)
		v := m[k]
		v[0] += uint64(rf.BPS)
		v[1] += uint64(rf.Count)
		m[k] = v
	}
	return m
}

// unsealed strips the integrity envelope from a captured datagram so
// tests can keep asserting on the strategies' inner wire formats (the
// first inner byte is the message type). A frame open rejects returns
// nil.
func unsealed(payload []byte) []byte {
	inner, _, ok := (&Stats{}).open(payload)
	if !ok {
		return nil
	}
	return inner
}

// seal wraps a copy of one inner payload in a stamped envelope, for tests
// that hand-craft datagrams.
func (s *Stats) seal(inner []byte) []byte {
	frame := append(newFrame(nil, len(inner)), inner...)
	s.stamp(frame)
	return frame
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"broadcast": Broadcast, "": Broadcast, "delta": Delta, "tree": Tree, "gossip": Gossip} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	for _, k := range Kinds() {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v, want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("epidemic"); err == nil {
		t.Error("ParseKind(epidemic) should fail")
	}
	if _, err := New(Config{Kind: Kind(99), NumHosts: 2}, 0, nil); err == nil {
		t.Error("New with bad kind should fail")
	}
	if _, err := New(Config{Kind: Tree, Fanout: 1, NumHosts: 4}, 0, harnessTr{}); err == nil {
		t.Error("New tree with fanout 1 should fail")
	}
	if _, err := New(Config{NumHosts: 2}, 5, nil); err == nil {
		t.Error("New with out-of-range host should fail")
	}
	// NumHosts left unset (0) used to accept any host index, and Tree
	// then computed a bogus parent; it must be rejected for every host.
	for _, host := range []int{0, 1, 7} {
		for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
			if _, err := New(Config{Kind: kind}, host, harnessTr{}); err == nil {
				t.Errorf("New(%v) with NumHosts=0, host=%d should fail", kind, host)
			}
		}
	}
	if _, err := New(Config{NumHosts: 3}, -1, harnessTr{}); err == nil {
		t.Error("New with negative host should fail")
	}
	// Zero knobs select the defaults; negative ones used to as well,
	// silently. They are errors naming the field and the value.
	for field, cfg := range map[string]Config{
		"ResyncEvery":  {Kind: Delta, ResyncEvery: -7},
		"AckEvery":     {Kind: Delta, AckEvery: -7},
		"Fanout":       {Kind: Tree, Fanout: -7},
		"SuspectAfter": {Kind: Gossip, SuspectAfter: -7},
	} {
		cfg.NumHosts = 4
		if _, err := New(cfg, 0, harnessTr{}); err == nil || !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), "-7") {
			t.Errorf("New with %s = -7: got %v, want an error naming both", field, err)
		}
	}
	// Host ids ride 16-bit wire fields and MergedOrigin reserves 0xFFFF:
	// 65535 managers is the cap, not the envelope's marker space.
	if err := (Config{NumHosts: 65535}).Validate(); err != nil {
		t.Errorf("Validate(NumHosts=65535) = %v, want nil", err)
	}
	if err := (Config{NumHosts: 65536}).Validate(); err == nil {
		t.Error("Validate(NumHosts=65536) = nil, want an error")
	}
}

// TestMergeRecsCountSaturates: merging aggregates whose summed flow count
// exceeds 16 bits must saturate, not wrap — a wrapped count mis-weights
// the min-max solver (a 65537-flow aggregate would claim weight 1).
func TestMergeRecsCountSaturates(t *testing.T) {
	links := []uint16{4, 5}
	parts := [][]aggRec{
		{agg(1, 1000, 40_000, 1, links)},
		{agg(2, 2000, 40_000, 2, links)},
	}
	out := mergeRecs(parts...)
	if len(out) != 1 {
		t.Fatalf("mergeRecs returned %d records, want 1", len(out))
	}
	if got := out[0].rec[0].Count; got != ^uint16(0) {
		t.Fatalf("merged count = %d, want saturation at %d (wrapped!)", got, ^uint16(0))
	}
	if out[0].rec[0].BPS != 3000 || out[0].origin != MergedOrigin || out[0].ts != 1 {
		t.Fatalf("merged record = %+v", out[0])
	}
	// Below the limit, counts still add exactly.
	parts[1][0].rec[0].Count = 3
	if got := mergeRecs(parts...)[0].rec[0].Count; got != 40_003 {
		t.Fatalf("merged count = %d, want 40003", got)
	}
}

// overflowMsg builds a report with more distinct flow paths than the
// wire's 16-bit record count can carry.
func overflowMsg(host, nflows int) *metadata.Message {
	msg := &metadata.Message{Host: uint16(host)}
	for i := 0; i < nflows; i++ {
		msg.Flows = append(msg.Flows, metadata.FlowRecord{
			BPS:   uint32(i + 1),
			Links: []uint16{uint16(i / 256), uint16(300 + i%256)},
		})
	}
	return msg
}

// TestDeltaWireOverflowClamped: a report with more than 65535 path
// aggregates used to wrap the record count, making the receiver reject
// the entire datagram as trailing garbage — the sender's whole view
// silently vanished. The encoder must clamp and count the drop.
func TestDeltaWireOverflowClamped(t *testing.T) {
	const period = 50 * time.Millisecond
	const nflows = maxWireRecords + 500
	h := newHarness(t, Config{Kind: Delta, Wide: true}, 2)
	h.round(period, []*metadata.Message{overflowMsg(0, nflows), hostMsg(1)})
	v := h.nodes[1].RemoteFlows(h.now, 3*period)
	if len(v) == 0 {
		t.Fatal("receiver rejected the oversized report outright (record count wrapped)")
	}
	if len(v) != maxWireRecords {
		t.Fatalf("receiver view has %d records, want clamp at %d", len(v), maxWireRecords)
	}
	if got := h.nodes[0].Stats().TruncatedRecords.Value(); got != 500 {
		t.Fatalf("TruncatedRecords = %d, want 500", got)
	}
}

// TestTreeWireOverflowClamped is the same regression through Tree's
// up-path encoder.
func TestTreeWireOverflowClamped(t *testing.T) {
	const period = 50 * time.Millisecond
	const nflows = maxWireRecords + 500
	h := newHarness(t, Config{Kind: Tree, Fanout: 2, Wide: true}, 2)
	h.round(period, []*metadata.Message{hostMsg(0), overflowMsg(1, nflows)})
	v := h.nodes[0].RemoteFlows(h.now, 3*period)
	if len(v) == 0 {
		t.Fatal("root rejected the oversized up aggregate outright (record count wrapped)")
	}
	if len(v) != maxWireRecords {
		t.Fatalf("root view has %d records, want clamp at %d", len(v), maxWireRecords)
	}
	if got := h.nodes[1].Stats().TruncatedRecords.Value(); got != 500 {
		t.Fatalf("TruncatedRecords = %d, want 500", got)
	}
}

func TestBroadcastWireMatchesPaperFormat(t *testing.T) {
	h := newHarness(t, Config{Kind: Broadcast}, 2)
	msg := hostMsg(0, metadata.FlowRecord{BPS: 5_000_000, Links: []uint16{1, 2}})
	h.round(50*time.Millisecond, []*metadata.Message{msg, hostMsg(1)})
	if len(h.sent) == 0 {
		t.Fatal("no datagrams sent")
	}
	// The paper's §4.2 report format rides verbatim inside the integrity
	// envelope: envelope header, then byte-identical metadata.AppendEncode.
	if got := h.sent[0].payload; len(got) < envHeaderLen || got[0] != envVersion {
		t.Fatalf("broadcast datagram not enveloped: % x", got)
	}
	if want := metadata.AppendEncode(nil, msg, false); !bytes.Equal(unsealed(h.sent[0].payload), want) {
		t.Fatalf("broadcast wire bytes differ from the paper's metadata format:\n%x\n%x", unsealed(h.sent[0].payload), want)
	}
}

func TestBroadcastViewAndExpiry(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Broadcast}, 3)
	msgs := []*metadata.Message{
		hostMsg(0, metadata.FlowRecord{BPS: 100, Links: []uint16{0}}),
		hostMsg(1, metadata.FlowRecord{BPS: 200, Links: []uint16{1}}),
		hostMsg(2, metadata.FlowRecord{BPS: 300, Links: []uint16{2}}),
	}
	h.round(period, msgs)
	view := h.nodes[0].RemoteFlows(h.now, 3*period)
	if len(view) != 2 || view[0].Origin != 1 || view[0].BPS != 200 || view[1].Origin != 2 || view[1].BPS != 300 {
		t.Fatalf("node 0 view = %+v", view)
	}
	// Datagrams: each of 3 hosts unicast to 2 peers.
	var sum int64
	for _, n := range h.nodes {
		sum += n.Stats().DatagramsSent.Value()
	}
	if sum != 6 {
		t.Fatalf("broadcast datagrams per round = %d, want 6", sum)
	}
	// No publishes for > maxAge: the view expires.
	h.now += 10 * period
	if view := h.nodes[0].RemoteFlows(h.now, 3*period); len(view) != 0 {
		t.Fatalf("stale view not expired: %+v", view)
	}
}

// TestPublishExpiresSilentPeers: Broadcast and Delta drop a silent
// peer's state on the node's own publish clock, once its last report
// predates the node's publish ExpireAfter ticks back, whatever horizon
// readers pass in between: a read at 0 hides the peer and keeps it, a
// read at an hour shows it exactly until the publish that expires it.
func TestPublishExpiresSilentPeers(t *testing.T) {
	const period = 50 * time.Millisecond
	for _, kind := range []Kind{Broadcast, Delta} {
		h := newHarness(t, Config{Kind: kind}, 3)
		msgs := []*metadata.Message{
			hostMsg(0, metadata.FlowRecord{BPS: 100, Links: []uint16{0}}),
			hostMsg(1, metadata.FlowRecord{BPS: 200, Links: []uint16{1}}),
			hostMsg(2, metadata.FlowRecord{BPS: 300, Links: []uint16{2}}),
		}
		h.round(period, msgs)
		h.kill(2)
		for r := 1; r <= ExpireAfter+1; r++ {
			h.round(period, msgs)
			h.nodes[0].RemoteFlows(h.now, 0)
			held := false
			for _, rf := range h.nodes[0].RemoteFlows(h.now, time.Hour) {
				held = held || rf.Origin == 2
			}
			if want := r <= ExpireAfter; held != want {
				t.Errorf("%v: %d periods after host 2's last report, held = %v, want %v", kind, r, held, want)
			}
		}
	}
}

func TestDeltaConvergesAndSuppresses(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 100}, 3)
	base := []*metadata.Message{
		hostMsg(0, metadata.FlowRecord{BPS: 10_000, Links: []uint16{0, 5}}),
		hostMsg(1, metadata.FlowRecord{BPS: 20_000, Links: []uint16{1, 5}}),
		hostMsg(2),
	}
	h.round(period, base)
	view := h.nodes[2].RemoteFlows(h.now, 3*period)
	if len(view) != 2 || view[0].BPS != 10_000 || view[1].BPS != 20_000 {
		t.Fatalf("converged view = %+v", view)
	}

	// A sub-epsilon wiggle must not grow anyone's view or change values,
	// and the diff datagrams must carry zero records (header only).
	h.sent = nil
	wiggle := []*metadata.Message{
		hostMsg(0, metadata.FlowRecord{BPS: 10_400, Links: []uint16{0, 5}}),
		hostMsg(1, metadata.FlowRecord{BPS: 19_800, Links: []uint16{1, 5}}),
		hostMsg(2),
	}
	h.round(period, wiggle)
	for _, s := range h.sent {
		p := unsealed(s.payload)
		if p[0] == msgDeltaDiff && len(p) != 17 {
			t.Fatalf("sub-epsilon diff carries %d bytes, want empty (17-byte header)", len(p))
		}
		if p[0] == msgDeltaFull {
			t.Fatal("unexpected full resync")
		}
	}
	view = h.nodes[2].RemoteFlows(h.now, 3*period)
	if len(view) != 2 || view[0].BPS != 10_000 || view[1].BPS != 20_000 {
		t.Fatalf("view after sub-epsilon wiggle = %+v", view)
	}

	// A beyond-epsilon change propagates; an ended flow is tombstoned.
	h.round(period, []*metadata.Message{
		hostMsg(0, metadata.FlowRecord{BPS: 40_000, Links: []uint16{0, 5}}),
		hostMsg(1), // flow ended
		hostMsg(2),
	})
	view = h.nodes[2].RemoteFlows(h.now, 3*period)
	if len(view) != 1 || view[0].Origin != 0 || view[0].BPS != 40_000 {
		t.Fatalf("view after change+tombstone = %+v", view)
	}
}

func TestDeltaLossRepairedByResync(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 4}, 2)
	msg := func(bps uint32) []*metadata.Message {
		return []*metadata.Message{hostMsg(0, metadata.FlowRecord{BPS: bps, Links: []uint16{3}}), hostMsg(1)}
	}
	h.round(period, msg(1000))
	// Drop every report from 0 to 1 (acks still flow) for two rounds.
	h.drop = func(from, to int, payload []byte) bool {
		return from == 0 && unsealed(payload)[0] != msgDeltaAck
	}
	h.round(period, msg(500_000))
	h.round(period, msg(500_000))
	if v := h.nodes[1].RemoteFlows(h.now, 10*period); len(v) != 1 || v[0].BPS != 1000 {
		t.Fatalf("view during loss = %+v", v)
	}
	h.drop = nil
	// Node 1 has not acked past seq 1, so the snapshot baseline holds and
	// the very next diff still carries the change.
	h.round(period, msg(500_000))
	if v := h.nodes[1].RemoteFlows(h.now, 10*period); len(v) != 1 || v[0].BPS != 500_000 {
		t.Fatalf("view after loss healed = %+v", v)
	}
	// Full resyncs keep arriving every ResyncEvery periods regardless.
	h.sent = nil
	for i := 0; i < 5; i++ {
		h.round(period, msg(500_000))
	}
	var fulls int
	for _, s := range h.sent {
		if s.from == 0 && unsealed(s.payload)[0] == msgDeltaFull {
			fulls++
		}
	}
	if fulls == 0 {
		t.Fatal("no periodic full resync observed")
	}
}

// TestDeltaRevertsResync pins the revert hazards of diffing against an
// acked baseline: a value (or whole flow) that changes and then reverts
// to its baseline state must still be re-sent, because peers applied the
// intermediate diff.
func TestDeltaRevertsResync(t *testing.T) {
	const period = 50 * time.Millisecond
	links := []uint16{3, 4}
	msg := func(bps uint32) []*metadata.Message {
		if bps == 0 {
			return []*metadata.Message{hostMsg(0), hostMsg(1)}
		}
		return []*metadata.Message{hostMsg(0, metadata.FlowRecord{BPS: bps, Links: links}), hostMsg(1)}
	}
	view := func(h *harness) []RemoteFlow { return h.nodes[1].RemoteFlows(h.now, 3*period) }

	// Flow pauses one period (tombstone), then resumes within epsilon of
	// the old value: peers must see it again immediately.
	h := newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 1000}, 2)
	h.round(period, msg(10_000))
	h.round(period, msg(10_000)) // ack round: baseline now holds the flow
	h.round(period, msg(0))      // tombstone
	if v := view(h); len(v) != 0 {
		t.Fatalf("view after tombstone = %+v", v)
	}
	h.round(period, msg(10_100)) // resumes within epsilon of the baseline
	if v := view(h); len(v) != 1 || v[0].BPS != 10_100 {
		t.Fatalf("view after resume = %+v (flow lost until resync)", v)
	}

	// Value spikes beyond epsilon and reverts: peers hold the spike value
	// and must be brought back.
	h = newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 1000}, 2)
	h.round(period, msg(10_000))
	h.round(period, msg(10_000))
	h.round(period, msg(50_000)) // spike (sent)
	h.round(period, msg(10_000)) // revert to the acked baseline value
	if v := view(h); len(v) != 1 || v[0].BPS != 10_000 {
		t.Fatalf("view after revert = %+v (peer stuck at spike)", v)
	}

	// Flow appears briefly and vanishes: peers applied the appearance and
	// must get a tombstone even though the baseline never held the flow.
	h = newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 1000}, 2)
	h.round(period, msg(0))
	h.round(period, msg(0))
	h.round(period, msg(10_000)) // appears (sent as new)
	h.round(period, msg(0))      // gone again
	if v := view(h); len(v) != 0 {
		t.Fatalf("view after brief flow = %+v (peer stuck with dead flow)", v)
	}
}

// TestDeltaSlowDriftTracked: usage drifting 2% per period — sub-epsilon
// against any recent snapshot — must still reach peers once the
// cumulative drift since the last *sent* value exceeds epsilon, instead
// of freezing until the next full resync.
func TestDeltaSlowDriftTracked(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 10_000}, 2)
	bps := 100_000.0
	for i := 0; i < 60; i++ {
		h.round(period, []*metadata.Message{
			hostMsg(0, metadata.FlowRecord{BPS: uint32(bps), Links: []uint16{3}}),
			hostMsg(1),
		})
		bps *= 1.02
	}
	v := h.nodes[1].RemoteFlows(h.now, 3*period)
	if len(v) != 1 {
		t.Fatalf("view = %+v", v)
	}
	err := (bps/1.02 - float64(v[0].BPS)) / (bps / 1.02)
	if err < 0 {
		err = -err
	}
	// After 60 periods of compounding 2% growth (~3.2x total) the view
	// must track within epsilon plus one pending sub-epsilon step.
	if err > 0.08 {
		t.Fatalf("view lags drifting usage by %.1f%% (held %d, actual %.0f)", err*100, v[0].BPS, bps/1.02)
	}
}

// TestDeltaPeerExpiryHealsViaFull: after a receiver expires a silent
// peer's state it must not rebuild partially from diffs — it waits
// unacknowledged until the sender's baseline falls out of retention and
// a full report arrives.
func TestDeltaPeerExpiryHealsViaFull(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Delta, Epsilon: 0.05, ResyncEvery: 8, AckEvery: 2}, 2)
	msg := func() []*metadata.Message {
		return []*metadata.Message{
			hostMsg(0,
				metadata.FlowRecord{BPS: 10_000, Links: []uint16{1}},
				metadata.FlowRecord{BPS: 20_000, Links: []uint16{2}}),
			hostMsg(1),
		}
	}
	h.round(period, msg())
	h.round(period, msg())
	// Silence node 0 entirely for longer than the view's max age.
	h.drop = func(from, to int, payload []byte) bool { return from == 0 }
	for i := 0; i < 4; i++ {
		h.round(period, msg())
	}
	if v := h.nodes[1].RemoteFlows(h.now, 3*period); len(v) != 0 {
		t.Fatalf("view not expired during silence: %+v", v)
	}
	h.drop = nil
	// Usage is epsilon-stable, so post-heal diffs are empty; the view
	// must still be fully restored once a full report arrives (baseline
	// pruned or periodic resync, whichever first).
	for i := 0; i < 12; i++ {
		h.round(period, msg())
		h.nodes[1].RemoteFlows(h.now, 3*period)
	}
	v := h.nodes[1].RemoteFlows(h.now, 3*period)
	if len(v) != 2 || v[0].BPS != 10_000 || v[1].BPS != 20_000 {
		t.Fatalf("view after heal = %+v", v)
	}
}

func TestDeltaMergesSamePathFlows(t *testing.T) {
	const period = 50 * time.Millisecond
	h := newHarness(t, Config{Kind: Delta}, 2)
	h.round(period, []*metadata.Message{
		hostMsg(0,
			metadata.FlowRecord{BPS: 1000, Links: []uint16{7, 8}},
			metadata.FlowRecord{BPS: 3000, Links: []uint16{7, 8}}),
		hostMsg(1),
	})
	v := h.nodes[1].RemoteFlows(h.now, 3*period)
	if len(v) != 1 || v[0].BPS != 4000 || v[0].Count != 2 {
		t.Fatalf("merged same-path view = %+v", v)
	}
}

func TestTreeCoversAllFlowsWithoutDoubleCounting(t *testing.T) {
	const period = 50 * time.Millisecond
	const n = 7
	h := newHarness(t, Config{Kind: Tree, Fanout: 2}, n)
	msgs := make([]*metadata.Message, n)
	for i := range msgs {
		msgs[i] = hostMsg(i, metadata.FlowRecord{BPS: uint32(1000 * (i + 1)), Links: []uint16{uint16(i)}})
	}
	// Depth of a 7-node binary tree is 2; a few rounds fully propagate.
	for r := 0; r < 5; r++ {
		h.round(period, msgs)
	}
	for v := 0; v < n; v++ {
		totals := viewTotals(h.nodes[v].RemoteFlows(h.now, 20*period))
		for o := 0; o < n; o++ {
			k := pathKey([]uint16{uint16(o)})
			got, ok := totals[k]
			if o == v {
				if ok {
					t.Errorf("node %d view contains its own flow", v)
				}
				continue
			}
			if !ok || got[0] != uint64(1000*(o+1)) || got[1] != 1 {
				t.Errorf("node %d view of host %d = %v (want bps=%d count=1)", v, o, got, 1000*(o+1))
			}
		}
	}
}

func TestTreeMessageCountIsLinear(t *testing.T) {
	const period = 50 * time.Millisecond
	const n = 16
	h := newHarness(t, Config{Kind: Tree, Fanout: 4}, n)
	msgs := make([]*metadata.Message, n)
	for i := range msgs {
		msgs[i] = hostMsg(i, metadata.FlowRecord{BPS: 1, Links: []uint16{uint16(i)}})
	}
	h.round(period, msgs) // warm up extern/childUp state
	h.sent = nil
	h.round(period, msgs)
	// Publish ups plus hop-by-hop relays cost Σ depth(v) = Θ(N·log_k N)
	// ups per round, and the down cascade costs the same — far below
	// Broadcast's N(N-1) but above the 2(N-1) of a store-and-forward
	// tree (which would pay log_k N periods of staleness instead).
	if max := 4 * (n - 1); len(h.sent) > max {
		t.Fatalf("tree datagrams per round = %d, want <= %d (broadcast would send %d)", len(h.sent), max, n*(n-1))
	}
	if bcast := n * (n - 1); len(h.sent)*4 >= bcast {
		t.Fatalf("tree datagrams per round = %d, not asymptotically below broadcast's %d", len(h.sent), bcast)
	}
}

func TestTreeMergesSharedPaths(t *testing.T) {
	const period = 50 * time.Millisecond
	const n = 6
	h := newHarness(t, Config{Kind: Tree, Fanout: 2}, n)
	// Hosts 4 and 5 (leaves in different subtrees) share one path.
	shared := []uint16{9, 10}
	msgs := make([]*metadata.Message, n)
	for i := range msgs {
		msgs[i] = hostMsg(i)
	}
	msgs[4] = hostMsg(4, metadata.FlowRecord{BPS: 100, Links: shared})
	msgs[5] = hostMsg(5, metadata.FlowRecord{BPS: 200, Links: shared})
	for r := 0; r < 5; r++ {
		h.round(period, msgs)
	}
	// Host 3 (leaf under host 1) sees one merged record for the shared
	// path: 300 bps across 2 flows.
	v := h.nodes[3].RemoteFlows(h.now, 20*period)
	if len(v) != 1 || v[0].BPS != 300 || v[0].Count != 2 || v[0].Origin != MergedOrigin {
		t.Fatalf("merged view = %+v", v)
	}
	// Staleness of the merged record reflects its oldest constituent.
	if v[0].Age <= 0 {
		t.Fatalf("merged record age = %v", v[0].Age)
	}
}

func TestStatsCounters(t *testing.T) {
	const period = 50 * time.Millisecond
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		h := newHarness(t, Config{Kind: kind, Fanout: 2}, 4)
		msgs := make([]*metadata.Message, 4)
		for i := range msgs {
			msgs[i] = hostMsg(i, metadata.FlowRecord{BPS: 1000, Links: []uint16{uint16(i)}})
		}
		// Staleness is what the emulation loop samples: every block of the
		// view it reads, once per record. Other reads sample nothing and
		// expire nothing, even at a horizon that hides every record.
		var view []OriginView
		var records int64
		for r := 0; r < 3; r++ {
			h.round(period, msgs)
			for _, n := range h.nodes {
				n.RemoteFlows(h.now, 0)
				view = n.AppendView(h.now, 10*period, view[:0])
				for i := range view {
					n.Stats().SampleStaleness(view[i].Age, view[i].Len())
					records += int64(view[i].Len())
				}
			}
		}
		var sent, recvd, bytesSent, bytesRecvd, stale int64
		for _, n := range h.nodes {
			s := n.Stats()
			sent += s.DatagramsSent.Value()
			recvd += s.DatagramsRecv.Value()
			bytesSent += s.BytesSent.Value()
			bytesRecvd += s.BytesRecv.Value()
			stale += int64(s.Staleness.Count())
		}
		if sent == 0 || sent != recvd || bytesSent == 0 || bytesSent != bytesRecvd {
			t.Errorf("%v: sent %d/%dB recv %d/%dB", kind, sent, bytesSent, recvd, bytesRecvd)
		}
		if records == 0 || stale != records {
			t.Errorf("%v: %d staleness samples for %d records read", kind, stale, records)
		}
		sum := Summarize([]*Stats{h.nodes[0].Stats(), h.nodes[1].Stats(), nil})
		if sum.DatagramsSent != h.nodes[0].Stats().DatagramsSent.Value()+h.nodes[1].Stats().DatagramsSent.Value() {
			t.Errorf("%v: Summarize datagram total wrong", kind)
		}
	}
}

// TestDeterministicViews runs every strategy twice over the same publish
// sequence and demands identical wire traffic and views — the property
// the deterministic-seed guarantee of the whole emulator rests on.
func TestDeterministicViews(t *testing.T) {
	const period = 50 * time.Millisecond
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		run := func() ([]sentRec, [][]RemoteFlow) {
			h := newHarness(t, Config{Kind: kind, Fanout: 2}, 5)
			var views [][]RemoteFlow
			for r := 0; r < 6; r++ {
				msgs := make([]*metadata.Message, 5)
				for i := range msgs {
					msgs[i] = hostMsg(i,
						metadata.FlowRecord{BPS: uint32(100*r + 10*i), Links: []uint16{uint16(i), 30}},
						metadata.FlowRecord{BPS: uint32(7 * (i + r)), Links: []uint16{uint16(i), 31}})
				}
				h.round(period, msgs)
				for _, n := range h.nodes {
					views = append(views, n.RemoteFlows(h.now, 10*period))
				}
			}
			return h.sent, views
		}
		s1, v1 := run()
		s2, v2 := run()
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%v: wire traffic differs between identical runs", kind)
		}
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("%v: views differ between identical runs", kind)
		}
	}
}

func TestCorruptedDatagramsIgnored(t *testing.T) {
	const period = 50 * time.Millisecond
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		h := newHarness(t, Config{Kind: kind, Fanout: 2}, 3)
		msgs := []*metadata.Message{
			hostMsg(0, metadata.FlowRecord{BPS: 100, Links: []uint16{0}}),
			hostMsg(1, metadata.FlowRecord{BPS: 200, Links: []uint16{1}}),
			hostMsg(2),
		}
		h.round(period, msgs)
		before := h.nodes[2].RemoteFlows(h.now, 10*period)
		for _, junk := range [][]byte{nil, {0xFF}, {msgDeltaDiff, 0, 0}, {msgTreeUp, 0, 1, 0, 9, 9}, {msgGossip, 0, 1, 0, 9, 9}, {msgGossipPull, 0, 1, 0, 4}, bytes.Repeat([]byte{1}, 40)} {
			h.nodes[2].Receive(h.now, junk)
		}
		after := h.nodes[2].RemoteFlows(h.now, 10*period)
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%v: corrupted datagrams changed the view:\n%+v\n%+v", kind, before, after)
		}
	}
}

// TestBogusSenderIDIgnored: a well-formed frame carrying an out-of-range
// sender id must be dropped — acking it would make the core transport
// index its peer table out of bounds, and storing it would put phantom
// peers in the view.
func TestBogusSenderIDIgnored(t *testing.T) {
	const period = 50 * time.Millisecond
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		h := newHarness(t, Config{Kind: kind, Fanout: 2}, 3)
		msgs := []*metadata.Message{
			hostMsg(0, metadata.FlowRecord{BPS: 100, Links: []uint16{0}}),
			hostMsg(1, metadata.FlowRecord{BPS: 200, Links: []uint16{1}}),
			hostMsg(2),
		}
		h.round(period, msgs)
		before := h.nodes[2].RemoteFlows(h.now, 10*period)
		sent := len(h.sent)
		// 17-byte delta-full frame with host=0xFFFF, n=0 — parses
		// cleanly under every strategy's length checks.
		bogusDelta := append([]byte{msgDeltaFull, 0xFF, 0xFF}, make([]byte, 14)...)
		// Broadcast frame claiming host 0xFFFF.
		bogusBcast := metadata.AppendEncode(nil, &metadata.Message{Host: 0xFFFF}, false)
		// Tree up claiming an out-of-range child.
		bogusTree := []byte{msgTreeUp, 0xFF, 0xFF, 0, 0}
		// Gossip pull claiming an out-of-range requester (replying would
		// index the transport's peer table out of bounds).
		bogusGossip := []byte{msgGossipPull, 0xFF, 0xFF, 0, 0}
		for _, b := range [][]byte{bogusDelta, bogusBcast, bogusTree, bogusGossip} {
			h.nodes[2].Receive(h.now, b)
		}
		if len(h.sent) != sent {
			t.Errorf("%v: node acked/relayed in response to a bogus sender id", kind)
		}
		after := h.nodes[2].RemoteFlows(h.now, 10*period)
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%v: bogus sender id changed the view:\n%+v\n%+v", kind, before, after)
		}
	}
}

// TestPathKeyRoundTrip pins the test helper the view assertions index by
// — and the order argument the package's path-sorted tables rest on:
// comparing the fixed-width big-endian keys as strings is comparing the
// link lists lexicographically.
func TestPathKeyRoundTrip(t *testing.T) {
	paths := [][]uint16{nil, {0}, {255}, {256}, {1, 2, 3}, {65535, 0, 77}, {1, 2}, {1, 256}, {0, 65535}}
	for _, links := range paths {
		got := keyLinks(pathKey(links))
		if len(links) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, links) {
			t.Errorf("pathKey round trip: %v -> %v", links, got)
		}
	}
	for _, a := range paths {
		for _, b := range paths {
			if byKey, byPath := strings.Compare(pathKey(a), pathKey(b)), slices.Compare(a, b); byKey != byPath {
				t.Errorf("paths %v, %v: string keys compare %d, link lists %d", a, b, byKey, byPath)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{Broadcast, Delta, Tree, Gossip} {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("Kind round trip failed for %v", k)
		}
	}
	if s := Kind(42).String(); s != fmt.Sprintf("dissem.Kind(%d)", 42) {
		t.Errorf("unknown kind string = %q", s)
	}
}

// TestCountersListEveryStatsCounter: every metrics.Counter field of Stats
// has exactly one row in Counters, so AdoptFrom carries it across a
// manager restart and the runtime exports it as a kollaps_dissem_* gauge.
func TestCountersListEveryStatsCounter(t *testing.T) {
	var s Stats
	rows := map[*metrics.Counter]string{}
	for _, c := range Counters {
		p := c.Of(&s)
		if prev, dup := rows[p]; dup {
			t.Fatalf("rows %q and %q name the same counter", prev, c.Name)
		}
		rows[p] = c.Name
	}
	v := reflect.ValueOf(&s).Elem()
	fields := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != reflect.TypeOf(metrics.Counter{}) {
			continue
		}
		fields++
		if _, ok := rows[(*metrics.Counter)(v.Field(i).Addr().UnsafePointer())]; !ok {
			t.Errorf("Stats.%s has no row in Counters", f.Name)
		}
	}
	if fields != len(Counters) {
		t.Fatalf("Counters has %d rows for %d counter fields", len(Counters), fields)
	}
}
