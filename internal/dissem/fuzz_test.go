package dissem

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metadata"
)

// Fuzz targets for the control-plane wire decoders: arbitrary datagrams
// must never panic a node, and a node fed garbage must stay internally
// consistent (its view remains computable and deterministic). CI runs
// these briefly (-fuzztime) as a smoke test; longer local runs explore
// deeper.

// discardTr drops everything a fuzzed node tries to send.
type discardTr struct{}

func (discardTr) SendTo(int, []byte) {}

// fuzzSeeds returns well-formed frames of every message type to seed the
// corpus, so mutation starts from valid structure instead of pure noise.
func fuzzSeeds(t interface{ Helper() }) [][]byte {
	h := &harness{cfg: Config{}, dead: map[int]bool{}}
	cfg := Config{Kind: Delta, NumHosts: 4}
	for i := 0; i < 4; i++ {
		node, err := New(cfg, i, harnessTr{h, i})
		if err != nil {
			panic(err)
		}
		h.nodes = append(h.nodes, node)
	}
	msgs := []*metadata.Message{
		hostMsg(0, metadata.FlowRecord{BPS: 1000, Links: []uint16{1, 2}}),
		hostMsg(1, metadata.FlowRecord{BPS: 2000, Links: []uint16{3}}),
		hostMsg(2), hostMsg(3),
	}
	h.round(50*time.Millisecond, msgs)
	h.round(50*time.Millisecond, msgs)
	tcfg := Config{Kind: Tree, NumHosts: 4, Fanout: 2}
	th := &harness{cfg: tcfg, dead: map[int]bool{}}
	for i := 0; i < 4; i++ {
		node, err := New(tcfg, i, harnessTr{th, i})
		if err != nil {
			panic(err)
		}
		th.nodes = append(th.nodes, node)
	}
	th.round(50*time.Millisecond, msgs)
	gcfg := Config{Kind: Gossip, NumHosts: 4, Fanout: 2}
	gh := &harness{cfg: gcfg, dead: map[int]bool{}}
	for i := 0; i < 4; i++ {
		node, err := New(gcfg, i, harnessTr{gh, i})
		if err != nil {
			panic(err)
		}
		gh.nodes = append(gh.nodes, node)
	}
	gh.round(50*time.Millisecond, msgs)
	var raw [][]byte
	for _, s := range append(append(h.sent, th.sent...), gh.sent...) {
		raw = append(raw, s.payload)
	}
	// Adversarial shapes lead (the corpus writer caps the committed seed
	// count, and these must survive the cut): then every captured datagram
	// both sealed (exercising the envelope open path) and as its inner
	// frame (what the decoder-level targets parse, and what the
	// Receive-level targets must reject as a bad version).
	seeds := corruptSeeds(raw)
	for _, p := range raw {
		seeds = append(seeds, p, unsealed(p))
	}
	return seeds
}

// corruptSeeds derives adversarial envelope frames from well-formed
// ones: a CRC-valid envelope around garbage (the checksum passes; the
// strategy decoder must reject the body and count BadDatagram) and a
// CRC-invalid copy of a real datagram (open must reject it outright and
// count BadChecksum, before any strategy decoding runs).
func corruptSeeds(raw [][]byte) [][]byte {
	out := [][]byte{(&Stats{}).seal([]byte{0x00, 0xde, 0xad, 0xbe, 0xef, 0x7f})}
	for _, s := range raw {
		if len(s) > envHeaderLen && s[0] == envVersion {
			bad := append([]byte(nil), s...)
			bad[len(bad)-1] ^= 0x40 // flip an inner bit: CRC now fails
			out = append(out, bad)
			break
		}
	}
	return out
}

func FuzzDecodeTree(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, false, int64(50*time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool, now int64) {
		recs, ok := decodeTreeRecs(data, time.Duration(now), &Stats{})
		if !ok && recs != nil {
			t.Fatal("decodeTree returned records alongside failure")
		}
		for _, r := range recs {
			if n := len(r.rec[0].Links); n > 255 {
				t.Fatalf("decoded %d links from a 1-byte length field", n)
			}
		}
	})
}

func FuzzDeltaReceive(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		node, err := New(Config{Kind: Delta, NumHosts: 3, Wide: wide}, 0, discardTr{})
		if err != nil {
			t.Fatal(err)
		}
		now := 50 * time.Millisecond
		node.Receive(now, data)
		node.Receive(now, data) // duplicates must be idempotent
		v1 := node.RemoteFlows(now, time.Second)
		v2 := node.RemoteFlows(now, time.Second)
		if len(v1) != len(v2) {
			t.Fatalf("view not deterministic: %d vs %d records", len(v1), len(v2))
		}
	})
}

// FuzzTreeCodecRoundTrip: whatever decodes must re-encode to a datagram
// that decodes back to the same records — the codec's canonical form is
// a fixed point, so corrupt-but-parseable input cannot smuggle state a
// relay would serialize differently than it read.
func FuzzTreeCodecRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, true, int64(50*time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool, now int64) {
		var stats Stats
		recs, ok := decodeTreeRecs(data, time.Duration(now), &stats)
		if !ok {
			return
		}
		raw := encodeTree(msgTreeUp, 1, time.Duration(now), recs, &stats)
		again, ok := decodeTreeRecs(raw, time.Duration(now), &stats)
		if !ok {
			t.Fatalf("re-encoded datagram did not decode (input %x)", data)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		sortRecs(recs)
		sortRecs(again)
		for i := range recs {
			a, r := &again[i].rec[0], &recs[i].rec[0]
			if again[i].origin != recs[i].origin || a.BPS != r.BPS || a.Count != r.Count || len(a.Links) != len(r.Links) {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], again[i])
			}
			if d := again[i].ts - recs[i].ts; d < 0 || d >= treeAgeUnit {
				t.Fatalf("round trip moved ts by %v", d)
			}
		}
	})
}

func FuzzGossipReceive(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		node, err := New(Config{Kind: Gossip, NumHosts: 3, Fanout: 2, Wide: wide}, 0, discardTr{})
		if err != nil {
			t.Fatal(err)
		}
		now := 50 * time.Millisecond
		node.Receive(now, data)
		node.Receive(now, data) // duplicates must be idempotent
		v1 := node.RemoteFlows(now, time.Second)
		v2 := node.RemoteFlows(now, time.Second)
		if len(v1) != len(v2) {
			t.Fatalf("view not deterministic: %d vs %d records", len(v1), len(v2))
		}
	})
}

func FuzzTreeReceive(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		// Host 1: has both a parent (0) and children (3, 4) to confuse.
		node, err := New(Config{Kind: Tree, NumHosts: 5, Fanout: 2, Wide: wide}, 1, discardTr{})
		if err != nil {
			t.Fatal(err)
		}
		now := 50 * time.Millisecond
		node.Receive(now, data)
		node.Receive(now, data)
		v1 := node.RemoteFlows(now, time.Second)
		v2 := node.RemoteFlows(now, time.Second)
		if len(v1) != len(v2) {
			t.Fatalf("view not deterministic: %d vs %d records", len(v1), len(v2))
		}
	})
}

// FuzzBroadcastReceive seals the fuzzed bytes as a valid envelope's inner
// payload, so every input reaches the metadata decoder instead of dying on
// the envelope checksum. The receiver (host 1 of 3) already holds a report
// from host 2, so "the view is unchanged" has something to lose.
func FuzzBroadcastReceive(f *testing.F) {
	for _, wide := range []bool{false, true} {
		for _, msg := range []*metadata.Message{
			hostMsg(0, metadata.FlowRecord{BPS: 1000, Links: []uint16{1, 2}}),
			hostMsg(2, metadata.FlowRecord{BPS: 2000, Links: []uint16{3}}, metadata.FlowRecord{BPS: 7, Links: nil}),
			hostMsg(0),
			hostMsg(1, metadata.FlowRecord{BPS: 5, Links: []uint16{4}}),
			hostMsg(9, metadata.FlowRecord{BPS: 5, Links: []uint16{4}}),
		} {
			f.Add(metadata.AppendEncode(nil, msg, wide), wide)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		const receiver, numHosts = 1, 3
		node, err := New(Config{Kind: Broadcast, NumHosts: numHosts, Wide: wide}, receiver, discardTr{})
		if err != nil {
			t.Fatal(err)
		}
		// Views are read at a later instant, so a duplicate that refreshed
		// its report's arrival time would show as a younger age.
		now, later := 50*time.Millisecond, 80*time.Millisecond
		var sender Stats
		held := hostMsg(2, metadata.FlowRecord{BPS: 3000, Links: []uint16{5, 6}})
		node.Receive(now, sender.seal(metadata.AppendEncode(nil, held, wide)))
		view := func() string { return fmt.Sprint(node.RemoteFlows(later, time.Second)) }
		before, bad := view(), node.Stats().BadDatagram.Value()

		frame := sender.seal(data)
		node.Receive(now, frame)
		after := view()
		if node.Stats().BadDatagram.Value() != bad {
			if after != before {
				t.Fatalf("rejected datagram changed the view: %s -> %s", before, after)
			}
		} else {
			node.Receive(later, frame)
			if again := view(); again != after || node.Stats().BadDatagram.Value() != bad {
				t.Fatalf("duplicate delivery changed the view: %s -> %s", after, again)
			}
		}
		for _, rf := range node.RemoteFlows(later, time.Second) {
			if rf.Origin >= numHosts || rf.Origin == receiver {
				t.Fatalf("view holds a record from origin %d (receiver %d of %d hosts)", rf.Origin, receiver, numHosts)
			}
		}
	})
}
