package dissem

import (
	"reflect"
	"testing"
)

// Robustness contracts under an adversarial fabric, pinned per strategy
// against the broadcast oracle. internal/netem never duplicates,
// reorders, or corrupts a datagram; the chaos plane (internal/chaos)
// does all three, and these tests are the receive-path guarantees that
// make every strategy survive it: duplication is idempotent (delta's
// ack/seq protocol, gossip's version vectors, tree's envelope-sequence
// epoch check, broadcast's held-entry seq), bounded reordering cannot
// roll a view backwards, and corruption is counted — never decoded.

// dupHarness delivers every datagram twice, back to back — the chaos
// plane's Duplicate channel at probability 1.
func dupHarness(h *harness) {
	h.drop = func(from, to int, payload []byte) bool {
		h.nodes[to].Receive(h.now, payload)
		h.nodes[to].Receive(h.now, payload)
		return true // both copies already delivered
	}
}

// reorderHarness delivers every datagram immediately and then replays
// the previous datagram of the same (from, to) pair — a stale copy
// displaced one send late, the shape chaos's bounded Reorder channel
// produces (late duplicates, old-after-new). held must rotate *before*
// the recursive deliveries: receives trigger synchronous sends (gossip
// answers every pull with a push), and replaying a still-held pull from
// inside its own response cascade would ping-pong forever. Rotating
// first means each datagram is replayed exactly once, on eviction.
func reorderHarness(h *harness) {
	held := make(map[[2]int][]byte)
	h.drop = func(from, to int, payload []byte) bool {
		key := [2]int{from, to}
		prev := held[key]
		held[key] = payload
		h.nodes[to].Receive(h.now, payload)
		if prev != nil {
			h.nodes[to].Receive(h.now, prev)
		}
		return true
	}
}

// runAdversarial drives a churn schedule under the given fault shape
// and demands exact oracle convergence, returning the total datagram
// count the nodes *sent* (fault-injected re-deliveries do not pass
// through the transport, so this measures amplification). heal clears
// the fault before the settle phase — the contract for faults that cost
// latency by design (a datagram displaced across periods re-anchors its
// wire ages at delivery time, so gossip sees stale heartbeats as fresh
// and defers — not loses — adoption): convergence within a bounded
// number of periods after the fault clears, the same invariant the
// chaos soak asserts after a partition heals.
func runAdversarial(t *testing.T, kind Kind, n int, fault func(*harness), heal bool) int {
	t.Helper()
	h := newHarness(t, Config{Kind: kind, Fanout: 2, ResyncEvery: 6, SuspectAfter: 3}, n)
	if fault != nil {
		fault(h)
	}
	for r := 0; r < 12; r++ {
		h.round(foPeriod, foMsgs(n, uint32(1+r%3)))
	}
	if heal {
		h.drop = nil
	}
	final := foMsgs(n, 2)
	for r := 0; r < 8; r++ {
		h.round(foPeriod, final)
	}
	if ok, why := viewsMatchOracle(h, final); !ok {
		t.Fatalf("%v: views diverged: %s", kind, why)
	}
	return len(h.sent)
}

// TestDuplicationIsIdempotent: with every datagram delivered twice, all
// four strategies must still converge to exactly the oracle — no
// double-counted flows, no phantom peers, no view stuck on a stale
// duplicate. Tree additionally must not amplify: a duplicated up or
// down datagram re-firing the relay paths would show up as extra sends
// versus a clean run.
func TestDuplicationIsIdempotent(t *testing.T) {
	const n = 8
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			runAdversarial(t, kind, n, dupHarness, false)
		})
	}
	clean := runAdversarial(t, Tree, n, nil, false)
	duped := runAdversarial(t, Tree, n, dupHarness, false)
	if duped != clean {
		t.Fatalf("tree sent %d datagrams under duplication vs %d clean: duplicates re-fired the relay paths", duped, clean)
	}
}

// TestReorderIsTolerated: every datagram chased by a one-send-stale
// replay on the same pair. Sequence regression must reject the stale
// copy (a view rolled back to an old report would miss the final
// workload's values), while legitimate progress still lands. The fault
// heals before the settle phase: replays here are displaced by whole
// periods — gray-failure territory, where the contract is bounded
// convergence after heal, not zero latency during the fault.
func TestReorderIsTolerated(t *testing.T) {
	const n = 8
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			runAdversarial(t, kind, n, reorderHarness, true)
		})
	}
}

// TestTreeAsymmetricCutIsRoutedAround: a one-way cut on a tree edge —
// parent 1's datagrams to child 5 vanish, the reverse direction stays
// open. Only the child suspects; the grandparent keeps hearing the
// parent and never re-forms, so before adopt-on-up the orphan rerouted
// its ups into the void and went blind until the fault healed. With
// adoption the grandparent serves the orphan downs, so mid-cut the
// orphan must still see every origin — including the cut parent's flows,
// which reach it through the grandparent's down cascade. After the heal
// the overlay must fall back to the static shape and every view must
// match the oracle exactly (adoption over: no double-served downs, no
// double-counted subtree).
func TestTreeAsymmetricCutIsRoutedAround(t *testing.T) {
	const n, cutFrom, cutTo = 8, 1, 5
	h := newHarness(t, Config{Kind: Tree, Fanout: 4, SuspectAfter: 3}, n)
	msgs := foMsgs(n, 1)
	for r := 0; r < 4; r++ {
		h.round(foPeriod, msgs) // converge on the static overlay first
	}
	h.drop = func(from, to int, payload []byte) bool {
		return from == cutFrom && to == cutTo
	}
	for r := 0; r < 12; r++ {
		h.round(foPeriod, msgs)
	}
	seen := make(map[int]bool)
	for _, rf := range h.nodes[cutTo].RemoteFlows(h.now, foMaxAge) {
		seen[int(rf.Origin)] = true
	}
	for o := 0; o < n; o++ {
		if o != cutTo && !seen[o] {
			t.Errorf("mid-cut, orphan %d's view is missing origin %d (adoption failed)", cutTo, o)
		}
	}
	h.drop = nil
	for r := 0; r < 12; r++ {
		h.round(foPeriod, msgs)
	}
	if ok, why := viewsMatchOracle(h, msgs); !ok {
		t.Fatalf("views diverged after the cut healed: %s", why)
	}
}

// TestCorruptionCountedAndContained: a third of all datagrams arrive
// with a flipped payload bit. The envelope checksum must reject every
// one (BadChecksum counts them; corruption is indistinguishable from
// loss above the envelope), decoders must never see the corrupted
// bytes (BadDatagram stays zero), and once the fault clears the next
// periods repair every view to the oracle.
func TestCorruptionCountedAndContained(t *testing.T) {
	const n = 4
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, Config{Kind: kind, Fanout: 2, ResyncEvery: 6, SuspectAfter: 3}, n)
			var i int
			h.drop = func(from, to int, payload []byte) bool {
				if i++; i%3 == 0 {
					bad := append([]byte(nil), payload...)
					bad[len(bad)-1] ^= 0x10
					h.nodes[to].Receive(h.now, bad)
					return true
				}
				return false
			}
			msgs := foMsgs(n, 1)
			for r := 0; r < 10; r++ {
				h.round(foPeriod, msgs)
			}
			var badCRC, badDgram int64
			for _, node := range h.nodes {
				badCRC += node.Stats().BadChecksum.Value()
				badDgram += node.Stats().BadDatagram.Value()
			}
			if badCRC == 0 {
				t.Fatal("corrupted datagrams injected but BadChecksum never moved")
			}
			if badDgram != 0 {
				t.Fatalf("BadDatagram = %d: corrupted bytes leaked past the checksum into a decoder", badDgram)
			}
			h.drop = nil
			for r := 0; r < 10; r++ {
				h.round(foPeriod, msgs)
			}
			if ok, why := viewsMatchOracle(h, msgs); !ok {
				t.Fatalf("%v: views not repaired after corruption cleared: %s", kind, why)
			}
		})
	}
}

// TestSealedGarbageIsBadDatagram: the CRC-valid-but-garbage shape — an
// intact envelope around bytes no strategy decoder accepts. The
// envelope passes (BadChecksum stays zero), the decoder rejects, and
// the rejection is *counted*: every bare-return decode path funnels
// into Stats.BadDatagram, so garbage is observable, not silent.
func TestSealedGarbageIsBadDatagram(t *testing.T) {
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			node, err := New(Config{Kind: kind, NumHosts: 4, Fanout: 2}, 0, discardTr{})
			if err != nil {
				t.Fatal(err)
			}
			node.Receive(foPeriod, (&Stats{}).seal([]byte{0xde, 0xad}))
			s := node.Stats()
			if got := s.BadDatagram.Value(); got != 1 {
				t.Fatalf("BadDatagram = %d after one sealed-garbage datagram, want 1", got)
			}
			if s.BadChecksum.Value() != 0 || s.BadVersion.Value() != 0 {
				t.Fatalf("garbage with a valid checksum miscounted: checksum=%d version=%d",
					s.BadChecksum.Value(), s.BadVersion.Value())
			}
			if v := node.RemoteFlows(foPeriod, foMaxAge); len(v) != 0 {
				t.Fatalf("garbage datagram materialized view records: %+v", v)
			}
		})
	}
}

// TestUnsealedFrameIsBadVersion: open has two outcomes, verified or
// rejected and counted. Flipping exactly the top two bits of a sealed
// frame's byte 0 turns the envelope marker into a message-type byte —
// what an unsealed frame starts with — so the datagram must be rejected
// as a bad version, reach no decoder, and leave the view unchanged.
func TestUnsealedFrameIsBadVersion(t *testing.T) {
	const n = 4
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, Config{Kind: kind, Fanout: 2}, n)
			msgs := foMsgs(n, 1)
			for r := 0; r < 5; r++ {
				h.sent = h.sent[:0]
				h.round(foPeriod, msgs)
			}
			if len(h.sent) == 0 {
				t.Fatal("no datagram sent in the last round")
			}
			last := h.sent[len(h.sent)-1]
			frame := append([]byte(nil), last.payload...)
			frame[0] ^= 0xC0
			node := h.nodes[last.to]
			before := node.RemoteFlows(h.now, foMaxAge)
			s := node.Stats()
			versions, dgrams, crcs := s.BadVersion.Value(), s.BadDatagram.Value(), s.BadChecksum.Value()
			node.Receive(h.now, frame)
			if got := s.BadVersion.Value() - versions; got != 1 {
				t.Fatalf("BadVersion moved by %d for one unsealed frame, want 1", got)
			}
			if s.BadDatagram.Value() != dgrams || s.BadChecksum.Value() != crcs {
				t.Fatal("unsealed frame reached the length/checksum checks or a decoder")
			}
			if after := node.RemoteFlows(h.now, foMaxAge); !reflect.DeepEqual(before, after) {
				t.Fatalf("unsealed frame changed the view:\n%+v\n%+v", before, after)
			}
		})
	}
}
