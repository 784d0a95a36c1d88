package dissem

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metadata"
)

// wireGolden pins every strategy's wire traffic and fused views across
// commits: the FNV-64a digest of every (from, to, payload) handed to the
// transport plus every node's view, over a seeded scenario that walks the
// protocol's corners (demand churn, same-path flows, loss, a manager
// silenced past every suspicion threshold, a cold-restarted one, a one-way
// cut). TestSameSeedSameBytes compares a run
// with itself, so it cannot see a cross-commit change; these constants
// can. They were recorded before the dense/allocation-free rework of the
// package and must only ever change together with a deliberate wire or
// protocol change.
var wireGolden = map[Kind]uint64{
	Broadcast: 0x9c2cff39b84c3828,
	Delta:     0x5bf9f346c8ee365b,
	Tree:      0xacd9ff8fa8240319,
	Gossip:    0xac04ab02afc5069c,
}

func TestWireGolden(t *testing.T) {
	const (
		n        = 9
		periods  = 40
		period   = 50 * time.Millisecond
		silenced = 1 // interior Tree node, dead for periods [8, 18)
		replaced = 2 // swapped for a fresh node at period 24
		cutFrom  = 1 // one-way cut cutFrom→cutTo over periods [30, 36):
		cutTo    = 3 // the child suspects its parent, the grandparent fosters it
	)
	for _, kind := range []Kind{Broadcast, Delta, Tree, Gossip} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, Config{
				Kind: kind, Seed: 42, Fanout: 2, ResyncEvery: 6, SuspectAfter: 2, Wide: true,
			}, n)
			drops := rand.New(rand.NewSource(99))
			cut := false
			h.drop = func(from, to int, payload []byte) bool {
				return drops.Intn(100) < 5 || cut && from == cutFrom && to == cutTo
			}

			digest := fnv.New64a()
			var word [8]byte
			put := func(v uint64) {
				binary.BigEndian.PutUint64(word[:], v)
				digest.Write(word[:])
			}
			views := func() {
				for host, node := range h.nodes {
					if h.dead[host] {
						continue
					}
					for _, rf := range node.RemoteFlows(h.now, 3*period) {
						put(uint64(host))
						put(uint64(rf.Origin)<<48 | uint64(rf.Count)<<32 | uint64(rf.BPS))
						put(uint64(rf.Age))
						put(uint64(len(rf.Links)))
						for _, l := range rf.Links {
							put(uint64(l))
						}
					}
				}
			}

			// Demand churn: every host keeps one steady flow (Delta's
			// suppression path), one flow jittering within a few percent,
			// and a seeded handful that come, go, move and share paths —
			// with each other and across hosts, so merges and tombstones run.
			rng := rand.New(rand.NewSource(7))
			for p := 0; p < periods; p++ {
				switch p {
				case 8:
					h.kill(silenced)
				case 18:
					delete(h.dead, silenced)
				case 30, 36:
					cut = !cut
				case 24:
					old := h.nodes[replaced]
					h.restart(t, replaced)
					h.nodes[replaced].Stats().AdoptFrom(old.Stats())
				}
				msgs := make([]*metadata.Message, n)
				for host := 0; host < n; host++ {
					flows := []metadata.FlowRecord{
						{BPS: uint32(100_000 * (host + 1)), Links: []uint16{uint16(host), 300, uint16(400 + host)}},
						{BPS: uint32(2_000_000 + rng.Intn(60_000)), Links: []uint16{uint16(host), 301}},
					}
					for f := rng.Intn(4); f > 0; f-- {
						links := make([]uint16, 1+rng.Intn(3))
						for l := range links {
							links[l] = uint16(rng.Intn(6) * 100)
						}
						flows = append(flows, metadata.FlowRecord{BPS: uint32(1e4 + rng.Intn(1e6)), Links: links})
					}
					msgs[host] = hostMsg(host, flows...)
				}
				h.round(period, msgs)
				if p%4 == 3 {
					views()
				}
			}
			views()
			for _, s := range h.sent {
				put(uint64(s.from)<<32 | uint64(s.to))
				put(uint64(len(s.payload)))
				digest.Write(s.payload)
			}
			if len(h.sent) == 0 {
				t.Fatal("no datagrams sent — harness misconfigured")
			}
			if got := digest.Sum64(); got != wireGolden[kind] {
				t.Fatalf("%v: wire+view digest = %#016x over %d datagrams, golden %#016x — the bytes on the wire or the fused views changed",
					kind, got, len(h.sent), wireGolden[kind])
			}
		})
	}
}
