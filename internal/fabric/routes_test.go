package fabric

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// fuzzGraph builds a graph of 2–8 nodes from data: a kind per node, up to
// 24 directed or bidirectional links of 1–4 ms (so equal-cost paths are
// common), and a mask of removed links. It returns the bytes left over.
func fuzzGraph(data []byte) (*graph.Graph, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	g := graph.New()
	nodes := 2 + int(next()%7)
	kinds := next()
	for i := 0; i < nodes; i++ {
		kind := graph.Service
		if kinds>>i&1 == 1 {
			kind = graph.Bridge
		}
		g.MustAddNode(fmt.Sprintf("n%d", i), kind)
	}
	for links := int(next() % 25); links > 0; links-- {
		spec := next()
		from, to := graph.NodeID(int(next())%nodes), graph.NodeID(int(next())%nodes)
		if from == to {
			continue
		}
		lp := graph.LinkProps{Latency: time.Duration(1+spec%4) * time.Millisecond, Bandwidth: units.Gbps}
		if spec&4 != 0 {
			g.AddLink(from, to, lp)
		} else {
			g.AddBiLink(from, to, lp)
		}
	}
	for id := 0; id < g.NumLinks(); id++ {
		if next()%4 == 0 {
			g.RemoveLink(id)
		}
	}
	return g, data
}

// FuzzRoutesMatchReference: the dense route table answers every nextHop
// query exactly as the map-keyed cache it replaced, the same link or the
// same "unreachable". Both fill lazily from one shared query sequence, so
// answers served from a seeded or negatively cached entry are compared
// too, not only fresh Dijkstra results.
func FuzzRoutesMatchReference(f *testing.F) {
	f.Add([]byte{4, 0x06, 6, 0, 0, 1, 0, 1, 2, 0, 2, 3, 4, 0, 3, 0, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1, 0, 3, 3, 0, 1, 2, 2, 0})
	f.Add([]byte{6, 0x3c, 12, 1, 0, 1, 2, 1, 2, 3, 2, 3, 0, 0, 2, 1, 1, 3, 5, 3, 4, 6, 4, 5, 2, 5, 0, 0, 5, 4, 1, 0, 0, 0, 0, 2, 7, 1, 5, 3, 1, 4, 0, 6, 2})
	f.Add([]byte{8, 0xff, 3, 4, 0, 1, 4, 1, 2, 4, 2, 3, 1, 1, 1, 0, 3, 3, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, queries := fuzzGraph(data)
		nw := New(sim.NewEngine(1), g, Options{})
		ref := newRefRoutes(g)
		n := g.NumNodes()
		for i := 0; i+1 < len(queries); i += 2 {
			node, dst := graph.NodeID(int(queries[i])%n), graph.NodeID(int(queries[i+1])%n)
			got, gotOK := nw.nextHop(node, dst)
			want, wantOK := ref.nextHop(node, dst)
			if gotOK != wantOK || (wantOK && got != want) {
				t.Fatalf("query %d: nextHop(%d, %d) = (%d, %v), reference (%d, %v)", i/2, node, dst, got, gotOK, want, wantOK)
			}
		}
	})
}

// TestLinkIDOutOfRange: SetLinkProps and LinkStats on a negative,
// out-of-range or removed link id do nothing and report zeros.
func TestLinkIDOutOfRange(t *testing.T) {
	g, _, _ := lineTopology(props(time.Millisecond, units.Gbps))
	removed, _ := g.AddBiLink(0, 1, props(time.Millisecond, units.Gbps))
	g.RemoveLink(removed)
	nw := New(sim.NewEngine(1), g, Options{})
	for _, id := range []int{-1, removed, g.NumLinks(), 1 << 20} {
		nw.SetLinkProps(id, props(5*time.Millisecond, units.Mbps))
		if b, p, d := nw.LinkStats(id); b != 0 || p != 0 || d != 0 {
			t.Errorf("LinkStats(%d) = %d, %d, %d, want zeros", id, b, p, d)
		}
	}
}

// TestAttachEndpointOutside10Slash8: the endpoint table covers 10/8 only,
// so attaching any other address panics rather than being lost.
func TestAttachEndpointOutside10Slash8(t *testing.T) {
	g, a, _ := lineTopology(props(time.Millisecond, units.Gbps))
	nw := New(sim.NewEngine(1), g, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("AttachEndpoint(192.168.0.1) did not panic")
		}
	}()
	nw.AttachEndpoint(a, packet.IP{192, 168, 0, 1}, nil)
}
