package topology

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// linksBetweenScan is linksBetween as it was before it walked the
// adjacency, kept as the oracle: every link's endpoint names matched, and
// each match paired by a second scan of every link.
func linksBetweenScan(g *graph.Graph, orig, dest string) []linkPair {
	match := nameMatches
	var out []linkPair
	used := make(map[int]bool)
	for li := 0; li < g.NumLinks(); li++ {
		if g.LinkRemoved(li) || used[li] {
			continue
		}
		l := g.Link(li)
		if match(names(g, l.From), orig) && match(names(g, l.To), dest) {
			pair := linkPair{fwd: li, rev: -1}
			for rj := 0; rj < g.NumLinks(); rj++ {
				if rj == li || g.LinkRemoved(rj) || used[rj] {
					continue
				}
				r := g.Link(rj)
				if r.From == l.To && r.To == l.From {
					pair.rev = rj
					used[rj] = true
					break
				}
			}
			used[li] = true
			out = append(out, pair)
		}
	}
	return out
}

// linkNames are the node names the fuzzed graphs draw from, and the
// declared names the queries do: replicas of a name that is also a node
// ("a" next to "a-0"), replicas of replicas, a bare trailing dash, and
// names that share a prefix without a dash.
var linkNames = []string{"a", "a-0", "a-1", "a-1-0", "a-", "b", "b-0", "b-1", "ab", "s", "s-x", "c-0", "c-1"}

// linksGraph decodes a multigraph over a subset of linkNames from fuzz
// bytes: the first two bytes pick the nodes ("a" and "a-0" always), then
// every 3 bytes are one link (tail, head, and a bit that tombstones it).
// Parallel links, one-way links and self-loops all occur.
func linksGraph(data []byte) *graph.Graph {
	g := graph.New()
	if len(data) < 2 {
		return g
	}
	pick := uint16(data[0]) | uint16(data[1])<<8
	for i, name := range linkNames {
		if i < 2 || pick>>i&1 != 0 {
			g.MustAddNode(name, graph.NodeKind(i%2))
		}
	}
	n := g.NumNodes()
	for i := 2; i+2 < len(data); i += 3 {
		li := g.AddLink(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n), graph.LinkProps{Bandwidth: 1})
		if data[i+2]&1 != 0 {
			g.RemoveLink(li)
		}
	}
	return g
}

func checkLinksBetween(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, orig := range linkNames {
		for _, dest := range linkNames {
			got, want := linksBetween(g, orig, dest), linksBetweenScan(g, orig, dest)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("linksBetween(%q, %q) = %v, the scan says %v", orig, dest, got, want)
			}
		}
	}
}

func FuzzLinksBetweenMatchesScan(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0, 1, 0, 1, 0, 0, 0, 1, 0, 2, 5, 0, 5, 2, 1, 5, 2, 0})
	f.Add([]byte{0x0f, 0x00, 0, 2, 0, 2, 0, 0, 2, 3, 0, 3, 2, 0, 3, 2, 0, 2, 2, 0})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		data := make([]byte, 30+rng.Intn(90))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLinksBetween(t, linksGraph(data))
	})
}
