package fabric

import "repro/internal/graph"

// refRoutes is the fabric's original map-keyed route cache, kept as the
// oracle for the dense route table: FuzzRoutesMatchReference replays one
// query sequence against both and requires the same answer every time.
type refRoutes struct {
	g      *graph.Graph
	routes map[graph.NodeID]map[graph.NodeID]int // node -> dst node -> out link id
}

func newRefRoutes(g *graph.Graph) *refRoutes {
	return &refRoutes{g: g, routes: make(map[graph.NodeID]map[graph.NodeID]int)}
}

// nextHop returns the outgoing link id from node toward dst from the route
// cache, filled lazily by computeRoutes.
func (r *refRoutes) nextHop(node, dst graph.NodeID) (int, bool) {
	if m := r.routes[node]; m != nil {
		if l, ok := m[dst]; ok {
			return l, l >= 0
		}
	}
	return r.computeRoutes(node, dst)
}

// computeRoutes is nextHop's cache miss: one Dijkstra per source node, plus
// seeding of every intermediate node along computed paths.
func (r *refRoutes) computeRoutes(node, dst graph.NodeID) (int, bool) {
	paths := r.g.ShortestPaths(node)
	m := r.routes[node]
	if m == nil {
		m = make(map[graph.NodeID]int)
		r.routes[node] = m
	}
	for d, path := range paths {
		if len(path.Links) > 0 {
			m[d] = path.Links[0]
			// Seed intermediate nodes along this path toward d.
			for i := 1; i < len(path.Links); i++ {
				at := r.g.Link(path.Links[i-1]).To
				mm := r.routes[at]
				if mm == nil {
					mm = make(map[graph.NodeID]int)
					r.routes[at] = mm
				}
				if _, ok := mm[d]; !ok {
					mm[d] = path.Links[i]
				}
			}
		}
	}
	if l, ok := m[dst]; ok {
		return l, true
	}
	m[dst] = -1 // negative cache: unreachable
	return -1, false
}
