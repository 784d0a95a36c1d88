package topology

import (
	"encoding/xml"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/units"
)

// The ModelNet-like XML syntax (§3: "Kollaps supports an XML
// Modelnet-like syntax to facilitate porting of existing topology
// descriptions"). Vertices are virtnodes (services) or gateways/stubs
// (bridges); edges are unidirectional with delay in ms, rate in kb/s and a
// packet loss ratio.

type xmlTopology struct {
	XMLName  xml.Name    `xml:"topology"`
	Vertices xmlVertices `xml:"vertices"`
	Edges    xmlEdges    `xml:"edges"`
}

type xmlVertices struct {
	Vertex []xmlVertex `xml:"vertex"`
}

type xmlVertex struct {
	Idx   int    `xml:"int_idx,attr"`
	Role  string `xml:"role,attr"`
	Name  string `xml:"string_name,attr"`
	Image string `xml:"string_image,attr"`
}

type xmlEdges struct {
	Edge []xmlEdge `xml:"edge"`
}

type xmlEdge struct {
	Src     int     `xml:"int_src,attr"`
	Dst     int     `xml:"int_dst,attr"`
	DelayMS float64 `xml:"int_delayms,attr"`
	KBPS    float64 `xml:"dbl_kbps,attr"`
	PLR     float64 `xml:"dbl_plr,attr"`
	Jitter  float64 `xml:"dbl_jitterms,attr"`
}

// ParseXML parses the ModelNet-like XML experiment syntax. Edges are
// unidirectional, as in ModelNet files; declare both directions for a
// duplex link.
func ParseXML(src string) (*Topology, error) {
	var x xmlTopology
	if err := xml.NewDecoder(strings.NewReader(src)).Decode(&x); err != nil {
		return nil, fmt.Errorf("topology: xml: %v", err)
	}
	t := &Topology{}
	nameOf := make(map[int]string)
	for _, v := range x.Vertices.Vertex {
		name := v.Name
		role := strings.ToLower(v.Role)
		isService := role == "virtnode" || role == "host" || role == "service"
		if name == "" {
			if isService {
				name = fmt.Sprintf("node%d", v.Idx)
			} else {
				name = fmt.Sprintf("switch%d", v.Idx)
			}
		}
		if _, dup := nameOf[v.Idx]; dup {
			return nil, fmt.Errorf("topology: xml: duplicate vertex index %d", v.Idx)
		}
		nameOf[v.Idx] = name
		if isService {
			t.Services = append(t.Services, ServiceDef{Name: name, Image: v.Image, Replicas: 1})
		} else {
			t.Bridges = append(t.Bridges, BridgeDef{Name: name})
		}
	}
	for i, e := range x.Edges.Edge {
		src, ok := nameOf[e.Src]
		if !ok {
			return nil, fmt.Errorf("topology: xml: edge %d references unknown vertex %d", i, e.Src)
		}
		dst, ok := nameOf[e.Dst]
		if !ok {
			return nil, fmt.Errorf("topology: xml: edge %d references unknown vertex %d", i, e.Dst)
		}
		if !(e.PLR >= 0 && e.PLR <= 1) {
			return nil, fmt.Errorf("topology: xml: edge %d loss %v out of range", i, e.PLR)
		}
		delay, err := xmlScale(i, "int_delayms", e.DelayMS, float64(time.Millisecond))
		if err != nil {
			return nil, err
		}
		jitter, err := xmlScale(i, "dbl_jitterms", e.Jitter, float64(time.Millisecond))
		if err != nil {
			return nil, err
		}
		bw, err := xmlScale(i, "dbl_kbps", e.KBPS, 1000)
		if err != nil {
			return nil, err
		}
		t.Links = append(t.Links, LinkDef{
			Orig:           src,
			Dest:           dst,
			Latency:        time.Duration(delay),
			Jitter:         time.Duration(jitter),
			Up:             units.Bandwidth(bw),
			Down:           units.Bandwidth(bw),
			Loss:           units.Loss(e.PLR),
			Unidirectional: true,
		})
	}
	return t, nil
}

// xmlScale returns v·unit as an int64, v being attribute name of edge
// number edge. NaN, ±Inf and a magnitude at or past 2^63 do not fit and
// are an error naming the edge, the attribute and the value; a negative
// value is left for Validate, which names the link.
func xmlScale(edge int, name string, v, unit float64) (int64, error) {
	x := v * unit
	if !(math.Abs(x) < math.MaxInt64) {
		return 0, fmt.Errorf("topology: xml: edge %d %s=%v out of range", edge, name, v)
	}
	return int64(x), nil
}
