package topology

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/units"
)

// listing1 is the paper's Listing 1 (static topology) with the elided
// links filled in to complete Figure 1 (left).
const listing1 = `
experiment:
  services:
    name: c1
    image: "iperf"
    name: sv
    image: "nginx"
    replicas: 2
  bridges:
    name: s1
    name: s2
  links:
    orig: c1
    dest: s1
    latency: 10
    up: 10Mbps
    down: 10Mbps
    jitter: 0.25
    orig: s1
    dest: s2
    latency: 20
    up: 100Mbps
    down: 100Mbps
    orig: s2
    dest: sv
    latency: 5
    up: 50Mbps
    down: 50Mbps
`

// listing2 is the paper's Listing 2 (dynamic events), adapted to the
// completed listing1 names.
const listing2 = listing1 + `
dynamic:
  orig: c1
  dest: s1
  jitter: 0.5
  time: 120
  action: leave
  name: s1
  time: 200
  action: join
  name: s1
  time: 205
  action: join
  orig: c1
  dest: s2
  up: 100Mbps
  down: 100Mbps
  latency: 10
  time: 210
  action: leave
  name: sv
  time: 240
`

func TestParseListing1(t *testing.T) {
	top, err := ParseYAML(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Services) != 2 {
		t.Fatalf("services = %d", len(top.Services))
	}
	if top.Services[0].Name != "c1" || top.Services[0].Image != "iperf" {
		t.Fatalf("service 0 = %+v", top.Services[0])
	}
	if top.Services[1].Replicas != 2 {
		t.Fatalf("sv replicas = %d", top.Services[1].Replicas)
	}
	if len(top.Bridges) != 2 || top.Bridges[0].Name != "s1" {
		t.Fatalf("bridges = %+v", top.Bridges)
	}
	if len(top.Links) != 3 {
		t.Fatalf("links = %d", len(top.Links))
	}
	l := top.Links[0]
	if l.Orig != "c1" || l.Dest != "s1" || l.Latency != 10*time.Millisecond ||
		l.Up != 10*units.Mbps || l.Jitter != 250*time.Microsecond {
		t.Fatalf("link 0 = %+v", l)
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseListing2Events(t *testing.T) {
	top, err := ParseYAML(listing2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Events) != 5 {
		t.Fatalf("events = %d, want 5", len(top.Events))
	}
	e := top.Events[0]
	if e.Kind != EvSetLink || e.At != 120*time.Second || e.Props.Jitter == nil ||
		*e.Props.Jitter != 500*time.Microsecond {
		t.Fatalf("event 0 = %+v", e)
	}
	if top.Events[1].Kind != EvNodeLeave || top.Events[1].Name != "s1" {
		t.Fatalf("event 1 = %+v", top.Events[1])
	}
	if top.Events[2].Kind != EvNodeJoin {
		t.Fatalf("event 2 = %+v", top.Events[2])
	}
	e = top.Events[3]
	if e.Kind != EvLinkJoin || e.Orig != "c1" || e.Dest != "s2" ||
		e.Props.Up == nil || *e.Props.Up != 100*units.Mbps {
		t.Fatalf("event 3 = %+v", e)
	}
	if top.Events[4].Kind != EvNodeLeave || top.Events[4].Name != "sv" {
		t.Fatalf("event 4 = %+v", top.Events[4])
	}
}

func TestBuildReplicasAndCollapse(t *testing.T) {
	top, err := ParseYAML(listing1)
	if err != nil {
		t.Fatal(err)
	}
	g, containers, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(containers["sv"]) != 2 {
		t.Fatalf("sv containers = %v", containers["sv"])
	}
	// 3 containers + 2 bridges
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	c1, _ := g.Lookup("c1")
	sv0, _ := g.Lookup("sv-0")
	sv1, _ := g.Lookup("sv-1")
	col := Collapse(g)
	// Figure 1 (right): c1 -> sv: 10Mb/s, 35ms.
	for _, dst := range []graph.NodeID{sv0, sv1} {
		p := col.Path(c1, dst)
		if p == nil {
			t.Fatalf("no collapsed path c1->%v", dst)
		}
		if p.Latency != 35*time.Millisecond || p.Bandwidth != 10*units.Mbps {
			t.Fatalf("collapsed c1->sv = %v/%v, want 35ms/10Mbps", p.Latency, p.Bandwidth)
		}
	}
	// sv-0 -> sv-1: 50Mb/s, 10ms.
	p := col.Path(sv0, sv1)
	if p.Latency != 10*time.Millisecond || p.Bandwidth != 50*units.Mbps {
		t.Fatalf("collapsed sv0->sv1 = %v/%v", p.Latency, p.Bandwidth)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"no services", func(t *Topology) { t.Services = nil }},
		{"dup name", func(t *Topology) { t.Bridges = append(t.Bridges, BridgeDef{Name: "c1"}) }},
		{"unknown orig", func(t *Topology) { t.Links[0].Orig = "ghost" }},
		{"unknown dest", func(t *Topology) { t.Links[0].Dest = "ghost" }},
		{"self loop", func(t *Topology) { t.Links[0].Dest = t.Links[0].Orig }},
		{"zero bandwidth", func(t *Topology) { t.Links[0].Up = 0 }},
		{"zero download", func(t *Topology) { t.Links[0].Down = 0 }},
		{"negative latency", func(t *Topology) { t.Links[0].Latency = -time.Millisecond }},
		{"negative jitter", func(t *Topology) { t.Links[0].Jitter = -time.Millisecond }},
		{"negative loss", func(t *Topology) { t.Links[0].Loss = -0.5 }},
		{"loss above one", func(t *Topology) { t.Links[0].Loss = 2 }},
		{"negative event time", func(t *Topology) {
			t.Events = append(t.Events, Event{At: -time.Second, Kind: EvNodeLeave, Name: "c1"})
		}},
		{"event unknown node", func(t *Topology) {
			t.Events = append(t.Events, Event{Kind: EvNodeLeave, Name: "ghost"})
		}},
	}
	for _, c := range cases {
		top, err := ParseYAML(listing1)
		if err != nil {
			t.Fatal(err)
		}
		c.mut(top)
		if err := top.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestValidateLinkProps: a declared link is held to the rule a SetLink
// event is (LinkPatch.check; TestValidateErrors has a case per value),
// the error names the link's index and endpoints, a unidirectional link
// has no download bandwidth to check, and the YAML dialect rejects the
// same values as it parses them.
func TestValidateLinkProps(t *testing.T) {
	top, err := ParseYAML(listing1)
	if err != nil {
		t.Fatal(err)
	}
	l := &top.Links[1]
	l.Latency = -time.Millisecond
	want := fmt.Sprintf("link 1 (%s->%s): negative latency", l.Orig, l.Dest)
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Validate = %v, want an error naming %q", err, want)
	}
	l.Latency, l.Unidirectional, l.Down = 0, true, 0
	if err := top.Validate(); err != nil {
		t.Errorf("a unidirectional link has no download bandwidth to check: %v", err)
	}
	for _, kv := range []string{"latency: -1ms", "jitter: -1ms", "loss: -0.5", "loss: 1.5", "loss: 150%"} {
		src := "experiment:\n  services:\n    name: a\n    name: b\n  links:\n    orig: a\n    dest: b\n    up: 10Mbps\n    " + kv + "\n"
		if top, err := ParseYAML(src); err == nil {
			t.Errorf("YAML %q parsed: %+v", kv, top.Links)
		}
	}
}

// TestParseOutOfRangeBandwidth: a rate too large for a Bandwidth, on a
// declared link or a dynamic event, fails the parse with an error that
// names the rate as written, not a wrapped negative one.
func TestParseOutOfRangeBandwidth(t *testing.T) {
	const rate = "99999999999Gbps"
	link := "experiment:\n  services:\n    name: a\n    name: b\n  links:\n    orig: a\n    dest: b\n    up: 10Mbps\n"
	for _, src := range []string{
		strings.Replace(link, "up: 10Mbps", "up: "+rate, 1),
		link + "    down: " + rate + "\n",
		strings.Replace(link, "up: 10Mbps", "bandwidth: "+rate, 1),
		link + "dynamic:\n  orig: a\n  dest: b\n  time: 1\n  up: " + rate + "\n",
	} {
		if _, err := ParseYAML(src); err == nil || !strings.Contains(err.Error(), rate) {
			t.Errorf("ParseYAML = %v, want an error naming %s\n%s", err, rate, src)
		}
	}
}

// TestParseOutOfRangeLatency: a bare latency too large for a
// time.Duration, on a link or a dynamic event, is a parse error naming
// the written value, not a wrapped negative latency Validate reports.
func TestParseOutOfRangeLatency(t *testing.T) {
	const lat = "1e13"
	link := "experiment:\n  services:\n    name: a\n    name: b\n  links:\n    orig: a\n    dest: b\n    latency: 10\n    up: 10Mbps\n"
	for _, src := range []string{
		strings.Replace(link, "latency: 10", "latency: "+lat, 1),
		link + "dynamic:\n  orig: a\n  dest: b\n  time: 1\n  latency: " + lat + "\n",
	} {
		if _, err := ParseYAML(src); err == nil || !strings.Contains(err.Error(), lat) {
			t.Errorf("ParseYAML = %v, want an error naming %s\n%s", err, lat, src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"experiment:\n  services:\n    name: a\n  links:\n    orig a", // missing colon
		"experiment:\n  services:\n    name: a\n    replicas: x",
		"experiment:\n  services:\n    name: a\n  links:\n    orig: a\n    dest: a\n    up: 10Qbps",
		"dynamic:\n  action: explode\n  time: 10",
		"dynamic:\n  action: leave\n  time: ten",
		"dynamic:\n  orig: a\n  dest: b\n  latency: 5", // missing time
		"stray: value",
	}
	for i, src := range bad {
		if _, err := ParseYAML(src); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, src)
		}
	}
}

// replay is the state sequence an experiment's dynamic events produce —
// the paper's pre-computed states (§3) — as the runtime builds it: the
// initial state, then one Live.Apply per same-time group.
func replay(t *testing.T, top *Topology) []State {
	t.Helper()
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	states := []State{*live.State()}
	for _, group := range SortAndGroup(top.Events) {
		if err := live.Apply(group[0].At, group...); err != nil {
			t.Fatal(err)
		}
		states = append(states, *live.State())
	}
	return states
}

func TestPrecomputeStates(t *testing.T) {
	top, err := ParseYAML(listing2)
	if err != nil {
		t.Fatal(err)
	}
	states := replay(t, top)
	// initial + 120 + 200 + 205 + 210 + 240
	if len(states) != 6 {
		t.Fatalf("states = %d, want 6", len(states))
	}
	g0 := states[0].Graph
	c1, _ := g0.Lookup("c1")
	sv0, _ := g0.Lookup("sv-0")

	// State 1 (t=120): jitter on c1<->s1 changed to 0.5ms; path latency
	// unchanged.
	p := states[1].Collapsed.Path(c1, sv0)
	if p == nil || p.Latency != 35*time.Millisecond {
		t.Fatalf("state1 path = %+v", p)
	}
	if p.Jitter < 400*time.Microsecond {
		t.Fatalf("state1 jitter = %v, want >= 0.5ms contribution", p.Jitter)
	}

	// State 2 (t=200): s1 left; c1 is disconnected from sv.
	if p := states[2].Collapsed.Path(c1, sv0); p != nil {
		t.Fatalf("state2: c1 should be disconnected, got %+v", p)
	}

	// State 3 (t=205): s1 rejoined; path restored.
	if p := states[3].Collapsed.Path(c1, sv0); p == nil || p.Latency != 35*time.Millisecond {
		t.Fatalf("state3: path not restored: %+v", p)
	}

	// State 4 (t=210): direct c1<->s2 100Mb/s 10ms link added; path now
	// 10+5 = 15ms and min(100, 50) = 50Mb/s.
	p = states[4].Collapsed.Path(c1, sv0)
	if p == nil || p.Latency != 15*time.Millisecond || p.Bandwidth != 50*units.Mbps {
		t.Fatalf("state4 path = %+v, want 15ms/50Mbps", p)
	}

	// State 5 (t=240): sv left; no paths to sv-0.
	if p := states[5].Collapsed.Path(c1, sv0); p != nil {
		t.Fatalf("state5: sv should be gone, got %+v", p)
	}
}

func TestPrecomputeLinkFlap(t *testing.T) {
	// A flapping link (§3): removed and re-inserted rapidly.
	src := listing1 + `
dynamic:
  action: leave
  orig: c1
  dest: s1
  time: 10
  action: join
  orig: c1
  dest: s1
  time: 10.5
  action: leave
  orig: c1
  dest: s1
  time: 11
  action: join
  orig: c1
  dest: s1
  time: 11.5
`
	top, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	states := replay(t, top)
	if len(states) != 5 {
		t.Fatalf("states = %d, want 5", len(states))
	}
	g := states[0].Graph
	c1, _ := g.Lookup("c1")
	sv0, _ := g.Lookup("sv-0")
	for i, want := range []bool{true, false, true, false, true} {
		p := states[i].Collapsed.Path(c1, sv0)
		if (p != nil) != want {
			t.Fatalf("state %d: connected=%v, want %v", i, p != nil, want)
		}
	}
	// Restored properties must match the original.
	p := states[2].Collapsed.Path(c1, sv0)
	if p.Bandwidth != 10*units.Mbps || p.Latency != 35*time.Millisecond {
		t.Fatalf("flap restore lost properties: %+v", p)
	}
}

func TestPrecomputeSimultaneousEvents(t *testing.T) {
	src := listing1 + `
dynamic:
  orig: c1
  dest: s1
  latency: 20
  time: 60
  orig: s2
  dest: sv
  latency: 10
  time: 60
`
	top, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	states := replay(t, top)
	if len(states) != 2 {
		t.Fatalf("states = %d, want 2 (events grouped)", len(states))
	}
	g := states[0].Graph
	c1, _ := g.Lookup("c1")
	sv0, _ := g.Lookup("sv-0")
	p := states[1].Collapsed.Path(c1, sv0)
	// 20 + 20 + 10 = 50ms now.
	if p.Latency != 50*time.Millisecond {
		t.Fatalf("grouped events: latency = %v, want 50ms", p.Latency)
	}
}

func TestParseXML(t *testing.T) {
	const src = `<?xml version="1.0"?>
<topology>
  <vertices>
    <vertex int_idx="0" role="virtnode" string_name="c1" string_image="iperf"/>
    <vertex int_idx="1" role="gateway"/>
    <vertex int_idx="2" role="virtnode"/>
  </vertices>
  <edges>
    <edge int_src="0" int_dst="1" int_delayms="10" dbl_kbps="10000" dbl_plr="0.01"/>
    <edge int_src="1" int_dst="0" int_delayms="10" dbl_kbps="10000" dbl_plr="0.01"/>
    <edge int_src="1" int_dst="2" int_delayms="5" dbl_kbps="50000"/>
    <edge int_src="2" int_dst="1" int_delayms="5" dbl_kbps="50000"/>
  </edges>
</topology>`
	top, err := ParseXML(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Services) != 2 || len(top.Bridges) != 1 || len(top.Links) != 4 {
		t.Fatalf("parsed %d services, %d bridges, %d links", len(top.Services), len(top.Bridges), len(top.Links))
	}
	if top.Services[0].Name != "c1" || top.Services[1].Name != "node2" {
		t.Fatalf("service names: %+v", top.Services)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := g.Lookup("c1")
	n2, _ := g.Lookup("node2")
	p := Collapse(g).Path(c1, n2)
	if p == nil || p.Latency != 15*time.Millisecond || p.Bandwidth != 10*units.Mbps {
		t.Fatalf("xml collapsed path = %+v", p)
	}
	if p.Loss < 0.009 || p.Loss > 0.011 {
		t.Fatalf("xml loss = %v, want 0.01", p.Loss)
	}
}

func TestParseXMLErrors(t *testing.T) {
	bad := []string{
		`not xml at all`,
		`<topology><vertices><vertex int_idx="0" role="virtnode"/><vertex int_idx="0" role="virtnode"/></vertices><edges></edges></topology>`,
		`<topology><vertices><vertex int_idx="0" role="virtnode"/></vertices><edges><edge int_src="0" int_dst="9" dbl_kbps="10"/></edges></topology>`,
		`<topology><vertices><vertex int_idx="0" role="virtnode"/><vertex int_idx="1" role="virtnode"/></vertices><edges><edge int_src="0" int_dst="1" dbl_kbps="10" dbl_plr="3"/></edges></topology>`,
	}
	for i, src := range bad {
		if _, err := ParseXML(src); err == nil {
			t.Errorf("case %d: expected xml error", i)
		}
	}
}

// TestParseXMLRejectsUnrepresentable: a delay, jitter or rate that does
// not fit its int64 unit (NaN, ±Inf, 1e13 ms, 1e17 kb/s) is an error
// naming the edge, the attribute and the value, not a wrapped number that
// Validate later reports as negative.
func TestParseXMLRejectsUnrepresentable(t *testing.T) {
	for _, tc := range []struct{ attr, value, want string }{
		{"int_delayms", "NaN", "edge 0 int_delayms=NaN"},
		{"int_delayms", "Inf", "edge 0 int_delayms=+Inf"},
		{"int_delayms", "-Inf", "edge 0 int_delayms=-Inf"},
		{"int_delayms", "1e13", "edge 0 int_delayms=1e+13"},
		{"dbl_jitterms", "NaN", "edge 0 dbl_jitterms=NaN"},
		{"dbl_jitterms", "Inf", "edge 0 dbl_jitterms=+Inf"},
		{"dbl_kbps", "1e17", "edge 0 dbl_kbps=1e+17"},
		{"dbl_kbps", "Inf", "edge 0 dbl_kbps=+Inf"},
		{"dbl_kbps", "NaN", "edge 0 dbl_kbps=NaN"},
		{"dbl_plr", "NaN", "edge 0 loss NaN"},
	} {
		attrs := map[string]string{"int_delayms": "5", "dbl_jitterms": "0", "dbl_kbps": "10000", "dbl_plr": "0"}
		attrs[tc.attr] = tc.value
		src := fmt.Sprintf(`<topology><vertices><vertex int_idx="0" role="virtnode"/><vertex int_idx="1" role="virtnode"/></vertices>`+
			`<edges><edge int_src="0" int_dst="1" int_delayms=%q dbl_jitterms=%q dbl_kbps=%q dbl_plr=%q/></edges></topology>`,
			attrs["int_delayms"], attrs["dbl_jitterms"], attrs["dbl_kbps"], attrs["dbl_plr"])
		_, err := ParseXML(src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s=%q: err = %v, want one naming %q", tc.attr, tc.value, err, tc.want)
		}
	}
}

func TestUnidirectionalLink(t *testing.T) {
	src := `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
    unidirectional: true
`
	top, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	if p := Collapse(g).Path(a, b); p == nil {
		t.Fatal("forward path missing")
	}
	if p := Collapse(g).Path(b, a); p != nil {
		t.Fatal("reverse path exists on a unidirectional link")
	}
}

func TestAsymmetricBandwidth(t *testing.T) {
	src := `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
    down: 100Mbps
`
	top, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	col := Collapse(g)
	if p := col.Path(a, b); p.Bandwidth != 10*units.Mbps {
		t.Fatalf("up = %v", p.Bandwidth)
	}
	if p := col.Path(b, a); p.Bandwidth != 100*units.Mbps {
		t.Fatalf("down = %v", p.Bandwidth)
	}
}

// liveTestYAML is a two-path topology for Live state-machine tests.
const liveTestYAML = `
experiment:
  services:
    name: a
    name: b
  links:
    orig: a
    dest: b
    latency: 10
    up: 10Mbps
`

func TestLiveApplyAtomic(t *testing.T) {
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	before := live.State()
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")

	// A group with a failing event must leave the state untouched.
	lat := 50 * time.Millisecond
	err = live.Apply(time.Second,
		Event{Kind: EvSetLink, Orig: "a", Dest: "b", Props: LinkPatch{Latency: &lat}},
		Event{Kind: EvLinkLeave, Orig: "a", Dest: "ghost"},
	)
	if err == nil {
		t.Fatal("expected error from bad event in group")
	}
	if live.State() != before {
		t.Fatal("failed group advanced the state")
	}
	if p := live.State().Collapsed.Path(a, b); p == nil || p.Latency != 10*time.Millisecond {
		t.Fatalf("failed group mutated the graph: %+v", p)
	}

	// A clean group advances; the old state snapshot stays valid.
	if err := live.Apply(time.Second,
		Event{Kind: EvSetLink, Orig: "a", Dest: "b", Props: LinkPatch{Latency: &lat}}); err != nil {
		t.Fatal(err)
	}
	if p := live.State().Collapsed.Path(a, b); p == nil || p.Latency != lat {
		t.Fatalf("set-link not applied: %+v", p)
	}
	if p := before.Collapsed.Path(a, b); p == nil || p.Latency != 10*time.Millisecond {
		t.Fatal("prior state snapshot was mutated in place")
	}

	// Leave/join round-trips through the tombstone memory.
	if err := live.Apply(2*time.Second, Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("leave kept the path alive")
	}
	if err := live.Apply(3*time.Second, Event{Kind: EvLinkJoin, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	if p := live.State().Collapsed.Path(a, b); p == nil || p.Latency != lat {
		t.Fatalf("join did not restore patched props: %+v", p)
	}
	if at := live.State().At; at != 3*time.Second {
		t.Fatalf("state At = %v, want 3s", at)
	}
}

func TestDryRunValidates(t *testing.T) {
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	ok := []Event{
		{At: time.Second, Kind: EvLinkLeave, Orig: "a", Dest: "b"},
		{At: 2 * time.Second, Kind: EvLinkJoin, Orig: "a", Dest: "b"},
	}
	final, err := DryRun(g, ok)
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.At != 2*time.Second {
		t.Fatalf("final state = %+v, want At=2s", final)
	}
	// DryRun must not touch the input graph.
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	if Collapse(g).Path(a, b) == nil {
		t.Fatal("DryRun mutated the input graph")
	}
	// Order matters: a join before its leave has nothing to restore but
	// creates a fresh link; a leave of a never-linked pair errors.
	bad := []Event{{At: time.Second, Kind: EvLinkLeave, Orig: "b", Dest: "b"}}
	if _, err := DryRun(g, bad); err == nil {
		t.Fatal("expected DryRun error for leave of nonexistent link")
	}
}

func TestNodeJoinRestoresOnlyItsOwnRemovals(t *testing.T) {
	// A node-join must not resurrect links taken down by an unrelated,
	// still-active link-leave (the Churn-over-scheduled-failures
	// interleaving of the live API).
	src := `
experiment:
  services:
    name: a
    name: b
  bridges:
    name: s1
  links:
    orig: a
    dest: s1
    latency: 5
    up: 10Mbps
    orig: b
    dest: s1
    latency: 5
    up: 10Mbps
`
	top, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	// Scheduled failure: a-s1 goes down and is meant to stay down.
	if err := live.Apply(1*time.Second, Event{Kind: EvLinkLeave, Orig: "a", Dest: "s1"}); err != nil {
		t.Fatal(err)
	}
	// Churn: node a leaves (its remaining links — none live — tombstone
	// under node ownership) and rejoins.
	if err := live.Apply(2*time.Second, Event{Kind: EvNodeLeave, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := live.Apply(3*time.Second, Event{Kind: EvNodeJoin, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("node-join resurrected a link owned by a separate link-leave")
	}
	// The link's own join still restores it.
	if err := live.Apply(4*time.Second, Event{Kind: EvLinkJoin, Orig: "a", Dest: "s1"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) == nil {
		t.Fatal("link-join failed to restore its own link")
	}
	// And a plain node leave/join round-trip still heals fully.
	if err := live.Apply(5*time.Second, Event{Kind: EvNodeLeave, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("node-leave did not cut the path")
	}
	if err := live.Apply(6*time.Second, Event{Kind: EvNodeJoin, Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) == nil {
		t.Fatal("node-join did not restore its own removals")
	}
}

func TestNodeLeavesStack(t *testing.T) {
	// Two independent leaves of the same node need two joins: the first
	// join must not end the other actor's outage.
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	for i, ev := range []Event{
		{Kind: EvNodeLeave, Name: "a"}, // scheduled outage
		{Kind: EvNodeLeave, Name: "a"}, // churn hits the same node
		{Kind: EvNodeJoin, Name: "a"},  // churn rejoin: still down
	} {
		if err := live.Apply(time.Duration(i+1)*time.Second, ev); err != nil {
			t.Fatal(err)
		}
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("first of two joins ended a doubly-held node outage")
	}
	if err := live.Apply(4*time.Second, Event{Kind: EvNodeJoin, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) == nil {
		t.Fatal("final join did not restore the node")
	}
}

func TestLinkLeavesStack(t *testing.T) {
	// Link outages stack like node outages: two leaves of the same link
	// need two joins, so the first join must not end the other actor's
	// outage.
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	for i, ev := range []Event{
		{Kind: EvLinkLeave, Orig: "a", Dest: "b"}, // scheduled outage
		{Kind: EvLinkLeave, Orig: "a", Dest: "b"}, // a second actor on the same link
		{Kind: EvLinkJoin, Orig: "a", Dest: "b"},  // its join: still down
	} {
		if err := live.Apply(time.Duration(i+1)*time.Second, ev); err != nil {
			t.Fatal(err)
		}
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("first of two joins ended a doubly-held link outage")
	}
	if err := live.Apply(4*time.Second, Event{Kind: EvLinkJoin, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) == nil {
		t.Fatal("final join did not restore the link")
	}
}

func TestApplyIfVetoKeepsState(t *testing.T) {
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	before := live.State()
	veto := fmt.Errorf("vetoed")
	err = live.ApplyIf(time.Second, func(*State) error { return veto },
		Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"})
	if err != veto {
		t.Fatalf("err = %v, want the veto", err)
	}
	if live.State() != before {
		t.Fatal("vetoed group advanced the state")
	}
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	// The link must still be removable afterwards (tombstones untouched).
	if err := live.Apply(time.Second, Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"}); err != nil {
		t.Fatal(err)
	}
	if live.State().Collapsed.Path(a, b) != nil {
		t.Fatal("post-veto apply failed")
	}
}

func TestOverlappingOutagesStack(t *testing.T) {
	// Link- and node-outages over the same link compose in any
	// interleaving: each leave adds a hold, each join releases its own,
	// and the link returns only when no hold remains.
	top, err := ParseYAML(liveTestYAML)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(g)
	a, _ := g.Lookup("a")
	b, _ := g.Lookup("b")
	up := func() bool { return live.State().Collapsed.Path(a, b) != nil }
	step := func(i int, ev Event) {
		t.Helper()
		if err := live.Apply(time.Duration(i)*time.Second, ev); err != nil {
			t.Fatalf("step %d (%v): %v", i, ev.Kind, err)
		}
	}
	// Node a goes down, then a scheduled link-leave lands on the already
	// tombstoned link (no error), node a rejoins — the link outage holds.
	step(1, Event{Kind: EvNodeLeave, Name: "a"})
	step(2, Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"})
	step(3, Event{Kind: EvNodeJoin, Name: "a"})
	if up() {
		t.Fatal("node rejoin ended a link-leave outage")
	}
	// A set-link while down patches the stored props.
	lat := 25 * time.Millisecond
	step(4, Event{Kind: EvSetLink, Orig: "a", Dest: "b", Props: LinkPatch{Latency: &lat}})
	step(5, Event{Kind: EvLinkJoin, Orig: "a", Dest: "b"})
	if !up() {
		t.Fatal("link-join did not end the last hold")
	}
	if p := live.State().Collapsed.Path(a, b); p.Latency != lat {
		t.Fatalf("latency = %v, want patched %v applied while down", p.Latency, lat)
	}
	// Reverse interleaving: link down, node down, link up — the node's
	// hold keeps it down until the node rejoins.
	step(6, Event{Kind: EvLinkLeave, Orig: "a", Dest: "b"})
	step(7, Event{Kind: EvNodeLeave, Name: "a"})
	step(8, Event{Kind: EvLinkJoin, Orig: "a", Dest: "b"})
	if up() {
		t.Fatal("link-join ended a node outage's hold")
	}
	step(9, Event{Kind: EvNodeJoin, Name: "a"})
	if !up() {
		t.Fatal("node rejoin did not restore the link")
	}
}
