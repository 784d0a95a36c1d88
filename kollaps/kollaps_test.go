package kollaps

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/transport"
)

const quickYAML = `
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

func TestLoadYAML(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Topology.Services) != 2 {
		t.Fatalf("services = %d", len(exp.Topology.Services))
	}
}

func TestLoadXMLAutodetect(t *testing.T) {
	const xml = `<topology>
  <vertices>
    <vertex int_idx="0" role="virtnode"/>
    <vertex int_idx="1" role="virtnode"/>
  </vertices>
  <edges>
    <edge int_src="0" int_dst="1" int_delayms="5" dbl_kbps="10000"/>
    <edge int_src="1" int_dst="0" int_delayms="5" dbl_kbps="10000"/>
  </edges>
</topology>`
	exp, err := Load(xml)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Topology.Services) != 2 {
		t.Fatalf("xml services = %d", len(exp.Topology.Services))
	}
}

func TestLoadErrors(t *testing.T) {
	for _, bad := range []string{
		"",            // empty
		"nonsense: [", // not the dialect
		"experiment:\n  services:\n    name: a\n  links:\n    orig: a\n    dest: ghost\n    up: 1Mbps",
	} {
		if _, err := Load(bad); err == nil {
			t.Errorf("Load(%q): expected error", bad)
		}
	}
}

func TestDeployAndRun(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	a, err := exp.Container("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := exp.Container("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Container("ghost"); err == nil {
		t.Fatal("expected unknown-container error")
	}
	var got int64
	b.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := a.Stack.Dial(b.IP, 80, transport.Cubic)
	conn.Write(50_000)
	exp.Run(5 * time.Second)
	if got != 50_000 {
		t.Fatalf("moved %d/50000 through deployed topology", got)
	}
}

func TestAppStackProvider(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := exp.AppStack("a"); err == nil {
		t.Fatal("AppStack before Deploy should error")
	}
	if err := exp.Deploy(1); err != nil {
		t.Fatal(err)
	}
	var _ apps.StackProvider = exp // compile-time interface check
	st, ip, err := exp.AppStack("a")
	if err != nil || st == nil || ip == ([4]byte{}) {
		t.Fatalf("AppStack = %v %v %v", st, ip, err)
	}
}

func TestDeterministicDeployments(t *testing.T) {
	run := func() int64 {
		exp, _ := Load(quickYAML)
		_ = exp.Deploy(2, WithSeed(7))
		a, _ := exp.Container("a")
		b, _ := exp.Container("b")
		var got int64
		b.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
			c.OnData = func(n int) { got += int64(n) }
		}})
		conn := a.Stack.Dial(b.IP, 80, transport.Reno)
		conn.Write(1 << 22)
		exp.Run(3 * time.Second)
		return got
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic runs: %d vs %d", a, b)
	}
}

func TestLoadRejectsMixedContent(t *testing.T) {
	// A YAML file mentioning "<topology" is parsed as XML and must fail
	// loudly rather than silently producing an empty experiment.
	src := strings.ReplaceAll(quickYAML, "experiment:", "# <topology>\nexperiment:")
	if _, err := Load(src); err == nil {
		t.Fatal("expected parse failure for ambiguous content")
	}
}
