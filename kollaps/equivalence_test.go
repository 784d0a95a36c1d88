package kollaps

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// The equivalence scenario: two CBR flows (a->b, c->d) compete on a
// shared 10 Mb/s trunk; at 2s the a-side access latency quadruples
// (shifting the RTT-aware allocation), at 4s c is cut off, at 6s it
// heals. The per-flow goodput trajectory depends on every allocation
// decision and every metadata datagram, so byte-equal results mean the
// two expressions of the scenario drove identical deterministic runs.
const equivStaticYAML = `
experiment:
  services:
    name: a
    name: b
    name: c
    name: d
  bridges:
    name: s1
    name: s2
  links:
    orig: a
    dest: s1
    latency: 5
    up: 10Mbps
    orig: c
    dest: s1
    latency: 5
    up: 10Mbps
    orig: s1
    dest: s2
    latency: 10
    up: 10Mbps
    orig: b
    dest: s2
    latency: 5
    up: 10Mbps
    orig: d
    dest: s2
    latency: 5
    up: 10Mbps
`

const equivDynamicYAML = equivStaticYAML + `
dynamic:
  orig: a
  dest: s1
  latency: 20
  time: 2
  action: leave
  orig: c
  dest: s1
  time: 4
  action: join
  orig: c
  dest: s1
  time: 6
`

// equivDrive attaches the CBR workloads and runs the deployed scenario to
// 8s, returning per-flow received bytes.
func equivDrive(t *testing.T, exp *Experiment) [2]int64 {
	t.Helper()
	var received [2]int64
	const payload = 1000
	// 8 Mb/s offered per flow against a ~5 Mb/s fair share.
	interval := time.Duration(float64(payload*8) / 8e6 * float64(time.Second))
	for i, pair := range [][2]string{{"a", "b"}, {"c", "d"}} {
		i := i
		src, err := exp.Container(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		dst, err := exp.Container(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		dst.Stack.HandleUDP(9000, func(_ packet.IP, _ uint16, size int, _ any) {
			received[i] += int64(size)
		})
		dstIP := dst.IP
		exp.Eng.Every(interval, func() {
			src.Stack.SendUDP(dstIP, 9000, 9000, payload, nil)
		})
	}
	if err := exp.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	return received
}

// equivPlacement pins the two senders to different hosts so their
// managers only see each other's flows through the dissemination
// strategy under test (round-robin would co-locate them and bypass it).
var equivPlacement = map[string]int{"a": 0, "b": 2, "c": 1, "d": 3}

func TestDynamicScenarioEquivalence(t *testing.T) {
	deployOpts := func(strategy string) []Option {
		return []Option{WithSeed(7), WithDissem(strategy, DissemFanout(2)), WithPlacement(equivPlacement)}
	}

	// Form 1: the YAML dialect's frozen dynamic: event list.
	yamlForm := func(t *testing.T, strategy string) [2]int64 {
		exp, err := Load(equivDynamicYAML)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(4, deployOpts(strategy)...); err != nil {
			t.Fatal(err)
		}
		return equivDrive(t, exp)
	}

	// Form 2: no YAML at all — programmatic builder plus At().
	builderForm := func(t *testing.T, strategy string) [2]int64 {
		exp, err := NewTopology().
			Service("a").Service("b").Service("c").Service("d").
			Bridge("s1", "s2").
			Link("a", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("c", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("s1", "s2", Latency(10*time.Millisecond), Up(10*units.Mbps)).
			Link("b", "s2", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("d", "s2", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			At(2*time.Second, Set("a", "s1", Latency(20*time.Millisecond))).
			At(4*time.Second, LinkDown("c", "s1")).
			At(6*time.Second, LinkUp("c", "s1")).
			Experiment()
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(4, deployOpts(strategy)...); err != nil {
			t.Fatal(err)
		}
		return equivDrive(t, exp)
	}

	// Form 3: mixed — the set-link event stays in the YAML dynamic:
	// section, the partition/heal pair is scheduled on the live runtime.
	mixedForm := func(t *testing.T, strategy string) [2]int64 {
		exp, err := Load(equivStaticYAML + `
dynamic:
  orig: a
  dest: s1
  latency: 20
  time: 2
`)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(4, deployOpts(strategy)...); err != nil {
			t.Fatal(err)
		}
		if err := exp.At(4*time.Second, LinkDown("c", "s1")); err != nil {
			t.Fatal(err)
		}
		if err := exp.At(6*time.Second, LinkUp("c", "s1")); err != nil {
			t.Fatal(err)
		}
		return equivDrive(t, exp)
	}

	perStrategy := make(map[string][2]int64)
	for _, strategy := range []string{"broadcast", "delta", "tree", "gossip"} {
		t.Run(strategy, func(t *testing.T) {
			fromYAML := yamlForm(t, strategy)
			fromBuilder := builderForm(t, strategy)
			fromMixed := mixedForm(t, strategy)
			if fromYAML != fromBuilder {
				t.Errorf("YAML %v != builder %v", fromYAML, fromBuilder)
			}
			if fromYAML != fromMixed {
				t.Errorf("YAML %v != mixed %v", fromYAML, fromMixed)
			}
			// Sanity: the scenario actually exercised the dynamics — the
			// c->d flow lost its 4s..6s window, so it must trail a->b.
			if fromYAML[1] >= fromYAML[0] {
				t.Errorf("c->d (%d B) should trail a->b (%d B) after its outage", fromYAML[1], fromYAML[0])
			}
			perStrategy[strategy] = fromYAML
			t.Logf("%s: a->b %d B, c->d %d B (identical across all three forms)", strategy, fromYAML[0], fromYAML[1])
		})
	}
	// The strategy choice must not distort the emulation either: in this
	// scenario metadata converges within every strategy's staleness
	// bound, so all four must drive bit-identical per-flow results. (The
	// control-plane *traffic* still differs per strategy — see
	// TestEquivalenceStrategiesExercised.)
	for _, strategy := range []string{"delta", "tree", "gossip"} {
		if got, want := perStrategy[strategy], perStrategy["broadcast"]; got != want {
			t.Errorf("%s per-flow results %v differ from broadcast's %v", strategy, got, want)
		}
	}

	// The same scenario under a different seed still agrees across forms
	// (checked for one strategy to bound runtime).
	seedCheck := func(seed int64) {
		exp, err := Load(equivDynamicYAML)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(4, WithSeed(seed), WithPlacement(equivPlacement)); err != nil {
			t.Fatal(err)
		}
		a := equivDrive(t, exp)
		exp2, err := Load(equivDynamicYAML)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp2.Deploy(4, WithSeed(seed), WithPlacement(equivPlacement)); err != nil {
			t.Fatal(err)
		}
		if b := equivDrive(t, exp2); a != b {
			t.Errorf("seed %d: repeated runs diverged: %v vs %v", seed, a, b)
		}
	}
	seedCheck(0)
}

// TestEquivalenceStrategiesExercised guards against a degenerate pass of
// the equivalence test: the three strategies must actually take different
// control-plane paths for the scenario (different wire traffic), so the
// per-strategy cross-form equality above is three distinct proofs rather
// than one repeated three times. (The per-flow *results* may legitimately
// coincide across strategies — the dissemination subsystem is designed so
// the strategy choice does not distort the emulation.)
func TestEquivalenceStrategiesExercised(t *testing.T) {
	bytesSent := make(map[string]int64)
	for _, strategy := range []string{"broadcast", "delta", "tree", "gossip"} {
		exp, err := Load(equivDynamicYAML)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(4, WithSeed(7), WithDissem(strategy, DissemFanout(2)), WithPlacement(equivPlacement)); err != nil {
			t.Fatal(err)
		}
		equivDrive(t, exp)
		s := exp.DissemSummary()
		if s.DatagramsSent == 0 {
			t.Fatalf("%s: no control-plane traffic — scenario not multi-host?", strategy)
		}
		bytesSent[strategy] = s.BytesSent
	}
	if bytesSent["broadcast"] == bytesSent["delta"] || bytesSent["broadcast"] == bytesSent["tree"] || bytesSent["broadcast"] == bytesSent["gossip"] {
		t.Fatalf("control-plane traffic did not distinguish strategies: %v", bytesSent)
	}
	t.Logf("control-plane bytes: %v", bytesSent)
}
