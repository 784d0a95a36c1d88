package kollaps

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
	"repro/internal/units"
)

func TestRunBeforeDeployErrors(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(time.Second); err == nil {
		t.Fatal("Run before Deploy must error, not silently no-op")
	}
}

// TestRunIntoThePastErrors: Run(until) with until before Now used to
// return nil having done nothing; now the error names both times.
// Running to Now stays a valid no-op.
func TestRunIntoThePastErrors(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(1); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	err = exp.Run(time.Second)
	if err == nil || !strings.Contains(err.Error(), "1s") || !strings.Contains(err.Error(), "2s") {
		t.Fatalf("Run(1s) at 2s = %v, want an error naming both times", err)
	}
	if err := exp.Run(2 * time.Second); err != nil {
		t.Fatalf("Run(Now()) = %v, want nil", err)
	}
	if now := exp.Eng.Now(); now != 2*time.Second {
		t.Fatalf("clock at %v after the rejected Run, want 2s", now)
	}
}

func TestDeployHostValidation(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	for _, hosts := range []int{0, -3} {
		if err := exp.Deploy(hosts); err == nil {
			t.Fatalf("Deploy(%d) must error", hosts)
		}
	}
	// Manager h is 10.255.0.h and host h's containers are 10.(h+1).x.y:
	// a 255th host would put its containers in the managers' subnet (and
	// a 257th manager on manager 0's address). The error names the limit.
	if err := exp.Deploy(255); err == nil || !strings.Contains(err.Error(), "254") {
		t.Fatalf("Deploy(255) = %v, want an error naming the limit of 254 hosts", err)
	}
	if exp.Runtime != nil || exp.Eng != nil {
		t.Fatal("a rejected Deploy left a runtime behind")
	}
	// A negative period is an error, not a silent 50ms default.
	err = exp.Deploy(1, WithPeriod(-time.Second))
	if err == nil || !strings.Contains(err.Error(), "-1s") {
		t.Fatalf("Deploy(WithPeriod(-1s)) = %v, want an error naming the value", err)
	}
	// So is a negative dissemination knob — it used to run at the default
	// without a word — and the error names the field and the value.
	for _, tc := range []struct {
		opt   DissemOption
		field string
		value string
	}{
		{DissemFanout(-3), "Fanout", "-3"},
		// A non-finite epsilon would silently stop Delta from re-sending
		// any change between resyncs.
		{DissemEpsilon(math.NaN()), "Epsilon", "NaN"},
		{DissemEpsilon(math.Inf(1)), "Epsilon", "+Inf"},
	} {
		err := exp.Deploy(1, WithDissem("gossip", tc.opt))
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.value) {
			t.Fatalf("Deploy with %s = %s: got %v, want an error naming both", tc.field, tc.value, err)
		}
	}
	// Zero still means "default".
	if err := exp.Deploy(1, WithPeriod(0), WithDissem("gossip", DissemFanout(0))); err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(1); err == nil {
		t.Fatal("second Deploy must error")
	}
}

func TestSeedZeroHonored(t *testing.T) {
	deploy := func(t *testing.T, opts ...Option) *Experiment {
		t.Helper()
		exp, err := Load(quickYAML)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(1, opts...); err != nil {
			t.Fatal(err)
		}
		return exp
	}
	if got := deploy(t, WithSeed(0)).Seed(); got != 0 {
		t.Fatalf("WithSeed(0) deployed seed %d, want an honored 0", got)
	}
	if got := deploy(t).Seed(); got != 42 {
		t.Fatalf("default seed = %d, want 42", got)
	}
	// Seed 0 runs deterministically like any other seed.
	run := func() int64 {
		exp := deploy(t, WithSeed(0))
		a, _ := exp.Container("a")
		b, _ := exp.Container("b")
		var got int64
		b.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
			c.OnData = func(n int) { got += int64(n) }
		}})
		conn := a.Stack.Dial(b.IP, 80, transport.Reno)
		conn.Write(1 << 20)
		if err := exp.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if x, y := run(), run(); x != y {
		t.Fatalf("seed-0 runs diverged: %d vs %d", x, y)
	}
}

func TestTopologyBuilder(t *testing.T) {
	exp, err := NewTopology().
		Service("a").
		Service("kv", Replicas(2), Image("kv:latest")).
		Bridge("s1").
		Link("a", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
		Link("kv", "s1", Latency(5*time.Millisecond), Up(20*units.Mbps), Down(10*units.Mbps)).
		Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "kv-0", "kv-1"} {
		if _, err := exp.Container(name); err != nil {
			t.Fatalf("container %q: %v", name, err)
		}
	}
	a, _ := exp.Container("a")
	kv0, _ := exp.Container("kv-0")
	var got int64
	kv0.Stack.Listen(80, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { got += int64(n) }
	}})
	conn := a.Stack.Dial(kv0.IP, 80, transport.Cubic)
	conn.Write(50_000)
	if err := exp.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 50_000 {
		t.Fatalf("moved %d/50000 through built topology", got)
	}
}

func TestTopologyBuilderValidates(t *testing.T) {
	if _, err := NewTopology().Experiment(); err == nil {
		t.Fatal("empty topology must not validate")
	}
	if _, err := NewTopology().
		Service("a").
		Link("a", "ghost", Up(units.Mbps)).
		Experiment(); err == nil {
		t.Fatal("dangling link endpoint must not validate")
	}
	if _, err := NewTopology().
		Service("a").Service("b").
		Link("a", "b", Latency(time.Millisecond)).
		Experiment(); err == nil {
		t.Fatal("link without bandwidth must not validate")
	}
	// Bad pre-registered events surface at Experiment() / Deploy.
	exp, err := NewTopology().
		Service("a").Service("b").
		Link("a", "b", Up(units.Mbps)).
		At(time.Second, LinkDown("a", "ghost")).
		Experiment()
	if err == nil && exp != nil {
		if err = exp.Deploy(1); err == nil {
			t.Fatal("event referencing unknown node survived validation and deploy")
		}
	}
}

// TestTopologyBuilderValidatesLinkProps: properties a SetLink event
// would reject are rejected at declaration too, as an error from
// Experiment rather than a panic once the first packet is scheduled.
func TestTopologyBuilderValidatesLinkProps(t *testing.T) {
	for name, opt := range map[string]LinkOption{
		"negative latency": Latency(-time.Millisecond),
		"negative jitter":  Jitter(-time.Millisecond),
		"negative loss":    Loss(-0.5),
		"loss above one":   Loss(2),
	} {
		exp, err := NewTopology().
			Service("a").Service("b").
			Link("a", "b", Latency(time.Millisecond), Up(10*units.Mbps), opt).
			Experiment()
		if err == nil {
			t.Errorf("%s: Experiment returned %v, want an error", name, exp)
		} else if !strings.Contains(err.Error(), "link 0 (a->b)") {
			t.Errorf("%s: error %q does not name the link", name, err)
		}
	}
}

func TestImmediateMutation(t *testing.T) {
	exp, err := NewTopology().
		Service("a").Service("b").
		Link("a", "b", Latency(10*time.Millisecond), Up(100*units.Mbps)).
		Experiment()
	if err != nil {
		t.Fatal(err)
	}
	// Mutation before Deploy is an error.
	if err := exp.apply(LinkDown("a", "b")); err == nil {
		t.Fatal("a live LinkDown before Deploy must error")
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	a, _ := exp.Container("a")
	b, _ := exp.Container("b")

	var rtts []time.Duration
	ping := func() {
		a.Stack.Ping(b.IP, 64, func(d time.Duration) { rtts = append(rtts, d) })
	}
	// Phase 1: 10ms link → ~20ms RTT. Phase 2 (SetLink to 50ms): ~100ms.
	// Phase 3 (LinkDown): lost. Phase 4 (LinkUp): restored props.
	exp.Eng.At(100*time.Millisecond, ping)
	exp.Eng.At(1*time.Second, func() {
		if err := exp.SetLink("a", "b", Latency(50*time.Millisecond)); err != nil {
			t.Error(err)
		}
		ping()
	})
	exp.Eng.At(2*time.Second, func() {
		if err := exp.apply(LinkDown("a", "b")); err != nil {
			t.Error(err)
		}
		ping()
	})
	exp.Eng.At(3*time.Second, func() {
		if err := exp.apply(LinkUp("a", "b")); err != nil {
			t.Error(err)
		}
		ping()
	})
	if err := exp.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 3 {
		t.Fatalf("got %d ping replies, want 3 (one lost while the link was down)", len(rtts))
	}
	within := func(d, want time.Duration) bool {
		diff := d - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 2*time.Millisecond
	}
	if !within(rtts[0], 20*time.Millisecond) {
		t.Fatalf("phase-1 RTT = %v, want ~20ms", rtts[0])
	}
	if !within(rtts[1], 100*time.Millisecond) {
		t.Fatalf("post-SetLink RTT = %v, want ~100ms", rtts[1])
	}
	if !within(rtts[2], 100*time.Millisecond) {
		t.Fatalf("post-LinkUp RTT = %v, want ~100ms (restored props)", rtts[2])
	}
}

func TestSetLinkRejectsImpossibleValues(t *testing.T) {
	build := func() *TopologyBuilder {
		return NewTopology().
			Service("a").Service("b").Bridge("s").
			Link("a", "s", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("b", "s", Latency(5*time.Millisecond), Up(10*units.Mbps))
	}
	exp, err := build().Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	// A negative bandwidth is the graph's tombstone sentinel: accepted, it
	// took the link out of routing with nothing to bring it back, and the
	// next LinkUp added a fresh zero-bandwidth pair beside it.
	for name, opt := range map[string]LinkOption{
		"Up(-5)":         Up(-5),
		"Latency(-10ms)": Latency(-10 * time.Millisecond),
		"Jitter(-1ms)":   Jitter(-time.Millisecond),
		"Loss(2)":        Loss(2),
	} {
		if err := exp.SetLink("a", "s", opt); err == nil {
			t.Errorf("SetLink with %s was accepted", name)
		}
	}
	if gen := exp.Runtime.TopologyGen(); gen != 1 {
		t.Fatalf("rejected SetLinks moved the topology to generation %d", gen)
	}
	if err := exp.apply(LinkDown("a", "s")); err != nil {
		t.Fatal(err)
	}
	if err := exp.apply(LinkUp("a", "s")); err != nil {
		t.Fatal(err)
	}
	// Each applied change moves the generation by exactly one.
	if gen := exp.Runtime.TopologyGen(); gen != 3 {
		t.Fatalf("after fail/restore the topology is at generation %d, want 3", gen)
	}
	a, _ := exp.Container("a")
	b, _ := exp.Container("b")
	st := exp.Runtime.State()
	if p := st.Collapsed.Path(a.Node, b.Node); st.Graph.NumLinks() != 4 || p == nil ||
		p.Bandwidth != 10*units.Mbps || p.Latency != 10*time.Millisecond {
		t.Fatalf("after fail/restore: %d links, path %+v; want 4 links, 10Mbps, 10ms", st.Graph.NumLinks(), p)
	}
	// The same check guards pre-registered events, at Deploy at the latest.
	exp, err = build().At(time.Second, Set("a", "s", Up(-5))).Experiment()
	if err == nil {
		err = exp.Deploy(2)
	}
	if err == nil {
		t.Fatal("a pre-registered Set with a negative bandwidth survived Deploy")
	}
}

func TestNodeLeaveJoin(t *testing.T) {
	exp, err := NewTopology().
		Service("a").Service("b").Bridge("s1").
		Link("a", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
		Link("b", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
		Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	a, _ := exp.Container("a")
	b, _ := exp.Container("b")
	replies := 0
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * time.Second
		exp.Eng.At(at, func() {
			a.Stack.Ping(b.IP, 64, func(time.Duration) { replies++ })
		})
	}
	exp.Eng.At(1500*time.Millisecond, func() {
		if err := exp.Leave("b"); err != nil {
			t.Error(err)
		}
	})
	exp.Eng.At(3500*time.Millisecond, func() {
		if err := exp.Join("b"); err != nil {
			t.Error(err)
		}
	})
	if err := exp.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Pings at 0s,1s and 4s,5s succeed; 2s,3s fall into the outage.
	if replies != 4 {
		t.Fatalf("replies = %d, want 4 around a [1.5s,3.5s) node outage", replies)
	}
}

func TestChurnDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) (int, int64) {
		exp, err := NewTopology().
			Service("a").Service("b").Service("c").Bridge("s1").
			Link("a", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("b", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Link("c", "s1", Latency(5*time.Millisecond), Up(10*units.Mbps)).
			Experiment()
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Deploy(2, WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
		a, _ := exp.Container("a")
		b, _ := exp.Container("b")
		stop, err := exp.Churn(1.0, ChurnTargets("b", "c"), ChurnDowntime(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		replies := 0
		var lastRTT int64
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * 100 * time.Millisecond
			exp.Eng.At(at, func() {
				a.Stack.Ping(b.IP, 64, func(d time.Duration) {
					replies++
					lastRTT = int64(d)
				})
			})
		}
		exp.Eng.At(9*time.Second, func() { stop() })
		if err := exp.Run(11 * time.Second); err != nil {
			t.Fatal(err)
		}
		return replies, lastRTT
	}
	r1, l1 := run(3)
	r2, l2 := run(3)
	if r1 != r2 || l1 != l2 {
		t.Fatalf("same-seed churn diverged: (%d,%d) vs (%d,%d)", r1, l1, r2, l2)
	}
	if r1 == 100 {
		t.Fatal("churn at rate 1/s took no pings down in 10s — not churning?")
	}
	r3, _ := run(4)
	if r3 == r1 {
		t.Logf("note: seeds 3 and 4 produced identical loss counts (%d); legal but unusual", r1)
	}
}

func TestChurnValidation(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Churn(1); err == nil {
		t.Fatal("Churn before Deploy must error")
	}
	if err := exp.Deploy(1); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Churn(0); err == nil {
		t.Fatal("zero churn rate must error")
	}
	if _, err := exp.Churn(1, ChurnTargets("ghost")); err == nil {
		t.Fatal("unknown churn target must error")
	}
	// A negative downtime used to rejoin at once (the engine clamps a
	// negative gap); now both churn drivers name the value. Zero stays a
	// valid (instant) downtime.
	for name, churn := range map[string]func(...ChurnOption) (func(), error){
		"Churn":        func(o ...ChurnOption) (func(), error) { return exp.Churn(1, o...) },
		"ManagerChurn": func(o ...ChurnOption) (func(), error) { return exp.ManagerChurn(1, o...) },
	} {
		if _, err := churn(ChurnDowntime(-time.Second)); err == nil || !strings.Contains(err.Error(), "-1s") {
			t.Fatalf("%s(ChurnDowntime(-1s)) = %v, want an error naming the value", name, err)
		}
		stop, err := churn(ChurnDowntime(0))
		if err != nil {
			t.Fatalf("%s(ChurnDowntime(0)): %v", name, err)
		}
		stop()
	}
	// A NaN or +Inf rate used to be accepted, and the next Run never
	// returned: every gap came out as zero (or as NaN wrapped negative,
	// which the engine runs at once), so the driver re-armed at the same
	// instant forever. The Run below proves nothing was armed.
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := exp.Churn(rate); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("Churn(%g) = %v, want an error asking for a finite rate", rate, err)
		}
		if _, err := exp.ManagerChurn(rate); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("ManagerChurn(%g) = %v, want an error asking for a finite rate", rate, err)
		}
	}
	// A rate above 1e9 per second used to be accepted, and the next Run
	// never returned: every gap came out under one nanosecond and
	// truncated to zero, so the clock stayed put. 1e9 itself is the
	// largest accepted rate; it is stopped at once, before it can run.
	for name, churn := range map[string]func(float64) (func(), error){
		"Churn":        func(r float64) (func(), error) { return exp.Churn(r) },
		"ManagerChurn": func(r float64) (func(), error) { return exp.ManagerChurn(r) },
	} {
		for _, rate := range []float64{1e12, 2e9} {
			if _, err := churn(rate); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%g", rate)) {
				t.Errorf("%s(%g) = %v, want an error naming the rate", name, rate, err)
			}
		}
		stop, err := churn(1e9)
		if err != nil {
			t.Fatalf("%s(1e9): %v", name, err)
		}
		stop()
	}
	if err := exp.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// A plan with one invalid step time arms none of its steps: ChaosPlan
// checks every step's time — ≥ 0 before Deploy, not in the virtual past
// after it — before it schedules any.
func TestChaosPlanRejectedLeavesNothingArmed(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	plan := new(chaos.Plan).At(100*time.Millisecond, chaos.PartitionOneWay(0, 1)).At(-time.Second, chaos.Heal())
	if err := exp.ChaosPlan(plan); err == nil || !strings.Contains(err.Error(), "-1s") {
		t.Fatalf("ChaosPlan with a step at -1s = %v, want an error naming it", err)
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if s := exp.ChaosStats(); s.Total() != 0 {
		t.Fatalf("a plan rejected before Deploy injected faults: %+v", s)
	}
	now := time.Second
	plan = new(chaos.Plan).At(now+100*time.Millisecond, chaos.PartitionOneWay(0, 1)).At(now-time.Millisecond, chaos.Heal())
	if err := exp.ChaosPlan(plan); err == nil || !strings.Contains(err.Error(), "virtual past") {
		t.Fatalf("ChaosPlan with a step in the past = %v, want a virtual-past error", err)
	}
	if err := exp.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s := exp.ChaosStats(); s.Total() != 0 {
		t.Fatalf("a plan rejected after Deploy injected faults: %+v", s)
	}
}

func TestAtPreDeployPreRegisters(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-deploy At lands on the topology and is validated at Deploy.
	if err := exp.At(time.Second, LinkDown("a", "ghost")); err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(1); err == nil {
		t.Fatal("Deploy must reject the bad pre-registered event")
	}
	if err := exp.At(-time.Second, LinkDown("a", "s1")); err == nil {
		t.Fatal("negative At must error")
	}
}

func TestBuilderExperimentsDoNotAlias(t *testing.T) {
	// Two experiments minted from one builder, plus pre-deploy At calls,
	// must not share event storage.
	b := NewTopology().
		Service("a").Service("b").
		Link("a", "b", Latency(5*time.Millisecond), Up(10*units.Mbps)).
		At(time.Second, LinkDown("a", "b"), LinkUp("a", "b"), Set("a", "b", Latency(6*time.Millisecond)))
	exp1, err := b.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := b.At(2*time.Second, LinkUp("a", "b")).Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp1.At(3*time.Second, LinkDown("a", "b")); err != nil {
		t.Fatal(err)
	}
	if n := len(exp2.Topology.Events); n != 4 {
		t.Fatalf("exp2 has %d events, want 4", n)
	}
	if ev := exp2.Topology.Events[3]; ev.Kind.String() != "link-join" || ev.At != 2*time.Second {
		t.Fatalf("exp2's own event was overwritten: %+v", ev)
	}
	if n := len(exp1.Topology.Events); n != 4 {
		t.Fatalf("exp1 has %d events, want 4", n)
	}
}

func TestChurnDoesNotHealScheduledOutage(t *testing.T) {
	// A scheduled NodeDown window must survive churn rejoins of the same
	// node: leaves stack, so the node returns only when both the churn
	// rejoin AND the scheduled NodeUp have fired.
	exp, err := NewTopology().
		Service("a").Service("b").
		Link("a", "b", Latency(5*time.Millisecond), Up(10*units.Mbps)).
		Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Deploy(2, WithSeed(9)); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(exp.At(2*time.Second, NodeDown("b")))
	must(exp.At(10*time.Second, NodeUp("b")))
	// High-rate churn with short downtimes: many leave/join pairs land
	// inside the scheduled [2s,10s) outage.
	stop, err := exp.Churn(5, ChurnTargets("b"), ChurnDowntime(200*time.Millisecond), ChurnUntil(9*time.Second))
	must(err)
	defer stop()
	a, _ := exp.Container("a")
	bc, _ := exp.Container("b")
	replies := make(map[int]bool)
	for i := 0; i < 13; i++ {
		i := i
		at := time.Duration(i)*time.Second + 500*time.Millisecond
		exp.Eng.At(at, func() {
			a.Stack.Ping(bc.IP, 64, func(time.Duration) { replies[i] = true })
		})
	}
	must(exp.Run(14 * time.Second))
	for i := 2; i < 10; i++ {
		if replies[i] {
			t.Errorf("ping at t=%d.5s succeeded inside the scheduled outage (churn healed it early)", i)
		}
	}
	// Churn may legitimately down the node before 2s, but after the
	// scheduled NodeUp at 10s (churn stopped at 9s, downtimes ~200ms)
	// the node must be back.
	for _, i := range []int{11, 12} {
		if !replies[i] {
			t.Errorf("ping at t=%d.5s lost after outage end", i)
		}
	}
}
