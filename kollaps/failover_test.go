package kollaps

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
)

// failoverYAML: one client/server pair per host, all crossing a shared
// bottleneck, so every manager owns an active flow whose allocation
// depends on disseminated metadata.
func failoverYAML(n int) string {
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    name: c%d\n    name: sv%d\n", i, i)
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n  links:\n")
	fmt.Fprintf(&b, "    orig: b1\n    dest: b2\n    latency: 5\n    up: %dMbps\n", 2*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    orig: c%d\n    dest: b1\n    latency: 2\n    up: 100Mbps\n", i)
		fmt.Fprintf(&b, "    orig: sv%d\n    dest: b2\n    latency: 1\n    up: 100Mbps\n", i)
	}
	return b.String()
}

// deployFailover places pair i on host i and drives greedy CBR load.
func deployFailover(t *testing.T, n int, opts ...Option) (*Experiment, []*int64) {
	t.Helper()
	exp, err := Load(failoverYAML(n))
	if err != nil {
		t.Fatal(err)
	}
	placement := map[string]int{}
	for i := 0; i < n; i++ {
		placement[fmt.Sprintf("c%d", i)] = i
		placement[fmt.Sprintf("sv%d", i)] = i
	}
	opts = append([]Option{WithPlacement(placement)}, opts...)
	if err := exp.Deploy(n, opts...); err != nil {
		t.Fatal(err)
	}
	received := make([]*int64, n)
	for i := 0; i < n; i++ {
		got := new(int64)
		received[i] = got
		cli, err := exp.Container(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := exp.Container(fmt.Sprintf("sv%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv.Stack.HandleUDP(9000, func(_ packet.IP, _ uint16, size int, _ any) {
			*got += int64(size)
		})
		dst := srv.IP
		exp.Eng.Every(1448*8*time.Second/8_000_000, func() {
			cli.Stack.SendUDP(dst, 9000, 9000, 1448, nil)
		})
	}
	return exp, received
}

func TestKillManagerValidation(t *testing.T) {
	exp, err := Load(quickYAML)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.KillManager(0); err == nil {
		t.Fatal("KillManager before Deploy must error")
	}
	if err := exp.RestartManager(0); err == nil {
		t.Fatal("RestartManager before Deploy must error")
	}
	if _, err := exp.ManagerChurn(1); err == nil {
		t.Fatal("ManagerChurn before Deploy must error")
	}
	if err := exp.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if err := exp.KillManager(5); err == nil {
		t.Fatal("KillManager(5) on 2 hosts must error")
	}
	if err := exp.RestartManager(0); err == nil {
		t.Fatal("RestartManager of a live manager must error")
	}
	if err := exp.KillManager(0); err != nil {
		t.Fatal(err)
	}
	if err := exp.KillManager(0); err == nil {
		t.Fatal("double KillManager must error")
	}
	if !exp.Runtime.ManagerDown(0) {
		t.Fatal("ManagerDown(0) = false after kill")
	}
	if err := exp.RestartManager(0); err != nil {
		t.Fatal(err)
	}
	if exp.Runtime.ManagerDown(0) {
		t.Fatal("ManagerDown(0) = true after restart")
	}
	// The kill-generation token: one per KillManager, so automation can
	// detect that its kill was superseded before restarting.
	if got := exp.Runtime.ManagerKills(0); got != 1 {
		t.Fatalf("ManagerKills(0) = %d after one kill, want 1", got)
	}
	if err := exp.KillManager(0); err != nil {
		t.Fatal(err)
	}
	if got := exp.Runtime.ManagerKills(0); got != 2 {
		t.Fatalf("ManagerKills(0) = %d after two kills, want 2", got)
	}
	if err := exp.RestartManager(0); err != nil {
		t.Fatal(err)
	}
	if got := exp.Runtime.ManagerKills(9); got != 0 {
		t.Fatalf("ManagerKills out of range = %d, want 0", got)
	}
	if _, err := exp.ManagerChurn(0); err == nil {
		t.Fatal("ManagerChurn with zero rate must error")
	}
	if _, err := exp.ManagerChurn(1, ChurnTargets("a")); err == nil {
		t.Fatal("ManagerChurn with ChurnTargets must error")
	}
	if _, err := exp.ManagerChurn(1, ChurnHosts(9)); err == nil {
		t.Fatal("ManagerChurn with out-of-range host must error")
	}
	if _, err := exp.Churn(1, ChurnHosts(0)); err == nil {
		t.Fatal("node Churn with ChurnHosts must error")
	}
}

// TestKillManagerStopsControlPlaneNotTraffic: killing a manager freezes
// its metadata and its enforcement loop, but its containers keep moving
// packets; a restart resumes dissemination with fresh state.
func TestKillManagerStopsControlPlaneNotTraffic(t *testing.T) {
	for _, strategy := range []string{"broadcast", "delta", "tree", "gossip"} {
		t.Run(strategy, func(t *testing.T) {
			exp, received := deployFailover(t, 4, WithDissem(strategy, DissemFanout(2)))
			if err := exp.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if err := exp.KillManager(1); err != nil {
				t.Fatal(err)
			}
			sentAtKill := exp.Runtime.Managers()[1].Node().Stats().BytesSent.Value()
			preTraffic := *received[1]
			if err := exp.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := exp.Runtime.Managers()[1].Node().Stats().BytesSent.Value(); got != sentAtKill {
				t.Fatalf("dead manager kept sending metadata: %d -> %d bytes", sentAtKill, got)
			}
			if *received[1] <= preTraffic {
				t.Fatal("host 1's containers stopped moving traffic when only the manager died")
			}
			iters := exp.Runtime.Managers()[1].Iterations
			if err := exp.RestartManager(1); err != nil {
				t.Fatal(err)
			}
			// The restarted manager's first report must reflect one
			// period of usage, not the whole outage read as one period:
			// check a peer's view of host 1's flows right after the first
			// post-restart pass (offered load is 8 Mb/s per flow, so
			// anything far above that is the un-drained backlog).
			exp.Eng.At(exp.Eng.Now()+75*time.Millisecond, func() {
				view := exp.Runtime.Managers()[0].Node().RemoteFlows(exp.Eng.Now(), 150*time.Millisecond)
				for _, rf := range view {
					if rf.BPS > 20_000_000 {
						t.Errorf("remote flow reports %d bps right after restart: dead-window usage published as one period", rf.BPS)
					}
				}
			})
			if err := exp.Run(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			m := exp.Runtime.Managers()[1]
			if m.Node().Stats().BytesSent.Value() <= sentAtKill {
				t.Fatal("restarted manager never resumed dissemination")
			}
			if m.Iterations <= iters {
				t.Fatal("restarted manager never resumed its emulation loop")
			}
			// The restarted manager rebuilt a remote view.
			if v := m.Node().RemoteFlows(exp.Eng.Now(), 3*50*time.Millisecond); len(v) == 0 {
				t.Fatal("restarted manager has an empty remote view")
			}
		})
	}
}

// TestManagerChurnDeterministic: the same seed gives the same churn
// schedule, measured through per-flow goodputs; churn stops on request
// and every manager is back up at the end.
func TestManagerChurnDeterministic(t *testing.T) {
	run := func() []int64 {
		exp, received := deployFailover(t, 4, WithSeed(11), WithDissem("delta"))
		stop, err := exp.ManagerChurn(2, ChurnDowntime(300*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		stop()
		if err := exp.Run(4 * time.Second); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 4; h++ {
			if exp.Runtime.ManagerDown(h) {
				t.Fatalf("manager %d still down after churn stopped", h)
			}
		}
		out := make([]int64, len(received))
		for i, p := range received {
			out[i] = *p
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("manager churn not deterministic: goodputs %v vs %v", a, b)
		}
	}
}

// TestChurnSaturatesLongDraws: a draw longer than the clock can reach
// waits at the end of time. At 1e-12 kills per second the mean gap is
// 1e21 ns; the conversion used to wrap it to a negative delay, which the
// engine runs at once, and all four managers died within half a second.
// A downtime past the end of time likewise keeps its manager down instead
// of restarting it at once.
func TestChurnSaturatesLongDraws(t *testing.T) {
	exp, _ := deployFailover(t, 4, WithSeed(11))
	if _, err := exp.ManagerChurn(1e-12); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		if n := exp.Runtime.ManagerKills(h); n != 0 {
			t.Errorf("manager %d killed %d times in 0.5 s at 1e-12 kills per second", h, n)
		}
	}

	// Seed 3's first kills draw past the end of time; each used to wrap
	// to a restart at once, and the revived manager could be killed again.
	exp, _ = deployFailover(t, 4, WithSeed(3))
	stop, err := exp.ManagerChurn(20, ChurnDowntime(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stop()
	killed := false
	for h := 0; h < 4; h++ {
		n := exp.Runtime.ManagerKills(h)
		killed = killed || n > 0
		switch {
		case n > 1:
			t.Errorf("manager %d killed %d times: it restarted within 0.5 s of a downtime drawn past the end of time", h, n)
		case n == 1 && !exp.Runtime.ManagerDown(h):
			t.Errorf("manager %d restarted within 0.5 s of a downtime drawn past the end of time", h)
		}
	}
	if !killed {
		t.Fatal("no manager killed in 0.5 s at 20 kills per second")
	}
}

// TestChurnScheduleGolden pins the exact fault schedule Churn and then
// ManagerChurn draw under one seed — every node leave/join and manager
// kill/restart, with its virtual time and target, as the flight recorder
// saw it. TestManagerChurnDeterministic only compares a run with
// itself; this list was recorded once, so a change to the order or
// number of the drivers' seeded draws shows here.
func TestChurnScheduleGolden(t *testing.T) {
	exp, _ := deployFailover(t, 3, WithSeed(5), WithTrace())
	stop, err := exp.Churn(2, ChurnDowntime(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := exp.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop, err = exp.ManagerChurn(4, ChurnDowntime(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := exp.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := exp.Tracer()
	if tr.Dropped() != 0 {
		t.Fatalf("flight recorder overflowed (%d events dropped)", tr.Dropped())
	}
	var got []string
	for _, ev := range tr.Events(nil) {
		switch ev.Kind {
		case obs.KindNodeLeave, obs.KindNodeJoin:
			got = append(got, fmt.Sprintf("%v %v %s", ev.At, ev.Kind, obs.UnpackName(ev.A)))
		case obs.KindManagerKill, obs.KindManagerRestart:
			got = append(got, fmt.Sprintf("%v %v %d", ev.At, ev.Kind, ev.Host))
		}
	}
	want := []string{
		"472.291255ms node_leave c2",
		"868.921716ms node_join c2",
		"879.935906ms node_leave c2",
		"1.16097734s node_leave sv2",
		"1.162039679s node_join sv2",
		"1.189568773s node_join c2",
		"2.336472855s node_leave sv2",
		"2.438919301s node_join sv2",
		"2.763766143s node_leave c0",
		"3.738814228s node_join c0",
		"6.176504431s manager_kill 1",
		"6.263369399s manager_restart 1",
		"7.146909208s manager_kill 1",
		"7.837335714s manager_kill 0",
		"7.964976316s manager_restart 1",
		"8.502423191s manager_kill 2",
		"8.558989093s manager_kill 1",
		"8.592121992s manager_restart 0",
		"8.698920525s manager_restart 1",
		"8.914683708s manager_kill 1",
		"9.101506921s manager_restart 2",
		"9.854914106s manager_restart 1",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("churn schedule moved:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
