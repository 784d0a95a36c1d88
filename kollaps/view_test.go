package kollaps

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dissem"
	"repro/internal/units"
)

// viewRun is what a run of the view-purity scenario leaves behind: the
// control plane's counters and staleness, every flow's goodput, and every
// flow's enforced rate at every mid-period.
type viewRun struct {
	Summary  dissem.Summary
	Goodputs []int64
	Rates    [][]units.Bandwidth
}

// runViewReads deploys four managers under strategy, kills host 1 at
// 1.5 s and restarts it at 2.2 s, and at every mid-period records the
// enforced rates and, for each horizon in reads, reads every manager's
// view at it. plan (when non-nil) is scheduled before the run starts.
func runViewReads(t *testing.T, strategy string, plan *chaos.Plan, reads []time.Duration) viewRun {
	t.Helper()
	const period = 50 * time.Millisecond
	exp, received := deployFailover(t, 4, WithPeriod(period), WithDissem(strategy, DissemFanout(2)))
	if plan != nil {
		if err := exp.ChaosPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	var out viewRun
	exp.Eng.At(period/2, func() {
		exp.Eng.Every(period, func() {
			rates := make([]units.Bandwidth, len(received))
			for i := range rates {
				cli, _ := exp.Container(fmt.Sprintf("c%d", i))
				srv, _ := exp.Container(fmt.Sprintf("sv%d", i))
				props, _ := cli.TCAL().Props(srv.IP)
				rates[i] = props.Bandwidth
			}
			out.Rates = append(out.Rates, rates)
			for _, m := range exp.Runtime.Managers() {
				for _, maxAge := range reads {
					m.Node().RemoteFlows(exp.Eng.Now(), maxAge)
				}
			}
		})
	})
	for _, step := range []struct {
		until time.Duration
		then  func(int) error
	}{
		{1500 * time.Millisecond, exp.KillManager},
		{2200 * time.Millisecond, exp.RestartManager},
		{3 * time.Second, nil},
	} {
		if err := exp.Run(step.until); err != nil {
			t.Fatal(err)
		}
		if step.then != nil {
			if err := step.then(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	out.Summary = exp.DissemSummary()
	for _, got := range received {
		out.Goodputs = append(out.Goodputs, *got)
	}
	return out
}

// TestViewReadsArePure: reading a manager's view changes nothing. Every
// strategy runs a manager kill and restart once without reads and once
// with every manager's view read at every mid-period, at a horizon of
// 0 (which a read that expired state would empty the view at), 40 and
// 150 ms; the dissemination summary (staleness included), the goodputs
// and the enforced rates must not move. The chaos case repeats it with
// all three horizons read under datagram drops, duplicates and
// reordering, where peer state expires and restarted senders' sequence
// numbers regress.
func TestViewReadsArePure(t *testing.T) {
	horizons := []time.Duration{0, 40 * time.Millisecond, 150 * time.Millisecond}
	strategies := []string{"broadcast", "delta", "tree", "gossip"}
	same := func(t *testing.T, got, want viewRun) {
		t.Helper()
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Errorf("reading the view changed the run:\n got %+v %v\nwant %+v %v\nrates differ at %d of %d mid-periods",
				got.Summary, got.Goodputs, want.Summary, want.Goodputs, diffRates(got.Rates, want.Rates), len(want.Rates))
		}
	}
	for _, strategy := range strategies {
		t.Run(strategy, func(t *testing.T) {
			base := runViewReads(t, strategy, nil, nil)
			for _, h := range horizons {
				t.Run(h.String(), func(t *testing.T) {
					same(t, runViewReads(t, strategy, nil, []time.Duration{h}), base)
				})
			}
		})
	}
	t.Run("chaos", func(t *testing.T) {
		plan := new(chaos.Plan).At(500*time.Millisecond, chaos.SetProfile(chaos.Profile{
			Drop: 0.1, Duplicate: 0.1, Reorder: 0.2, ReorderDelay: 30 * time.Millisecond,
		}))
		for _, strategy := range strategies {
			t.Run(strategy, func(t *testing.T) {
				same(t, runViewReads(t, strategy, plan, horizons), runViewReads(t, strategy, plan, nil))
			})
		}
	})
}

// diffRates counts the mid-periods whose enforced rates differ.
func diffRates(a, b [][]units.Bandwidth) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := 0; i < min(len(a), len(b)); i++ {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			n++
		}
	}
	return n
}
