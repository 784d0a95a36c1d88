package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dissem"
)

// paperRun holds the paper report's one run per test binary, which
// TestSmokeRemaining and the paper subtest of
// TestCommittedReportsRegenerate share.
var paperRun struct {
	once   sync.Once
	r      result
	report []byte
	err    error
}

// fullRun runs e at its full size and returns its result and the
// report it wrote. The paper report runs once and is shared.
func fullRun(t *testing.T, e Experiment) (result, []byte) {
	t.Helper()
	run := func(dir string) (result, []byte, error) {
		path := filepath.Join(dir, e.Report)
		r, err := e.full(path)
		if err != nil {
			return r, nil, err
		}
		report, err := os.ReadFile(path)
		return r, report, err
	}
	if e.ID != paper.ID {
		r, report, err := run(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return r, report
	}
	paperRun.once.Do(func() {
		dir, err := os.MkdirTemp("", "paper")
		if err != nil {
			paperRun.err = err
			return
		}
		defer os.RemoveAll(dir)
		paperRun.r, paperRun.report, paperRun.err = run(dir)
	})
	if paperRun.err != nil {
		t.Fatal(paperRun.err)
	}
	return paperRun.r, paperRun.report
}

// TestCommittedReportsRegenerate re-runs every JSON experiment of the
// evaluation table at its full size and demands that each report match
// its committed BENCH_*.json byte for byte: a baseline that no longer
// describes the code fails here, not in a reader's comparison. Each
// subtest also holds its report to the experiment's acceptance
// invariants.
func TestCommittedReportsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the committed reports is not short")
	}
	// regenerate runs experiment id at its full size, compares its
	// report with the committed copy, and decodes the report into v
	// unless v is nil.
	regenerate := func(t *testing.T, id string, v any) result {
		t.Helper()
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		r, got := fullRun(t, e)
		want, err := os.ReadFile(filepath.Join("..", "..", e.Report))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate it with kollaps-bench -exp %s (regenerated copy follows)\n%s", e.Report, id, got)
		}
		if v != nil {
			if err := json.Unmarshal(got, v); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}

	t.Run("failover", func(t *testing.T) {
		var report FailoverReport
		regenerate(t, "failover", &report)
		// Reconvergence within the suspicion threshold plus the Tree
		// overlay's depth, ceil(log_4 N).
		bound := dissem.DefaultSuspectAfter
		for reach := 1; reach < report.N; reach *= 4 {
			bound++
		}
		for _, s := range report.Strategies {
			if s.ByteRatio > 2 {
				t.Errorf("%s: bytes/period during failure = %.2fx steady state, want <= 2x", s.Strategy, s.ByteRatio)
			}
			if s.ViewCompleteness < 1 {
				t.Errorf("%s: surviving view completeness = %.2f, want 1 (blinded subtree)", s.Strategy, s.ViewCompleteness)
			}
			if s.DeadPathsVisible != 0 {
				t.Errorf("%s: %d dead-manager flows still visible late in the failure", s.Strategy, s.DeadPathsVisible)
			}
			if s.RecoveryPeriods < 0 || s.RecoveryPeriods > bound {
				t.Errorf("%s: recovery took %d periods, want <= %d", s.Strategy, s.RecoveryPeriods, bound)
			}
			if s.Strategy != "broadcast" && s.MaxShareDev > 0.05 {
				t.Errorf("%s: max share deviation vs broadcast = %.1f%%, want <= 5%%", s.Strategy, s.MaxShareDev*100)
			}
		}
	})

	t.Run("chaos", func(t *testing.T) {
		var report ChaosReport
		regenerate(t, "chaos", &report)
		// Suspicion + overlay reroute + one resync cycle, widened for the
		// fault noise still running while the heal is measured.
		const healBound = dissem.DefaultSuspectAfter + 7
		for _, s := range report.Strategies {
			if s.FaultsInjected == 0 || s.Dropped == 0 || s.Duplicated == 0 ||
				s.Reordered == 0 || s.Corrupted == 0 || s.Blocked == 0 {
				t.Errorf("%s: fault schedule did not exercise every channel: %+v", s.Strategy, s)
			}
			if s.CorruptionCaught == 0 {
				t.Errorf("%s: corruption injected but no receiver counter moved", s.Strategy)
			}
			if s.SurvivingCompleteness < 1 {
				t.Errorf("%s: surviving view completeness = %.2f, want 1", s.Strategy, s.SurvivingCompleteness)
			}
			if s.FinalCompleteness < 1 {
				t.Errorf("%s: final completeness = %.2f, want 1", s.Strategy, s.FinalCompleteness)
			}
			if s.HealRecoveryPeriods < 0 || s.HealRecoveryPeriods > healBound {
				t.Errorf("%s: heal recovery took %d periods, want <= %d", s.Strategy, s.HealRecoveryPeriods, healBound)
			}
			if s.ConvergencePeriods != 0 {
				t.Errorf("%s: views not already converged when the fault window closed (took %d periods)", s.Strategy, s.ConvergencePeriods)
			}
			if s.PhantomPaths != 0 {
				t.Errorf("%s: %d phantom paths in final views", s.Strategy, s.PhantomPaths)
			}
			if !s.Deterministic {
				t.Errorf("%s: rerun under the same seed diverged (schedule hash or final views)", s.Strategy)
			}
		}
	})

	t.Run("sweep", func(t *testing.T) {
		var report SweepReport
		regenerate(t, "sweep", &report)
		if want := len(sweepPeriods) * len(dissemStrategies); len(report.Cells) != want {
			t.Fatalf("cells = %d, want %d", len(report.Cells), want)
		}
		for _, c := range report.Cells {
			if c.ProbeSamples == 0 {
				t.Errorf("cell %s/T=%v recorded no probe samples", c.Strategy, c.PeriodMs)
			}
			if c.MeanShareDev < 0 || c.MeanShareDev > 0.5 {
				t.Errorf("cell %s/T=%v mean share deviation = %v, want sane [0, 0.5]",
					c.Strategy, c.PeriodMs, c.MeanShareDev)
			}
			if c.CtrlBytesPerPeriod <= 0 {
				t.Errorf("cell %s/T=%v spent no control-plane bytes", c.Strategy, c.PeriodMs)
			}
		}
	})

	t.Run("paper", func(t *testing.T) {
		r := regenerate(t, "paper", nil)
		// Figure 8's model: iperf goodput counts payload while htb shapes
		// wire bytes, so every active cell reads a few percent under the
		// model's allocation, and by the same factor.
		if r.fig8Mbps == nil {
			t.Fatal("the paper report ran no Figure 8")
		}
		for p, row := range Fig8Expected {
			for i, want := range row {
				if want == 0 {
					continue
				}
				if ratio := r.fig8Mbps[p][i] / want; ratio < 0.93 || ratio > 0.98 {
					t.Errorf("Figure 8 phase %d c%d: measured/model = %.1f/%.2f = %.3f, want within [0.93, 0.98]",
						p+1, i+1, r.fig8Mbps[p][i], want, ratio)
				}
			}
		}
		if r.jitterMSE >= 1 {
			t.Errorf("Table 3 jitter MSE = %.4f, want < 1", r.jitterMSE)
		}
	})
}
