package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dissem"
)

// TestCommittedReportsRegenerate re-runs the failover, chaos and sweep
// experiments at their committed configurations and demands that each
// JSON report match the committed BENCH_*.json byte for byte: a
// baseline that no longer describes the code fails here, not in a
// reader's comparison. Each subtest also holds the full-scale report to
// the experiment's acceptance invariants.
func TestCommittedReportsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the committed reports is not short")
	}
	regenerate := func(t *testing.T, name string, run func(path string) error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := run(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate it with kollaps-bench (regenerated copy follows)\n%s", name, got)
		}
	}

	t.Run("failover", func(t *testing.T) {
		var report *FailoverReport
		regenerate(t, "BENCH_failover.json", func(path string) (err error) {
			_, report, err = RunFailover(path, 32, 50)
			return err
		})
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
		var report *ChaosReport
		regenerate(t, "BENCH_chaos.json", func(path string) (err error) {
			_, report, err = RunChaos(path, 8, 60)
			return err
		})
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
		var report *SweepReport
		regenerate(t, "BENCH_sweep.json", func(path string) (err error) {
			_, report, err = RunSweep(path, 0, nil, nil, 0, 0)
			return err
		})
		if want := len(SweepPeriods) * len(DissemStrategies); len(report.Cells) != want {
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
}
