package experiments

import (
	"os"
	"testing"
)

// TestSmokeRemaining checks that every table experiment of the
// evaluation runs at its quick size and prints a non-empty table, and
// that Table 3's emulated jitter stays within MSE < 1 of the EC2
// measurement. It reads the paper report's run, which the paper subtest
// of TestCommittedReportsRegenerate shares, so it costs no second run.
func TestSmokeRemaining(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	r, _ := fullRun(t, paper)
	experiments := 0
	for _, e := range evaluation {
		if e.Report == "" {
			experiments++
		}
	}
	if len(r.tables) < experiments {
		t.Errorf("the %d table experiments printed %d tables", experiments, len(r.tables))
	}
	for _, tb := range r.tables {
		if len(tb.Rows) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
		tb.Fprint(os.Stdout)
	}
	if r.jitterMSE >= 1 {
		t.Errorf("Table 3 jitter MSE = %.4f, want < 1", r.jitterMSE)
	}
}
