package experiments

import (
	"os"
	"reflect"
	"testing"
	"time"
)

// TestDissemScale is the scalability acceptance check for the
// dissemination subsystem: Tree must send asymptotically fewer control
// datagrams than Broadcast while the bandwidth shares the emulation
// enforces stay within tolerance of the Broadcast ground truth, and
// Delta must shed control bytes at equal accuracy.
func TestDissemScale(t *testing.T) {
	if testing.Short() {
		t.Skip("dissemination scale sweep is not short")
	}
	const duration = 2 * time.Second
	for _, n := range []int{16, 64} {
		bcast := dissemScaleRun("broadcast", n, duration)
		delta := dissemScaleRun("delta", n, duration)
		tree := dissemScaleRun("tree", n, duration)

		// Broadcast is O(N²) datagrams per period; Tree must stay
		// O(N·log N). At N=16 that is ≥4× fewer, at N=64 ≥8× fewer —
		// the gap must widen with N.
		factor := int64(4)
		if n >= 64 {
			factor = 8
		}
		if tree.sum.DatagramsSent*factor >= bcast.sum.DatagramsSent {
			t.Errorf("N=%d: tree sent %d datagrams, want <1/%d of broadcast's %d",
				n, tree.sum.DatagramsSent, factor, bcast.sum.DatagramsSent)
		}
		// Delta keeps the mesh but must shed bytes even on this
		// small-report workload (4 flows per manager).
		if delta.sum.BytesSent >= bcast.sum.BytesSent {
			t.Errorf("N=%d: delta sent %d control bytes, want < broadcast's %d",
				n, delta.sum.BytesSent, bcast.sum.BytesSent)
		}
		// Accuracy: steady-state per-flow shares against ground truth.
		if maxErr, _ := relErrs(delta.goodputs, bcast.goodputs); maxErr > 0.01 {
			t.Errorf("N=%d: delta max share error %.2f%%, want <= 1%%", n, maxErr*100)
		}
		if maxErr, meanErr := relErrs(tree.goodputs, bcast.goodputs); maxErr > 0.05 || meanErr > 0.02 {
			t.Errorf("N=%d: tree share error max %.2f%% mean %.2f%%, want <= 5%%/2%%",
				n, maxErr*100, meanErr*100)
		}
		// Tree pays for the datagram reduction in measured staleness —
		// the aggregation delay must show up in the histogram, bounded
		// by a couple of emulation periods.
		if tree.sum.StalenessP99Ms <= bcast.sum.StalenessP99Ms {
			t.Errorf("N=%d: tree staleness p99 %.0fms not above broadcast's %.0fms",
				n, tree.sum.StalenessP99Ms, bcast.sum.StalenessP99Ms)
		}
		if tree.sum.StalenessP99Ms > 250 {
			t.Errorf("N=%d: tree staleness p99 %.0fms, want <= 250ms", n, tree.sum.StalenessP99Ms)
		}
	}
}

// TestDissemDeterminism re-runs every strategy with the same seed and
// demands bit-identical results — the emulator's deterministic-seed
// guarantee must survive the new control plane.
func TestDissemDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("dissemination determinism check is not short")
	}
	for _, strat := range dissemStrategies {
		a := dissemScaleRun(strat, 8, 2*time.Second)
		b := dissemScaleRun(strat, 8, 2*time.Second)
		if !reflect.DeepEqual(a.goodputs, b.goodputs) {
			t.Errorf("%s: per-flow goodputs differ between identical runs", strat)
		}
		if a.sum != b.sum {
			t.Errorf("%s: control-plane summaries differ between identical runs:\n%+v\n%+v", strat, a.sum, b.sum)
		}
	}
}

// TestDissemScaleTable smoke-tests the table harness at a tiny scale.
func TestDissemScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	r, err := dissemScale(time.Second, []int{4})("")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.tables) != 1 || len(r.tables[0].Rows) != len(dissemStrategies) {
		t.Fatalf("dissem table at N=4: got %d tables, want 1 with a row per strategy", len(r.tables))
	}
	r.tables[0].Fprint(os.Stdout)
}
