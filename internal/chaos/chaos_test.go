package chaos

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

type delivery struct {
	d time.Duration
	p []byte
}

func collect(out *[]delivery) func(time.Duration, []byte) {
	return func(d time.Duration, p []byte) {
		cp := append([]byte(nil), p...)
		*out = append(*out, delivery{d: d, p: cp})
	}
}

func TestInactiveInjectorIsTransparent(t *testing.T) {
	inj := NewInjector(1, nil)
	if inj.Active() {
		t.Fatal("fresh injector should be inactive")
	}
	payload := []byte{1, 2, 3}
	var got []delivery
	for i := 0; i < 100; i++ {
		inj.Send(0, 0, 1, payload, collect(&got))
	}
	if len(got) != 100 {
		t.Fatalf("inactive injector delivered %d of 100", len(got))
	}
	for _, d := range got {
		if d.d != 0 || !bytes.Equal(d.p, payload) {
			t.Fatalf("inactive injector perturbed a datagram: %+v", d)
		}
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("inactive injector counted faults: %+v", inj.Stats())
	}
	if inj.ScheduleHash() != NewInjector(1, nil).ScheduleHash() {
		t.Fatal("inactive injector advanced its schedule hash")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func() (uint64, Stats, []delivery) {
		inj := NewInjector(7, nil)
		SetProfile(Profile{
			Drop: 0.2, Duplicate: 0.2, DupBurst: 2,
			Reorder: 0.2, ReorderDelay: 5 * time.Millisecond,
			Corrupt: 0.2, Delay: 0.2,
			DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond,
		}).Apply(0, inj)
		payload := []byte("the same traffic every run")
		var got []delivery
		for i := 0; i < 500; i++ {
			inj.Send(time.Duration(i)*time.Millisecond, i%4, (i+1)%4, payload, collect(&got))
		}
		return inj.ScheduleHash(), inj.Stats(), got
	}
	h1, s1, d1 := run()
	h2, s2, d2 := run()
	if h1 != h2 {
		t.Fatalf("schedule hash diverged: %x vs %x", h1, h2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery count diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].d != d2[i].d || !bytes.Equal(d1[i].p, d2[i].p) {
			t.Fatalf("delivery %d diverged", i)
		}
	}
	if s1.Total() == 0 {
		t.Fatal("aggressive profile injected no faults in 500 sends")
	}
}

func TestPartitionOneWayBlocksOneDirection(t *testing.T) {
	inj := NewInjector(1, nil)
	PartitionOneWay(0, 1).Apply(0, inj)
	var got []delivery
	inj.Send(0, 0, 1, []byte{1}, collect(&got))
	if len(got) != 0 {
		t.Fatal("0->1 should be blocked")
	}
	inj.Send(0, 1, 0, []byte{1}, collect(&got))
	if len(got) != 1 {
		t.Fatal("1->0 should pass")
	}
	if inj.Stats().Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", inj.Stats().Blocked)
	}
	Heal().Apply(0, inj)
	inj.Send(0, 0, 1, []byte{1}, collect(&got))
	if len(got) != 2 {
		t.Fatal("0->1 should pass after heal")
	}
}

func TestCorruptionCopiesPayload(t *testing.T) {
	inj := NewInjector(3, nil)
	SetProfile(Profile{Corrupt: 1, CorruptBits: 4}).Apply(0, inj)
	orig := bytes.Repeat([]byte{0xAA}, 32)
	payload := append([]byte(nil), orig...)
	var got []delivery
	inj.Send(0, 0, 1, payload, collect(&got))
	if len(got) != 1 {
		t.Fatalf("delivered %d of 1", len(got))
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	if bytes.Equal(got[0].p, orig) {
		t.Fatal("Corrupt=1 delivered an unmodified payload")
	}
	if inj.Stats().Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", inj.Stats().Corrupted)
	}
}

func TestDuplicateBurst(t *testing.T) {
	inj := NewInjector(4, nil)
	SetProfile(Profile{Duplicate: 1, DupBurst: 3}).Apply(0, inj)
	var got []delivery
	inj.Send(0, 0, 1, []byte{1, 2}, collect(&got))
	if len(got) != 4 { // original + 3 copies
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !bytes.Equal(got[i].p, got[0].p) || got[i].d != got[0].d {
			t.Fatalf("copy %d differs from original", i)
		}
	}
	if inj.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", inj.Stats().Duplicated)
	}
}

func TestFaultsAreTraced(t *testing.T) {
	tr := obs.NewTracer(1 << 10)
	inj := NewInjector(5, tr)
	SetProfile(Profile{Delay: 1, DelayMin: time.Millisecond}).Apply(time.Second, inj)
	PartitionOneWay(2, 3).Apply(time.Second, inj)
	inj.Send(2*time.Second, 0, 1, []byte{1}, func(time.Duration, []byte) {})
	SetProfile(Profile{Drop: 1}).Apply(2*time.Second, inj)
	inj.Send(2*time.Second, 0, 1, []byte{1}, func(time.Duration, []byte) {})
	Heal().Apply(3*time.Second, inj)
	kinds := map[obs.Kind]int{}
	for _, e := range tr.Events(nil) {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindChaosProfile, obs.KindChaosPartition,
		obs.KindChaosDelay, obs.KindChaosDrop, obs.KindChaosHeal,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v event recorded", k)
		}
	}
}

func TestPlanAccumulatesSteps(t *testing.T) {
	var p Plan
	p.At(time.Second, SetProfile(Profile{Drop: 0.1})).
		At(2*time.Second, PartitionOneWay(1, 0)).
		At(3*time.Second, Heal(), Off())
	if len(p.Steps) != 3 {
		t.Fatalf("Steps = %d, want 3", len(p.Steps))
	}
	if p.Steps[1].At != 2*time.Second || len(p.Steps[2].Acts) != 2 {
		t.Fatalf("plan misbuilt: %+v", p.Steps)
	}
}
