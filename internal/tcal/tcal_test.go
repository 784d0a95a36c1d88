package tcal

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func mk(dst packet.IP, size int) *packet.Packet {
	return &packet.Packet{Src: packet.MakeIP(0, 0, 1), Dst: dst, Size: size}
}

func TestClassifyAndShape(t *testing.T) {
	eng := sim.NewEngine(1)
	var out []*packet.Packet
	tc := New(eng, func(p *packet.Packet) { out = append(out, p) })
	dstA := packet.MakeIP(0, 1, 1)
	dstB := packet.MakeIP(0, 1, 2)
	tc.InstallPath(dstA, PathProps{Latency: 10 * time.Millisecond, Bandwidth: 10 * units.Mbps})
	tc.InstallPath(dstB, PathProps{Latency: 30 * time.Millisecond, Bandwidth: 10 * units.Mbps})
	tc.Send(mk(dstA, 500))
	tc.Send(mk(dstB, 500))
	eng.Run(15 * time.Millisecond)
	if len(out) != 1 || out[0].Dst != dstA {
		t.Fatalf("after 15ms only dstA packet should be out, got %d", len(out))
	}
	eng.Run(50 * time.Millisecond)
	if len(out) != 2 {
		t.Fatalf("both packets should be delivered, got %d", len(out))
	}
}

func TestUnmatchedDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	tc := New(eng, func(p *packet.Packet) { t.Fatal("unmatched packet escaped") })
	tc.Send(mk(packet.MakeIP(0, 9, 9), 100))
	eng.RunAll()
	if tc.UnmatchedDropped != 1 {
		t.Fatalf("UnmatchedDropped = %d", tc.UnmatchedDropped)
	}
}

func TestUsageDelta(t *testing.T) {
	eng := sim.NewEngine(1)
	tc := New(eng, func(p *packet.Packet) {})
	dst := packet.MakeIP(0, 1, 1)
	tc.InstallPath(dst, PathProps{Bandwidth: units.Gbps})
	for i := 0; i < 10; i++ {
		tc.Send(mk(dst, 1000))
	}
	eng.RunAll()
	if sent, offered := tc.Poll(dst); sent != 10_000 || offered != 10_000 {
		t.Fatalf("first Poll = (%d, %d), want (10000, 10000)", sent, offered)
	}
	if sent, offered := tc.Poll(dst); sent != 0 || offered != 0 {
		t.Fatalf("second Poll = (%d, %d), want (0, 0) (delta semantics)", sent, offered)
	}
	for i := 0; i < 5; i++ {
		tc.Send(mk(dst, 1000))
	}
	eng.RunAll()
	if sent, offered := tc.Poll(dst); sent != 5_000 || offered != 5_000 {
		t.Fatalf("third Poll = (%d, %d), want (5000, 5000)", sent, offered)
	}
	if got := tc.TotalSent(dst); got != 15_000 {
		t.Fatalf("TotalSent = %d", got)
	}
}

func TestSetBandwidthTakesEffect(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int64
	tc := New(eng, func(p *packet.Packet) { delivered += int64(p.Size) })
	dst := packet.MakeIP(0, 1, 1)
	tc.InstallPath(dst, PathProps{Bandwidth: 8 * units.Mbps})
	feed := func(from time.Duration) {
		for i := 0; i < 2000; i++ {
			at := from + time.Duration(i)*500*time.Microsecond
			eng.At(at, func() { tc.Send(mk(dst, 1000)) })
		}
	}
	feed(0)
	eng.Run(time.Second)
	first := delivered
	if err := tc.SetBandwidth(dst, 4*units.Mbps); err != nil {
		t.Fatal(err)
	}
	feed(time.Second)
	eng.Run(2 * time.Second)
	second := delivered - first
	if float64(second) > 0.7*float64(first) {
		t.Fatalf("halving rate ineffective: first=%d second=%d", first, second)
	}
}

func TestSetNetemLoss(t *testing.T) {
	eng := sim.NewEngine(7)
	delivered := 0
	tc := New(eng, func(p *packet.Packet) { delivered++ })
	dst := packet.MakeIP(0, 1, 1)
	tc.InstallPath(dst, PathProps{Latency: time.Millisecond, Bandwidth: units.Gbps, Loss: 0})
	// 50% loss on a lossless path.
	if err := tc.InstallPath(dst, PathProps{Latency: time.Millisecond, Bandwidth: units.Gbps, Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		at := time.Duration(i) * 50 * time.Microsecond
		eng.At(at, func() { tc.Send(mk(dst, 200)) })
	}
	eng.RunAll()
	frac := float64(delivered) / 4000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivered fraction = %.3f, want ~0.5", frac)
	}
	// Setting the loss back to 0 delivers everything again.
	if err := tc.InstallPath(dst, PathProps{Latency: time.Millisecond, Bandwidth: units.Gbps}); err != nil {
		t.Fatal(err)
	}
	delivered = 0
	for i := 0; i < 100; i++ {
		tc.Send(mk(dst, 200))
	}
	eng.RunAll()
	if delivered != 100 {
		t.Fatalf("after clearing loss delivered %d/100", delivered)
	}
}

func TestRemovePath(t *testing.T) {
	eng := sim.NewEngine(1)
	tc := New(eng, func(p *packet.Packet) {})
	dst := packet.MakeIP(0, 1, 1)
	tc.InstallPath(dst, PathProps{Bandwidth: units.Gbps})
	if tc.chain(dst) == nil || len(tc.Destinations()) != 1 {
		t.Fatal("path not installed")
	}
	tc.RemovePath(dst)
	if tc.chain(dst) != nil {
		t.Fatal("path still installed")
	}
	tc.Send(mk(dst, 100))
	eng.RunAll()
	if tc.UnmatchedDropped != 1 {
		t.Fatalf("packets to removed path must drop, got %d", tc.UnmatchedDropped)
	}
	// Errors on operations against missing paths.
	if err := tc.SetBandwidth(dst, units.Mbps); err == nil {
		t.Fatal("SetBandwidth on removed path should error")
	}
	if sent, offered := tc.Poll(dst); sent != 0 || offered != 0 {
		t.Fatalf("Poll of removed path = (%d, %d)", sent, offered)
	}
	// Removing twice and removing unknown addresses is harmless.
	other := packet.MakeIP(0, 1, 2)
	tc.InstallPath(other, PathProps{Bandwidth: units.Gbps})
	tc.RemovePath(dst)
	tc.RemovePath(packet.MakeIP(0, 200, 200))
	if tc.chain(other) == nil || len(tc.Destinations()) != 1 {
		t.Fatalf("redundant removes disturbed %v: %v", other, tc.Destinations())
	}
}

// TestInstallPathRefusesOctetCollision: the filter keys on the last two
// octets, so a second destination sharing them is refused instead of
// taking over the first one's chain and its traffic.
func TestInstallPathRefusesOctetCollision(t *testing.T) {
	eng := sim.NewEngine(1)
	var at time.Duration
	tc := New(eng, func(*packet.Packet) { at = eng.Now() })
	near, far := packet.MakeIP(1, 0, 5), packet.MakeIP(2, 0, 5)
	if err := tc.InstallPath(near, PathProps{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := tc.InstallPath(far, PathProps{Latency: 50 * time.Millisecond}); err == nil {
		t.Fatalf("InstallPath(%v) over installed %v succeeded", far, near)
	}
	tc.Send(mk(near, 100))
	eng.RunAll()
	if at != time.Millisecond || tc.TotalSent(near) != 100 || tc.TotalSent(far) != 0 {
		t.Fatalf("packet to %v left at %v; TotalSent near=%d far=%d, want 1ms, 100, 0",
			near, at, tc.TotalSent(near), tc.TotalSent(far))
	}
	tc.Send(mk(far, 100))
	tc.RemovePath(far)
	if tc.UnmatchedDropped != 1 || tc.chain(near) == nil || tc.chain(far) != nil {
		t.Fatalf("%v must stay unmatched and leave %v alone: dropped=%d", far, near, tc.UnmatchedDropped)
	}
	if err := tc.InstallPath(near, PathProps{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatalf("replacing %v's own path: %v", near, err)
	}
}

// TestDestinationsInAddressOrder: the filter is indexed by the last two
// octets, but Destinations lists full addresses in ascending order, the
// order the Emulation Manager scans them in.
func TestDestinationsInAddressOrder(t *testing.T) {
	tc := New(sim.NewEngine(1), func(*packet.Packet) {})
	want := []packet.IP{packet.MakeIP(1, 0, 2), packet.MakeIP(1, 1, 0), packet.MakeIP(2, 0, 1)}
	for _, i := range []int{2, 0, 1} {
		if err := tc.InstallPath(want[i], PathProps{}); err != nil {
			t.Fatal(err)
		}
	}
	got := tc.Destinations()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Destinations = %v, want %v", got, want)
	}
}

func TestProps(t *testing.T) {
	eng := sim.NewEngine(1)
	tc := New(eng, func(p *packet.Packet) {})
	dst := packet.MakeIP(0, 1, 1)
	want := PathProps{Latency: 5 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.01, Bandwidth: 10 * units.Mbps}
	tc.InstallPath(dst, want)
	got, ok := tc.Props(dst)
	if !ok || got != want {
		t.Fatalf("Props = %+v, want %+v", got, want)
	}
	if _, ok := tc.Props(packet.MakeIP(9, 9, 9)); ok {
		t.Fatal("Props of unknown dst should report !ok")
	}
	// Installing over the chain changes it in place.
	installed := tc.chain(dst)
	want = PathProps{Latency: 7 * time.Millisecond, Loss: 0.05, Bandwidth: 10 * units.Mbps}
	if err := tc.InstallPath(dst, want); err != nil {
		t.Fatal(err)
	}
	if got, _ = tc.Props(dst); got != want || tc.chain(dst) != installed {
		t.Fatalf("Props after InstallPath = %+v, want %+v on the same chain", got, want)
	}
	if err := tc.SetBandwidth(dst, 3*units.Mbps); err != nil {
		t.Fatal(err)
	}
	want.Bandwidth = 3 * units.Mbps
	if got, _ = tc.Props(dst); got != want {
		t.Fatalf("Props after SetBandwidth = %+v, want %+v", got, want)
	}
}

// TestTSQWaitersWakeInOrder: senders parked on a full htb are woken one per
// drain pass, first come first served, and SetBandwidth(dst, 0) — unlimited —
// releases the backlog they were waiting behind instead of stranding it.
func TestTSQWaitersWakeInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	tc := New(eng, func(*packet.Packet) { delivered++ })
	dst := packet.MakeIP(0, 1, 1)
	tc.InstallPath(dst, PathProps{Bandwidth: 8 * units.Mbps})
	sent := 0
	for ; tc.Writable(dst, packet.MSS); sent++ {
		tc.Send(mk(dst, packet.MTU))
	}
	var woken []int
	for i := 0; i < 3; i++ {
		i := i
		tc.NotifyWritable(dst, func() { woken = append(woken, i) })
	}
	for len(woken) == 0 && eng.Step() {
	}
	if len(woken) != 1 || woken[0] != 0 {
		t.Fatalf("woken = %v after the first departure, want [0]", woken)
	}
	if err := tc.SetBandwidth(dst, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now()) // the zero-latency netem stage hands over within the instant
	if tc.Backlog(dst) != 0 || delivered != sent {
		t.Fatalf("after SetBandwidth(0): backlog %d B, %d of %d delivered", tc.Backlog(dst), delivered, sent)
	}
	if len(woken) != 2 || woken[1] != 1 {
		t.Fatalf("woken = %v after the flush, want [0 1]", woken)
	}
	if err := tc.SetBandwidth(dst, 8*units.Mbps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tc.Send(mk(dst, packet.MTU))
	}
	eng.RunAll()
	if len(woken) != 3 || woken[2] != 2 {
		t.Fatalf("woken = %v, want [0 1 2]", woken)
	}
}

// TestDiscardedChainWakesParkedSenders: a sender parked on a chain that
// RemovePath drops is woken in order with the rest of that chain's
// senders, and finds dst writable (no chain). Left parked it would wait
// on a drain that no longer answers to it: a TCP connection would never
// re-arm its pacer.
func TestDiscardedChainWakesParkedSenders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		discard func(*TCAL, packet.IP)
	}{
		{"RemovePath", func(tc *TCAL, dst packet.IP) { tc.RemovePath(dst) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			tcal := New(eng, func(*packet.Packet) {})
			dst := packet.MakeIP(0, 1, 1)
			tcal.InstallPath(dst, PathProps{Bandwidth: 8 * units.Mbps})
			for tcal.Writable(dst, packet.MSS) {
				tcal.Send(mk(dst, packet.MTU))
			}
			var woken []int
			for i := 0; i < 3; i++ {
				i := i
				tcal.NotifyWritable(dst, func() {
					woken = append(woken, i)
					if !tcal.Writable(dst, packet.MSS) {
						t.Errorf("woken sender %d finds %v not writable", i, dst)
					}
				})
			}
			tc.discard(tcal, dst)
			if len(woken) != 3 || woken[0] != 0 || woken[1] != 1 || woken[2] != 2 {
				t.Fatalf("woken = %v after %s, want [0 1 2]", woken, tc.name)
			}
			eng.RunAll()
			if len(woken) != 3 {
				t.Fatalf("woken = %v: a sender was woken twice", woken)
			}
		})
	}
}
