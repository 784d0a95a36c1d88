package packet

import (
	"strings"
	"testing"
)

// mustPanic runs f and reports whether it panicked with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

func TestPoolReusesLIFOAndCounts(t *testing.T) {
	var pl Pool
	a, b := pl.Get(), pl.Get()
	if out, _ := pl.Outstanding(); out != 2 {
		t.Fatalf("outstanding %d after two Gets", out)
	}
	a.Release()
	b.Release()
	if out, _ := pl.Outstanding(); out != 0 {
		t.Fatalf("outstanding %d after both came back", out)
	}
	if pl.Get() != b || pl.Get() != a {
		t.Fatal("reuse is not last in, first out")
	}
}

func TestReleaseZeroesAndKeepsSegmentCapacity(t *testing.T) {
	var pl Pool
	p := pl.Get()
	*p = Packet{Src: MakeIP(1, 2, 3), Size: 99, Payload: "app", pool: p.pool,
		TCP:  Segment{Seq: 7, SACK: [][2]int64{{1, 2}, {3, 4}}, Marks: []Mark{{End: 5, Meta: "m"}}},
		Echo: Echo{ID: 3, Reply: true}}
	marks := p.TCP.Marks
	p.Release()
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not hand the released packet back")
	}
	if q.Src != (IP{}) || q.Size != 0 || q.Payload != nil || q.TCP.Seq != 0 || q.Echo != (Echo{}) ||
		len(q.TCP.SACK) != 0 || len(q.TCP.Marks) != 0 {
		t.Fatalf("reused packet not zeroed: %+v", q)
	}
	if cap(q.TCP.SACK) < 2 || cap(q.TCP.Marks) < 1 {
		t.Fatal("reused packet lost its SACK or mark capacity")
	}
	if marks[:1][0].Meta != nil {
		t.Fatal("released packet still references a mark's metadata")
	}
}

func TestOwnershipRuleIsChecked(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.AssertLive("use")
	p.Release()
	mustPanic(t, "Release of a released packet", p.Release)
	mustPanic(t, "Send of a released packet", func() { p.AssertLive("Send") })

	// A packet no pool handed out is never released: callers that build
	// their own (arrays of packets, test fixtures) may pass it anywhere.
	own := &Packet{Size: 1}
	own.Release()
	own.Release()
	own.AssertLive("use")
	var nilPacket *Packet
	nilPacket.AssertLive("use")
}

func TestFramesBySizeClass(t *testing.T) {
	var pl Pool
	for _, n := range []int{0, 1, 64, 65, 1500, 64 << 10, 64<<10 + 1} {
		f := pl.Frame(n)
		if len(f) != 0 || cap(f) < n {
			t.Fatalf("Frame(%d): len %d cap %d", n, len(f), cap(f))
		}
		pl.ReleaseFrame(f)
	}
	if _, frames := pl.Outstanding(); frames != 0 {
		t.Fatalf("%d frames outstanding after every one came back", frames)
	}
	f := pl.Frame(100)
	pl.ReleaseFrame(f)
	if g := pl.Frame(120); &g[:1][0] != &f[:1][0] {
		t.Fatal("a frame of the same class was not reused")
	}

	// A pooled packet takes its frame back with it.
	p := pl.Get()
	p.Frame = append(pl.Frame(10), "datagram"...)
	p.Release()
	if out, frames := pl.Outstanding(); out != 0 || frames != 1 {
		t.Fatalf("outstanding %d packets, %d frames; want the 120-byte frame only", out, frames)
	}
}
