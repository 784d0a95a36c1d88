package packet

import (
	"reflect"
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

// setNonZero gives v, and every exported field, element and array cell
// inside it, a non-zero value; slices get two elements. A kind it does not
// know fails the test, so a new field cannot slip past it.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				setNonZero(t, v.Field(i))
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint8, reflect.Uint16:
		v.SetUint(7)
	case reflect.Interface:
		v.Set(reflect.ValueOf("meta"))
	default:
		t.Fatalf("setNonZero: no value for a %v (%v)", v.Kind(), v.Type())
	}
}

// TestReleaseZeroesAndKeepsSegmentCapacity: every exported field of a
// packet, its TCP segment and its echo body set, the packet released and
// drawn again reads as new, apart from the SACK and mark capacity, which
// it keeps, and its pool.
func TestReleaseZeroesAndKeepsSegmentCapacity(t *testing.T) {
	var pl Pool
	p := pl.Get()
	setNonZero(t, reflect.ValueOf(p).Elem())
	p.Frame = append(pl.Frame(8), "frame"...) // a frame goes back to its pool
	marks := p.TCP.Marks
	p.Release()
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not hand the released packet back")
	}
	want := Packet{TCP: Segment{SACK: q.TCP.SACK[:0], Marks: q.TCP.Marks[:0]}, pool: &pl}
	if !reflect.DeepEqual(*q, want) {
		t.Fatalf("reused packet not zeroed:\n got %+v\nwant %+v", *q, want)
	}
	if cap(q.TCP.SACK) < 2 || cap(q.TCP.Marks) < 2 || &q.TCP.Marks[:1][0] != &marks[0] {
		t.Fatal("reused packet lost its SACK or mark capacity")
	}
	if marks[0].Meta != nil || marks[1].Meta != nil {
		t.Fatal("released packet still references a mark's metadata")
	}
	if out, frames := pl.Outstanding(); out != 1 || frames != 0 {
		t.Fatalf("outstanding %d packets, %d frames; want the packet only", out, frames)
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
