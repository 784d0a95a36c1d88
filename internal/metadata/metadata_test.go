package metadata

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// decode is DecodeInto into a fresh message.
func decode(b []byte, wide bool) (*Message, error) {
	m := new(Message)
	_, err := DecodeInto(m, nil, b, wide)
	return m, err
}

func sample() *Message {
	return &Message{
		Host: 3,
		Flows: []FlowRecord{
			{BPS: 50_000_000, Count: 1, Links: []uint16{0, 6, 7, 8}},
			{BPS: 10_000_000, Count: 1, Links: []uint16{2, 6, 7, 10}},
			{BPS: 125_000, Count: 1, Links: []uint16{1}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, wide := range []bool{false, true} {
		m := sample()
		b := AppendEncode(nil, m, wide)
		got, err := decode(b, wide)
		if err != nil {
			t.Fatalf("wide=%v: %v", wide, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("wide=%v: round trip mismatch:\n%+v\n%+v", wide, m, got)
		}
	}
}

func TestEncodedSizeMatchesPaperFormat(t *testing.T) {
	// (i) 2 bytes host id is our framing; flow count 2 bytes;
	// per flow: 4 bytes bandwidth + 1 byte link count + 1 byte per link
	// (narrow) per §4.2.
	m := sample()
	b := AppendEncode(nil, m, false)
	want := 2 + 2 + (4 + 1 + 4) + (4 + 1 + 4) + (4 + 1 + 1)
	if len(b) != want {
		t.Fatalf("narrow size = %d, want %d", len(b), want)
	}
	bw := AppendEncode(nil, m, true)
	wantWide := 2 + 2 + (4 + 1 + 8) + (4 + 1 + 8) + (4 + 1 + 2)
	if len(bw) != wantWide {
		t.Fatalf("wide size = %d, want %d", len(bw), wantWide)
	}
}

// TestCountStaysOffTheWire pins the paper's format: a record's Count is
// not encoded, so any Count gives the same bytes, and decoding reads 1.
func TestCountStaysOffTheWire(t *testing.T) {
	m := sample()
	want := AppendEncode(nil, m, false)
	for i := range m.Flows {
		m.Flows[i].Count = uint16(7 * i)
	}
	if got := AppendEncode(nil, m, false); !bytes.Equal(got, want) {
		t.Fatalf("Count reached the wire:\n%x\n%x", got, want)
	}
	if got, err := decode(want, false); err != nil || !reflect.DeepEqual(got, sample()) {
		t.Fatalf("decode = %+v, %v, want every Count 1", got, err)
	}
}

func TestFitsSingleDatagram(t *testing.T) {
	// A dumbbell host with 40 local flows, 4-hop paths: must fit in one
	// UDP datagram (< 1472 bytes payload).
	m := &Message{Host: 1}
	for i := 0; i < 40; i++ {
		m.Flows = append(m.Flows, FlowRecord{BPS: 50_000_000, Links: []uint16{1, 2, 3, 4}})
	}
	if n := len(AppendEncode(nil, m, false)); n > 1472 {
		t.Fatalf("40-flow message is %d bytes, exceeds one datagram", n)
	}
}

func TestEmptyMessage(t *testing.T) {
	m := &Message{Host: 9}
	got, err := decode(AppendEncode(nil, m, false), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != 9 || len(got.Flows) != 0 {
		t.Fatalf("empty round trip = %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0, 1, 0, 1},             // one flow promised, no data
		{0, 1, 0, 1, 0, 0, 0, 1}, // truncated mid-flow
		append(AppendEncode(nil, sample(), false), 0xFF), // trailing garbage
	}
	for i, b := range cases {
		if _, err := decode(b, false); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
	// Width mismatch on a multi-link message must error or mis-parse,
	// never panic.
	b := AppendEncode(nil, sample(), true)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("width mismatch panicked: %v", r)
			}
		}()
		_, _ = decode(b, false)
	}()
}

// TestWideBoundaryRoundTrip pins the 256-link boundary: topologies with
// more than 256 links switch to 2-byte identifiers, and ids right at and
// beyond the 1-byte range must survive a wide round trip.
func TestWideBoundaryRoundTrip(t *testing.T) {
	m := &Message{
		Host: 1,
		Flows: []FlowRecord{
			{BPS: 1_000, Count: 1, Links: []uint16{0, 255}},
			{BPS: 2_000, Count: 1, Links: []uint16{255, 256, 257}},
			{BPS: 3_000, Count: 1, Links: []uint16{65535}},
		},
	}
	got, err := decode(AppendEncode(nil, m, true), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("wide boundary round trip mismatch:\n%+v\n%+v", m, got)
	}
	// A narrow encoding cannot represent ids above 255: the byte cast
	// must wrap (the runtime never narrow-encodes such topologies, by
	// the Wide rule), never panic.
	narrow := AppendEncode(nil, m, false)
	if dec, err := decode(narrow, false); err == nil {
		if reflect.DeepEqual(dec, m) {
			t.Fatal("narrow encoding cannot faithfully carry links > 255")
		}
	}
}

// TestDecodeErrorsTruncatedWide covers malformed datagrams specific to
// the 2-byte link encoding and lying length fields.
func TestDecodeErrorsTruncatedWide(t *testing.T) {
	full := AppendEncode(nil, sample(), true)
	cases := [][]byte{
		full[:len(full)-1],                // cut mid link id
		full[:5],                          // cut inside the first flow header
		{0, 1, 0, 2, 0, 0, 0, 1, 1, 0, 5}, // 2 flows promised, 1 present
		{0, 1, 0, 1, 0, 0, 0, 1, 9, 0, 5}, // 9 links promised, 1 present
	}
	for i, b := range cases {
		if _, err := decode(b, true); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(host uint16, raw [][3]uint16, bps []uint32) bool {
		m := &Message{Host: host}
		for i, r := range raw {
			if i >= 20 {
				break
			}
			var b uint32 = 1000
			if i < len(bps) {
				b = bps[i]
			}
			m.Flows = append(m.Flows, FlowRecord{BPS: b, Count: 1, Links: []uint16{r[0], r[1], r[2]}})
		}
		got, err := decode(AppendEncode(nil, m, true), true)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWide(t *testing.T) {
	if Wide(256) || !Wide(257) {
		t.Fatal("Wide threshold wrong")
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AppendEncode(nil, m, false)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := AppendEncode(nil, sample(), false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decode(buf, false); err != nil {
			b.Fatal(err)
		}
	}
}
