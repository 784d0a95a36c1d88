package units

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want Bandwidth
	}{
		{"10Mbps", 10 * Mbps},
		{"10 Mbps", 10 * Mbps},
		{"10Mb/s", 10 * Mbps},
		{"10M", 10 * Mbps},
		{"128Kbps", 128 * Kbps},
		{"128 Kb/s", 128 * Kbps},
		{"1Gb/s", 1 * Gbps},
		{"4Gbps", 4 * Gbps},
		{"2.5Mbps", Bandwidth(2.5 * float64(Mbps))},
		{"9600", 9600},
		{"9600bps", 9600},
		{"100 Mbps", 100 * Mbps},
		{"50Mb/s", 50 * Mbps},
		{"0Mbps", 0},
		{"9223372036854774784bps", 9223372036854774784}, // the largest float below 2^63
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if err != nil {
			t.Errorf("ParseBandwidth(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseBandwidthErrors(t *testing.T) {
	for _, in := range []string{"", "Mbps", "10Xbps", "-5Mbps", "10..5Mbps", "ten Mbps"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q): expected error", in)
		}
	}
}

// TestParseBandwidthOutOfRange pins the top of the range: rates that do
// not fit an int64 are an error that quotes the input, not a wrapped
// negative Bandwidth (TestParseBandwidth parses the largest float below
// 2^63).
func TestParseBandwidthOutOfRange(t *testing.T) {
	for _, in := range []string{"99999999999Gbps", "9223372036854775807bps", "9223372036854775808", "9223372037Gbps"} {
		got, err := ParseBandwidth(in)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("ParseBandwidth(%q) = %d, %v; want an error quoting the input", in, got, err)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{10 * Mbps, "10Mbps"},
		{1 * Gbps, "1Gbps"},
		{128 * Kbps, "128Kbps"},
		{500, "500bps"},
		{Bandwidth(2.5 * float64(Mbps)), "2.50Mbps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidthRoundTrip(t *testing.T) {
	// Property: parsing the String() form returns a value within 1% of
	// the original (formatting may round).
	f := func(raw int64) bool {
		if raw < 0 {
			raw = -raw
		}
		b := Bandwidth(raw % int64(100*Gbps))
		got, err := ParseBandwidth(b.String())
		if err != nil {
			return false
		}
		diff := float64(got - b)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 0.01*float64(b)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeToSend(t *testing.T) {
	// 1000 bytes at 8000 bps is exactly one second.
	if got := Bandwidth(8000).TimeToSend(1000); got != time.Second {
		t.Errorf("TimeToSend = %v, want 1s", got)
	}
	// 1500 bytes at 100Mbps = 120us.
	if got := (100 * Mbps).TimeToSend(1500); got != 120*time.Microsecond {
		t.Errorf("TimeToSend = %v, want 120us", got)
	}
	if got := Bandwidth(0).TimeToSend(1000); got != 0 {
		t.Errorf("zero bandwidth should be instant, got %v", got)
	}
}

func TestBytesIn(t *testing.T) {
	if got := (8 * Kbps).BytesIn(time.Second); got != 1000 {
		t.Errorf("BytesIn = %v, want 1000", got)
	}
	if got := (8 * Kbps).BytesIn(0); got != 0 {
		t.Errorf("BytesIn(0) = %v, want 0", got)
	}
}

func TestParseLatency(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"10", 10 * time.Millisecond},
		{"10ms", 10 * time.Millisecond},
		{"0.25", 250 * time.Microsecond},
		{"1.5s", 1500 * time.Millisecond},
		{"250us", 250 * time.Microsecond},
		{"0", 0},
	}
	for _, c := range cases {
		got, err := ParseLatency(c.in)
		if err != nil {
			t.Errorf("ParseLatency(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseLatency(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "-5", "-5ms", "xyz"} {
		if _, err := ParseLatency(in); err == nil {
			t.Errorf("ParseLatency(%q): expected error", in)
		}
	}
}

// TestParseLatencyOutOfRange pins the top of the bare-millisecond form:
// NaN, ±Inf and latencies at or past 2^63 ns are an error that quotes the
// input, not a wrapped negative time.Duration. A latency just below 2^63
// ns still parses.
func TestParseLatencyOutOfRange(t *testing.T) {
	for _, in := range []string{"1e13", "10000000000000", "9223372036854.775808", "NaN", "nan", "Inf", "+Inf", "-Inf", "1e309"} {
		got, err := ParseLatency(in)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("ParseLatency(%q) = %d, %v; want an error quoting the input", in, got, err)
		}
	}
	if got, err := ParseLatency("9223372036854.77"); err != nil || got < 9223372036854760000 {
		t.Errorf("ParseLatency(%q) = %d, %v; want just below 2^63 ns", "9223372036854.77", got, err)
	}
}

// TestParseLossRejectsNaN: NaN compares false against both ends of
// [0,1], so the range check must reject it explicitly.
func TestParseLossRejectsNaN(t *testing.T) {
	for _, in := range []string{"NaN", "nan", "nan%", "+NaN", "-nan %"} {
		got, err := ParseLoss(in)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("ParseLoss(%q) = %v, %v; want an error quoting the input", in, got, err)
		}
	}
}

// FuzzUnitsParse holds the three parsers to their ranges on any input:
// whatever one returns with a nil error is finite, non-negative and
// representable — a bandwidth in [0, 2^63) b/s, a latency in [0, 2^63)
// ns, a loss in [0, 1].
func FuzzUnitsParse(f *testing.F) {
	for _, s := range []string{"10Mbps", "1e13", "NaN", "nan%", "Inf", "-Inf", "9223372036854775807bps",
		"99999999999Gbps", "10ms", "2562047h47m16.854775807s", "2562047h48m", "1.5", "50%", "0x1p62", "1_000"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if b, err := ParseBandwidth(s); err == nil && b < 0 {
			t.Errorf("ParseBandwidth(%q) = %d", s, b)
		}
		if d, err := ParseLatency(s); err == nil && d < 0 {
			t.Errorf("ParseLatency(%q) = %d", s, d)
		}
		if l, err := ParseLoss(s); err == nil && !(l >= 0 && l <= 1) {
			t.Errorf("ParseLoss(%q) = %v", s, l)
		}
	})
}

func TestParseLoss(t *testing.T) {
	cases := []struct {
		in   string
		want Loss
	}{
		{"0", 0},
		{"0.01", 0.01},
		{"1", 1},
		{"1%", 0.01},
		{"50%", 0.5},
		{"100%", 1},
	}
	for _, c := range cases {
		got, err := ParseLoss(c.in)
		if err != nil {
			t.Errorf("ParseLoss(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseLoss(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "1.5", "-0.1", "200%", "abc"} {
		if _, err := ParseLoss(in); err == nil {
			t.Errorf("ParseLoss(%q): expected error", in)
		}
	}
}

func TestLossClamp(t *testing.T) {
	if got := Loss(-0.5).Clamp(); got != 0 {
		t.Errorf("Clamp(-0.5) = %v", got)
	}
	if got := Loss(1.5).Clamp(); got != 1 {
		t.Errorf("Clamp(1.5) = %v", got)
	}
	if got := Loss(0.3).Clamp(); got != 0.3 {
		t.Errorf("Clamp(0.3) = %v", got)
	}
}
