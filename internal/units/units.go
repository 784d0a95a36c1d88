// Package units provides the value types used throughout the emulator:
// bandwidth (bits per second), latency (time.Duration), jitter and packet
// loss probability, together with parsing and formatting of the textual
// forms that appear in topology description files ("10Mbps", "50Mb/s",
// "1Gb/s", "128Kb/s", ...).
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bandwidth is a link or flow rate in bits per second.
type Bandwidth int64

// Common bandwidth units, in bits per second. Following networking
// convention these are decimal (powers of 1000), matching tc and the
// topology syntax of the paper.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1000 * BitPerSecond
	Mbps                   = 1000 * Kbps
	Gbps                   = 1000 * Mbps
)

// Bps returns the bandwidth in bytes per second.
func (b Bandwidth) Bps() float64 { return float64(b) / 8 }

// TimeToSend returns how long it takes to serialize n bytes at rate b.
// A zero or negative bandwidth is treated as infinitely fast.
func (b Bandwidth) TimeToSend(n int) time.Duration {
	if b <= 0 || n <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return time.Duration(bits / float64(b) * float64(time.Second))
}

// BytesIn returns how many bytes can be sent in d at rate b.
func (b Bandwidth) BytesIn(d time.Duration) float64 {
	if b <= 0 || d <= 0 {
		return 0
	}
	return float64(b) / 8 * d.Seconds()
}

// String formats the bandwidth with the largest unit that keeps the value
// readable, e.g. "10Mbps".
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps && b%Gbps == 0:
		return fmt.Sprintf("%dGbps", b/Gbps)
	case b >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(b)/float64(Gbps))
	case b >= Mbps && b%Mbps == 0:
		return fmt.Sprintf("%dMbps", b/Mbps)
	case b >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(b)/float64(Mbps))
	case b >= Kbps && b%Kbps == 0:
		return fmt.Sprintf("%dKbps", b/Kbps)
	case b >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(b)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// ParseBandwidth parses the bandwidth syntax accepted in topology files.
// Accepted forms (case-insensitive, optional space before the unit):
//
//	"10Mbps", "10 Mbps", "10Mb/s", "10M", "128Kbps", "1Gb/s", "9600bps", "9600"
//
// A bare number is interpreted as bits per second. A rate at or past
// 2^63 b/s does not fit a Bandwidth and is an error.
func ParseBandwidth(s string) (Bandwidth, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty bandwidth")
	}
	// Split numeric prefix from unit suffix.
	i := 0
	for i < len(t) && (t[i] >= '0' && t[i] <= '9' || t[i] == '.' || t[i] == '+') {
		i++
	}
	numStr := t[:i]
	unit := strings.TrimSpace(t[i:])
	if numStr == "" {
		return 0, fmt.Errorf("units: no numeric value in bandwidth %q", s)
	}
	v, err := strconv.ParseFloat(numStr, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad bandwidth %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative bandwidth %q", s)
	}
	mult, err := bandwidthUnit(unit)
	if err != nil {
		return 0, fmt.Errorf("units: bad bandwidth %q: %v", s, err)
	}
	bps := v * float64(mult)
	if bps >= math.MaxInt64 {
		return 0, fmt.Errorf("units: bandwidth %q out of range", s)
	}
	return Bandwidth(bps), nil
}

func bandwidthUnit(u string) (Bandwidth, error) {
	n := strings.ToLower(u)
	n = strings.ReplaceAll(n, "/s", "ps")
	n = strings.TrimSuffix(n, "ps")
	switch n {
	case "", "b", "bit", "bits":
		return BitPerSecond, nil
	case "k", "kb", "kbit":
		return Kbps, nil
	case "m", "mb", "mbit":
		return Mbps, nil
	case "g", "gb", "gbit":
		return Gbps, nil
	}
	return 0, fmt.Errorf("unknown unit %q", u)
}

// ParseLatency parses a latency value. A bare number is milliseconds (the
// paper's topology files use "latency: 10" meaning 10 ms); otherwise any
// time.Duration syntax is accepted ("10ms", "1.5s", "250us"). NaN, ±Inf
// and a latency at or past 2^63 ns do not fit a time.Duration and are an
// error.
func ParseLatency(s string) (time.Duration, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty latency")
	}
	if v, err := strconv.ParseFloat(t, 64); err == nil {
		if v < 0 {
			return 0, fmt.Errorf("units: negative latency %q", s)
		}
		if ns := v * float64(time.Millisecond); ns < math.MaxInt64 {
			return time.Duration(ns), nil
		}
		return 0, fmt.Errorf("units: latency %q out of range", s)
	}
	d, err := time.ParseDuration(t)
	if err != nil {
		return 0, fmt.Errorf("units: bad latency %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("units: negative latency %q", s)
	}
	return d, nil
}

// Loss is a packet loss probability in [0,1].
type Loss float64

// ParseLoss parses a loss probability. Accepts "0.01" (probability) or
// "1%" (percentage); NaN is out of range.
func ParseLoss(s string) (Loss, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty loss")
	}
	pct := false
	if strings.HasSuffix(t, "%") {
		pct = true
		t = strings.TrimSuffix(t, "%")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad loss %q: %v", s, err)
	}
	if pct {
		v /= 100
	}
	if !(v >= 0 && v <= 1) {
		return 0, fmt.Errorf("units: loss %q out of range [0,1]", s)
	}
	return Loss(v), nil
}

// Clamp limits the loss to [0,1].
func (l Loss) Clamp() Loss {
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}
