package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags checks that a bad flag value exits 2 with a
// message naming the flag and the value, instead of panicking inside
// the generator.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-elements", "3"}, "-elements 3"},
		{[]string{"-kind", "dumbbell", "-clients", "-1"}, "-clients -1"},
		{[]string{"-kind", "dumbbell", "-servers", "0"}, "-servers 0"},
		{[]string{"-kind", "ring"}, `"ring"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of topology", tc.args, stdout.Len())
		}
	}
}

// TestOutputUnchanged pins the generated YAML byte for byte.
func TestOutputUnchanged(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "dumbbell", "-clients", "2", "-servers", "2"}, dumbbell2x2},
		{[]string{"-elements", "8", "-seed", "7"}, scaleFree8},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		if got := stdout.String(); got != tc.want {
			t.Errorf("%v: output changed:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

const dumbbell2x2 = `experiment:
  services:
    name: c0
    name: c1
    name: sv0
    name: sv1
  bridges:
    name: b1
    name: b2
  links:
    orig: b1
    dest: b2
    latency: 5.000
    up: 50Mbps
    orig: c0
    dest: b1
    latency: 1.000
    up: 100Mbps
    orig: c1
    dest: b1
    latency: 1.000
    up: 100Mbps
    orig: sv0
    dest: b2
    latency: 1.000
    up: 100Mbps
    orig: sv1
    dest: b2
    latency: 1.000
    up: 100Mbps
`

const scaleFree8 = `experiment:
  services:
    name: n0
    name: n1
    name: n2
    name: n3
    name: n4
  bridges:
    name: s0
    name: s1
    name: s2
  links:
    orig: s0
    dest: s1
    latency: 2.000
    up: 1Gbps
    orig: s2
    dest: s0
    latency: 2.000
    up: 1Gbps
    orig: s2
    dest: s1
    latency: 2.000
    up: 1Gbps
    orig: n0
    dest: s2
    latency: 2.000
    up: 1Gbps
    orig: n1
    dest: s2
    latency: 2.000
    up: 1Gbps
    orig: n2
    dest: s0
    latency: 2.000
    up: 1Gbps
    orig: n3
    dest: s0
    latency: 2.000
    up: 1Gbps
    orig: n4
    dest: s1
    latency: 2.000
    up: 1Gbps
`
