package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// inTempDir runs the test from a fresh directory, so a JSON experiment
// that writes its committed report would leave the file there.
func inTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	return dir
}

// TestBadCommandLineRunsNothing checks the whole command line before
// any experiment runs: an unknown -exp id anywhere in the list, or -out
// without exactly one JSON experiment, exits 2 with an error naming the
// problem, prints no table and writes no report.
func TestBadCommandLineRunsNothing(t *testing.T) {
	dir := inTempDir(t)
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "table3,bogus", "-quick"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "bogus,table3", "-quick"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "failover,bogus", "-quick"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "chaos,bogus", "-quick", "-out", "r.json"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "table3", "-quick", "-out", "r.json"}, "-out needs exactly one JSON experiment in -exp, got 0"},
		{[]string{"-exp", "failover,chaos", "-quick", "-out", "r.json"}, "-out needs exactly one JSON experiment in -exp, got 2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.wantErr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, stderr.String(), c.wantErr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed before failing:\n%s", c.args, stdout.String())
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Errorf("wrote %s before failing", f.Name())
	}
}
