package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(3) // rounds up to 4
	if len(tr.ev) != 4 {
		t.Fatalf("ring capacity = %d, want 4", len(tr.ev))
	}
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, KindPublish, 0, int64(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events(nil)
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first order)", i, e.A, want)
		}
	}
}

func TestTracerNilNoop(t *testing.T) {
	var tr *Tracer
	tr.Record(0, KindSolveEnd, 0, 1, 2) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer should read as empty")
	}
	if evs := tr.Events(nil); len(evs) != 0 {
		t.Fatalf("nil tracer Events = %v, want empty", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if got, want := buf.String(), `{"displayTimeUnit":"ms","traceEvents":[]}`; got != want {
		t.Fatalf("nil WriteChrome = %s, want %s", got, want)
	}
}

// TestConcurrentRecordAndExport is CI's race workload. The public API
// hands the tracer and the registry to callers, so one goroutine may
// record and register while others read and export: under go test
// -race, dropping the lock from any of these methods is a reported race.
// Each reader calls one method, so no other locked call of its own can
// order that method's accesses after the recorder's.
func TestConcurrentRecordAndExport(t *testing.T) {
	const n = 2000
	tr, reg := NewTracer(64), NewRegistry()
	recorded := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(recorded)
		for i := 0; i < n; i++ {
			tr.Record(time.Duration(i), KindPublish, 0, int64(i), 0)
			// A new name every 16 records: registration keeps writing the
			// maps while the readers range over them.
			host := strconv.Itoa(i / 16)
			reg.Counter(`records_total{host="` + host + `"}`).Inc()
			reg.Gauge(`up{host="`+host+`"}`, func() float64 { return 1 })
			runtime.Gosched()
		}
	}()
	var buf []Event
	for _, read := range []func() error{
		func() error { tr.Len(); return nil },
		func() error { tr.Dropped(); return nil },
		func() error { buf = tr.Events(buf[:0]); return nil },
		func() error { return tr.WriteChrome(io.Discard) },
		func() error { reg.Snapshot(); return nil },
		func() error { return reg.WritePrometheus(io.Discard) },
	} {
		wg.Add(1)
		go func(read func() error) { // until the recorder is done, so the two interleave
			defer wg.Done()
			for done := false; !done; runtime.Gosched() {
				select {
				case <-recorded:
					done = true
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
				}
			}
		}(read)
	}
	wg.Wait()
	if tr.Len() != 64 || tr.Dropped() != n-64 {
		t.Fatalf("Len %d, Dropped %d after %d records into 64 slots", tr.Len(), tr.Dropped(), n)
	}
	var sum float64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "records_total") {
			sum += v
		}
	}
	if sum != n {
		t.Fatalf("counters sum to %v, want %d", sum, n)
	}
}

func TestPackName(t *testing.T) {
	for _, name := range []string{"", "a", "s1", "client-7", "12345678"} {
		if got := UnpackName(PackName(name)); got != name {
			t.Fatalf("UnpackName(PackName(%q)) = %q", name, got)
		}
	}
	// Names beyond 8 bytes truncate deterministically.
	if got := UnpackName(PackName("verylongname")); got != "verylong" {
		t.Fatalf("long name packed to %q, want %q", got, "verylong")
	}
	ip := [4]byte{10, 1, 0, 7}
	if got := UnpackIP(PackIP(ip)); got != ip {
		t.Fatalf("UnpackIP(PackIP(%v)) = %v", ip, got)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(50*time.Millisecond, KindSolveStart, 0, 12, 0)
	tr.Record(50*time.Millisecond, KindSolveEnd, 0, 12, 42_000)
	tr.Record(50*time.Millisecond, KindPublish, 0, 12, 0)
	tr.Record(51*time.Millisecond, KindReceive, 1, 512, 0)
	tr.Record(60*time.Millisecond, KindManagerKill, 1, 0, 0)
	tr.Record(80*time.Millisecond, KindManagerRestart, 1, 0, 0)
	tr.Record(90*time.Millisecond, KindSuspect, 0, 1, 0)
	tr.Record(100*time.Millisecond, KindProbe, -1, 1234, 9999)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		byName[e["name"].(string)]++
	}
	for _, want := range []string{"solve", "publish", "receive", "manager-kill", "manager-restart", "suspect", "share-deviation"} {
		if byName[want] == 0 {
			t.Fatalf("chrome export missing %q events; have %v", want, byName)
		}
	}
	// Both managers and the runtime row must be named.
	if byName["process_name"] != 3 {
		t.Fatalf("process_name metadata = %d, want 3 (manager-0, manager-1, runtime)", byName["process_name"])
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kollaps_test_total")
	c.Add(5)
	if r.Counter("kollaps_test_total") != c {
		t.Fatalf("Counter must return a stable pointer per name")
	}
	v := 3.5
	r.Gauge("kollaps_test_gauge", func() float64 { return v })

	snap := r.Snapshot()
	if snap["kollaps_test_total"] != 5 || snap["kollaps_test_gauge"] != 3.5 {
		t.Fatalf("snapshot = %v", snap)
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2: %v", len(snap), snap)
	}

	// A snapshot is a copy: later reads see the new values, the old map
	// keeps the old ones.
	c.Add(2)
	v = 4
	if now := r.Snapshot(); now["kollaps_test_total"] != 7 || now["kollaps_test_gauge"] != 4 {
		t.Fatalf("second snapshot = %v", now)
	}
	if snap["kollaps_test_total"] != 5 || snap["kollaps_test_gauge"] != 3.5 {
		t.Fatalf("first snapshot changed to %v", snap)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`kollaps_dissem_bytes_sent_total{host="0",strategy="tree"}`).Add(100)
	r.Counter(`kollaps_dissem_bytes_sent_total{host="1",strategy="tree"}`).Add(50)
	r.Gauge("kollaps_virtual_time_seconds", func() float64 { return 1.5 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE kollaps_dissem_bytes_sent_total counter",
		`kollaps_dissem_bytes_sent_total{host="0",strategy="tree"} 100`,
		`kollaps_dissem_bytes_sent_total{host="1",strategy="tree"} 50`,
		"# TYPE kollaps_virtual_time_seconds gauge",
		"kollaps_virtual_time_seconds 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per labeled series.
	if strings.Count(out, "# TYPE kollaps_dissem_bytes_sent_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestProbeWindows(t *testing.T) {
	p := NewProbe(0)
	if p.Every != 1 {
		t.Fatalf("Every = %d, want clamp to 1", p.Every)
	}
	p.Record(10*time.Millisecond, 0.10, 0.20)
	p.Record(20*time.Millisecond, 0.20, 0.90)
	p.Record(30*time.Millisecond, 0.30, 0.40)
	if p.Samples != 3 {
		t.Fatalf("Samples = %d", p.Samples)
	}
	if got := p.MeanBetween(15*time.Millisecond, 35*time.Millisecond); got != 0.25 {
		t.Fatalf("MeanBetween = %g, want 0.25", got)
	}
	if got := p.MaxBetween(0, 25*time.Millisecond); got != 0.90 {
		t.Fatalf("MaxBetween = %g, want 0.90", got)
	}
	if got := p.MaxBetween(31*time.Millisecond, 40*time.Millisecond); got != 0 {
		t.Fatalf("MaxBetween outside window = %g, want 0", got)
	}
}

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
	if stop, err = StartProfiles("", ""); err != nil || stop() != nil {
		t.Errorf("no-profile call failed: %v", err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "no", "such", "dir"), ""); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}
