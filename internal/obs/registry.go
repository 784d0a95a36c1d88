package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Registry unifies the deployment's counters and gauges behind names, so
// one exporter (WritePrometheus) and one reader (Snapshot) see the
// solver, the dissemination strategies and the TCAL enforcement
// uniformly.
//
// Names follow Prometheus conventions and may carry labels inline:
// `kollaps_dissem_bytes_sent_total{host="3",strategy="tree"}`. The
// registry is a registration-time structure: Counter hands out pointers
// once (at deployment), and the hot path increments through
// the pointer without ever touching the registry's maps. Gauges are
// read-at-export closures, so values that already live elsewhere (a
// dissem.Stats counter, the live topology generation) are exported
// without a parallel write path.
//
// Registration and export are mutex-guarded, because the registry is
// part of the public API and a caller may register or export from any
// goroutine. The handed-out counters are atomics and safe to sample from
// any goroutine; gauge closures are only as safe as the state they read,
// so export a deployment's registry from the goroutine that drives its
// simulation (typically after Run returns).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*metrics.Counter
	gauges map[string]func() float64
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*metrics.Counter),
		gauges: make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable: hot paths keep it and increment without
// map lookups.
func (r *Registry) Counter(name string) *metrics.Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &metrics.Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge registers a read-at-export value. Re-registering a name replaces
// the closure — a manager restart re-points the gauge at its fresh node.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot reads every registered counter and gauge into a flat
// name→value map.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counts)+len(r.gauges))
	for name, c := range r.counts {
		out[name] = float64(c.Value())
	}
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	return out
}

// baseName strips an inline label set: `foo{bar="1"}` → `foo`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus exports every registered metric in the Prometheus text
// exposition format, sorted by name: counters as `counter`, gauges as
// `gauge`. A `# TYPE` line is emitted once per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)

	typed := make(map[string]bool)
	typeLine := func(name, typ string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, typ)
		}
	}

	names := make([]string, 0, len(r.counts))
	for name := range r.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typeLine(name, "counter")
		fmt.Fprintf(bw, "%s %d\n", name, r.counts[name].Value())
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typeLine(name, "gauge")
		fmt.Fprintf(bw, "%s %g\n", name, r.gauges[name]())
	}
	return bw.Flush()
}
