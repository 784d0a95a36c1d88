package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/dissem"
	"repro/internal/packet"
	"repro/kollaps"
)

// dumbbell is the scenario every control-plane experiment (dissem,
// failover, chaos, sweep) runs: dissemScaleYAML(n) deployed on n
// managers with one 8 Mb/s CBR flow per client, which offers well above
// any fair share so every flow stays allocation-limited.
//
// Same-instant events fire in insertion order, and a periodic event is
// re-inserted each time it fires, so a callback registered before Run
// observes the state just before that instant's manager and CBR ticks;
// one registered during the run, after them. Keep measurement callbacks
// registered up front, in the order the experiment calls the helpers.
type dumbbell struct {
	name   string
	exp    *kollaps.Experiment
	n      int
	period time.Duration
	// maxAge is the view horizon completeness reads views at.
	maxAge time.Duration
	// received counts the payload bytes delivered to each flow's server.
	received []int64
	// origins maps each manager to the path keys of its own flows: the
	// reference that completeness scores every view against.
	origins map[int]map[string]bool
}

// newDumbbell deploys the dumbbell under opts and starts the CBR load.
// plan (when non-nil) is installed before the deployment; gate (when
// non-nil) is asked before each send whether flow is on at now.
func newDumbbell(name string, n int, period time.Duration, plan *chaos.Plan,
	gate func(flow int, now time.Duration) bool, opts ...kollaps.Option) *dumbbell {
	d := &dumbbell{name: name, n: n, period: period, maxAge: dissem.ExpireAfter * period,
		received: make([]int64, dissemFlowsPerHost*n)}
	d.exp = mustKollaps(mustYAML(dissemScaleYAML(n)), n, plan, append(opts, kollaps.WithPeriod(period))...)
	interval := time.Duration(float64(cbrPayload*8) / 8e6 * float64(time.Second))
	for i := range d.received {
		i := i
		cli, errC := d.exp.Container(fmt.Sprintf("c%d", i))
		srv, errS := d.exp.Container(fmt.Sprintf("sv%d", i))
		if err := errors.Join(errC, errS); err != nil {
			panic(fmt.Sprintf("experiments: %s topology: %v", name, err))
		}
		srv.Stack.HandleUDP(9000, func(_ packet.IP, _ uint16, size int, _ any) {
			d.received[i] += int64(size)
		})
		d.exp.Eng.Every(interval, func() {
			if gate != nil && !gate(i, d.exp.Eng.Now()) {
				return
			}
			cli.Stack.SendUDP(srv.IP, 9000, 9000, cbrPayload, nil)
		})
	}
	return d
}

// run advances the emulation to until.
func (d *dumbbell) run(until time.Duration) {
	if err := d.exp.Run(until); err != nil {
		panic(fmt.Sprintf("experiments: %s run: %v", d.name, err))
	}
}

// pathID keys a remote flow by its link path (origin attribution is
// unavailable under Tree, which merges records).
func pathID(links []uint16) string { return fmt.Sprint(links) }

// view is manager v's current view as a set of path keys.
func (d *dumbbell) view(v int) map[string]bool {
	visible := make(map[string]bool)
	for _, rf := range d.exp.Runtime.Managers()[v].Node().RemoteFlows(d.exp.Eng.Now(), d.maxAge) {
		visible[pathID(rf.Links)] = true
	}
	return visible
}

// originPaths sets the reference completeness scores against: known
// when non-nil, otherwise harvested at `at` from Broadcast's per-origin
// views, which attribute every path to its owner (Tree merges records
// and loses that attribution). It returns the map, filled in by the
// time `at` has run, so later strategies can share it.
func (d *dumbbell) originPaths(known map[int]map[string]bool, at time.Duration) map[int]map[string]bool {
	if known != nil {
		d.origins = known
		return known
	}
	d.origins = make(map[int]map[string]bool)
	d.exp.Eng.At(at, func() {
		for viewer := 0; viewer < 2; viewer++ {
			node := d.exp.Runtime.Managers()[viewer].Node()
			for _, rf := range node.RemoteFlows(d.exp.Eng.Now(), d.maxAge) {
				o := int(rf.Origin)
				if d.origins[o] == nil {
					d.origins[o] = make(map[string]bool)
				}
				d.origins[o][pathID(rf.Links)] = true
			}
		}
	})
	return d.origins
}

// completeness is the worst view's coverage, right now, of the other
// managers' flows. Pairs for which skip (when non-nil) holds are not
// scored, and a viewer with no scored pair is not read.
func (d *dumbbell) completeness(skip func(viewer, origin int) bool) float64 {
	worst := 1.0
	for v := 0; v < d.n; v++ {
		var visible map[string]bool
		expect, got := 0, 0
		for o, paths := range d.origins {
			if o == v || skip != nil && skip(v, o) {
				continue
			}
			if visible == nil {
				visible = d.view(v)
			}
			for p := range paths {
				expect++
				if visible[p] {
					got++
				}
			}
		}
		if expect > 0 {
			worst = min(worst, float64(got)/float64(expect))
		}
	}
	return worst
}

// midPeriods calls fn(k) in the middle of period k after start, for k in
// [from, to): mid-period, every publish of the period has landed.
func (d *dumbbell) midPeriods(start time.Duration, from, to int, fn func(k int)) {
	for k := from; k < to; k++ {
		k := k
		d.exp.Eng.At(start+time.Duration(k)*d.period+d.period/2, func() { fn(k) })
	}
}

// firstPeriod sets *dst to the first period k in [0, max) after start in
// whose middle cond holds, or -1 if it never does; cond is not consulted
// again once it has held.
func (d *dumbbell) firstPeriod(dst *int, start time.Duration, max int, cond func() bool) {
	*dst = -1
	d.midPeriods(start, 0, max, func(k int) {
		if *dst < 0 && cond() {
			*dst = k
		}
	})
}
