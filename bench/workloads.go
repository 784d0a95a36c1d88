package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/packet"
	"repro/internal/transport"
	"repro/kollaps"
)

// The four workloads. Each installs its traffic and collectors between
// Deploy and the warm-up, lets runner.run time the lifecycle, then
// collects and checks. Collectors are engine callbacks registered up
// front, so the measured window is driven by the program alone.

// runWorkload runs one repetition in this process.
func runWorkload(in *inputs, tr *tracer, perturb float64) (res *result, err error) {
	r := newRunner(in, tr)
	r.perturbed = perturb
	defer func() {
		// A panic inside the program is a failed run, not a crashed
		// harness: the caller counts every op as failed.
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", in.Workload, p)
		}
	}()
	switch in.Workload {
	case "tcp_throttle":
		err = runTCP(r)
	case "scalefree_flap":
		err = runFlap(r)
	case "cbr_mesh64":
		err = runMesh(r)
	case "churn_soak":
		err = runChurn(r)
	default:
		err = fmt.Errorf("unknown workload %q", in.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.Workload, err)
	}
	res = r.finish()
	if tr != nil {
		res.Layers = tr.finish(res.WindowWallS)
		res.Spans = tr.spans
	}
	return res, nil
}

// nominalOps is how many checks a workload makes — what a repetition
// that died before checking is charged with.
func nominalOps(in *inputs) int {
	switch in.Workload {
	case "tcp_throttle":
		return fig8Clients * (fig8Clients + 1) / 2
	case "scalefree_flap":
		n := 0
		for _, p := range in.Flap.Pairs {
			n += len(pingTimes(in, p))
		}
		return n
	case "cbr_mesh64":
		return len(in.Mesh.Class)
	case "churn_soak":
		return len(in.Churn.Strategies) * (len(in.Churn.Mesh.Class) + in.Hosts)
	}
	return 1
}

// runTCP is the Fig 8 run: client i opens a long-lived Cubic flow to
// server i at its start time; per-phase goodputs over the second half
// of each phase are checked against the harness's share model.
func runTCP(r *runner) error {
	in, t := r.in, r.in.TCP
	received := make([]int64, fig8Clients)
	// marks[p][h][i]: bytes client i had delivered at the middle (h=0)
	// and end (h=1) of phase p.
	var marks [fig8Clients][2][fig8Clients]int64
	var ends []time.Duration
	for p := 1; p <= fig8Clients; p++ {
		ends = append(ends, in.Warmup+time.Duration(p)*t.Phase)
	}
	exp, err := r.run(stage{
		SliceEnds: ends,
		Goodput:   func() int64 { return sumInt64(received) },
		Install: func(exp *kollaps.Experiment) error {
			for i := 0; i < fig8Clients; i++ {
				i := i
				cli, err := exp.Container(fmt.Sprintf("c%d", i+1))
				if err != nil {
					return err
				}
				srv, err := exp.Container(fmt.Sprintf("s%d", i+1))
				if err != nil {
					return err
				}
				srv.Stack.Listen(5201, &transport.Listener{OnAccept: func(c *transport.Conn) {
					c.OnData = func(n int) { received[i] += int64(n) }
				}})
				exp.Eng.At(t.Starts[i], func() {
					conn := cli.Stack.Dial(srv.IP, 5201, transport.Cubic)
					conn.Write(1 << 30)
					exp.Eng.Every(time.Second, func() {
						if !conn.Closed() && conn.Buffered() < 1<<29 {
							conn.Write(1 << 28)
						}
					})
				})
			}
			for p := 0; p < fig8Clients; p++ {
				p := p
				exp.Eng.At(ends[p]-t.Phase/2, func() { copy(marks[p][0][:], received) })
				exp.Eng.At(ends[p], func() { copy(marks[p][1][:], received) })
			}
			return nil
		},
	})
	if err != nil {
		return err
	}

	sp := r.tr.begin("collect", "")
	for _, b := range received {
		r.fp.int(b)
	}
	for p := range marks {
		for i := 0; i <= p; i++ {
			r.fp.int(marks[p][1][i] - marks[p][0][i])
		}
	}
	r.foldFinalState(exp)
	r.tr.end(sp)

	sp = r.tr.begin("check", "")
	half := (t.Phase / 2).Seconds()
	for p := 0; p < fig8Clients; p++ {
		model := fig8Model(p + 1)
		for i := 0; i <= p; i++ {
			got := float64(marks[p][1][i]-marks[p][0][i]) * 8 / half
			r.checkModel(fmt.Sprintf("phase %d c%d goodput", p+1, i+1), got, model[i], goodputTolerance, false)
		}
	}
	r.tr.end(sp)
	return nil
}

// pingTimes lists the instants pair p sends a ping inside the measured
// window. Pings stop one ping period before the end so every reply is
// home when the window closes.
func pingTimes(in *inputs, p flapPair) []time.Duration {
	var ts []time.Duration
	for at := in.Warmup + p.Phase; at < in.Warmup+in.Window-in.Flap.PingEvery; at += in.Flap.PingEvery {
		ts = append(ts, at)
	}
	return ts
}

// runFlap is the topology-dynamics run: service pairs ping across a
// 1000-element scale-free topology while a bridge–bridge link changes
// latency every 100 virtual ms, applied from an engine callback through
// Experiment.SetLink.
func runFlap(r *runner) error {
	in, f := r.in, r.in.Flap
	type ping struct {
		sent, rtt time.Duration
		answered  bool
	}
	pings := make([][]ping, len(f.Pairs))
	var applyErr error
	exp, err := r.run(stage{
		SliceEnds: perSecond(in.Warmup, in.Warmup+in.Window),
		Install: func(exp *kollaps.Experiment) error {
			for pi, p := range f.Pairs {
				pi := pi
				src, err := exp.Container(p.Src)
				if err != nil {
					return err
				}
				dst, err := exp.Container(p.Dst)
				if err != nil {
					return err
				}
				// Warm-up pings fill the lazy path caches and TCAL
				// chains; they are not checked.
				for at := p.Phase; at < in.Warmup; at += f.PingEvery {
					exp.Eng.At(at, func() { src.Stack.Ping(dst.IP, f.PingBytes, func(time.Duration) {}) })
				}
				times := pingTimes(in, p)
				pings[pi] = make([]ping, len(times))
				for k, at := range times {
					k, at := k, at
					exp.Eng.At(at, func() {
						pings[pi][k].sent = at
						src.Stack.Ping(dst.IP, f.PingBytes, func(rtt time.Duration) {
							pings[pi][k].rtt, pings[pi][k].answered = rtt, true
						})
					})
				}
			}
			for _, ev := range f.Events {
				ev := ev
				l := f.Links[ev.Link]
				exp.Eng.At(ev.At, func() {
					err := r.tr.applied(l.A+"-"+l.B, func() error {
						return exp.SetLink(l.A, l.B, kollaps.Latency(ev.Latency))
					})
					if err != nil && applyErr == nil {
						applyErr = err
					}
				})
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	if applyErr != nil {
		return fmt.Errorf("SetLink: %w", applyErr)
	}

	sp := r.tr.begin("collect", "")
	for _, ps := range pings {
		for _, p := range ps {
			r.fp.int(int64(p.rtt))
		}
	}
	r.foldFinalState(exp)
	r.tr.end(sp)

	// The oracle replays the event schedule over the harness's own
	// graph. A request is delayed by the path latency in force when it
	// was sent and the reply by the one in force when it turned around,
	// so the expected RTT is the forward latency in the send-time state
	// plus the return latency in the send- or receive-time state (at
	// most one event fits inside an RTT).
	sp = r.tr.begin("check", "")
	g := newLatGraph(f.Links)
	oneWay := make([][]time.Duration, len(f.Events)+1) // [state][pair]
	for state := range oneWay {
		if state > 0 {
			ev := f.Events[state-1]
			g.lat[ev.Link] = ev.Latency
		}
		oneWay[state] = make([]time.Duration, len(f.Pairs))
		for pi, p := range f.Pairs {
			oneWay[state][pi] = g.latency(p.Src, p.Dst)
		}
	}
	stateAt := func(t time.Duration) int {
		return sort.Search(len(f.Events), func(i int) bool { return f.Events[i].At > t })
	}
	for pi, ps := range pings {
		for _, p := range ps {
			what := fmt.Sprintf("ping %s→%s at %v", f.Pairs[pi].Src, f.Pairs[pi].Dst, p.sent)
			if !p.answered {
				r.check(false, "%s: no reply", what)
				continue
			}
			fwd := oneWay[stateAt(p.sent)][pi]
			model := 2 * fwd
			if alt := fwd + oneWay[stateAt(p.sent+p.rtt)][pi]; (p.rtt - alt).Abs() < (p.rtt - model).Abs() {
				model = alt
			}
			r.checkModel(what+" rtt (s)", p.rtt.Seconds(), model.Seconds(), rttTolerance.Seconds(), true)
		}
	}
	r.tr.end(sp)
	return nil
}

// installMesh starts the dumbbell's greedy CBR flows: client i offers
// 8 Mb/s of UDP to server i from Phase[i] on.
func installMesh(exp *kollaps.Experiment, m *meshInputs, received []int64) error {
	for i := range m.Class {
		cli, err := exp.Container(fmt.Sprintf("c%d", i))
		if err != nil {
			return err
		}
		srv, err := exp.Container(fmt.Sprintf("sv%d", i))
		if err != nil {
			return err
		}
		i := i
		srv.Stack.HandleUDP(9000, func(_ packet.IP, _ uint16, size int, _ any) { received[i] += int64(size) })
		st, dst := cli.Stack, srv.IP
		exp.Eng.At(m.Phase[i], func() {
			exp.Eng.Every(meshSendInterval, func() { st.SendUDP(dst, 9000, 9000, meshPayload, nil) })
		})
	}
	return nil
}

// checkMesh compares each flow's goodput over a window of the given
// length with the closed-form RTT-weighted share.
func (r *runner) checkMesh(label string, m *meshInputs, delivered []int64, over time.Duration) {
	model := meshModel(m)
	for i, b := range delivered {
		got := float64(b) * 8 / over.Seconds()
		r.checkModel(fmt.Sprintf("%sflow %d goodput", label, i), got, model[i], goodputTolerance, false)
	}
}

// runMesh is the steady control-plane run: 256 greedy CBR flows in four
// RTT classes over one bottleneck, 64 managers, broadcast.
func runMesh(r *runner) error {
	in, m := r.in, r.in.Mesh
	received := make([]int64, len(m.Class))
	atOpen := make([]int64, len(m.Class))
	exp, err := r.run(stage{
		Strategy:  m.Strategy,
		SliceEnds: perSecond(in.Warmup, in.Warmup+in.Window),
		Goodput:   func() int64 { return sumInt64(received) },
		Install: func(exp *kollaps.Experiment) error {
			exp.Eng.At(in.Warmup, func() { copy(atOpen, received) })
			return installMesh(exp, m, received)
		},
	})
	if err != nil {
		return err
	}
	sp := r.tr.begin("collect", "")
	delivered := make([]int64, len(received))
	for i := range received {
		delivered[i] = received[i] - atOpen[i]
		r.fp.int(received[i])
	}
	r.foldFinalState(exp)
	r.tr.end(sp)

	sp = r.tr.begin("check", "")
	r.checkMesh("", m, delivered, in.Window)
	r.tr.end(sp)
	return nil
}

// runChurn runs the dumbbell four times, once per dissemination
// strategy, each under control-plane chaos, manager kills and node
// leaves that stop at FaultsUntil; the checks read the settled tail.
func runChurn(r *runner) error {
	in, c := r.in, r.in.Churn
	m := &c.Mesh
	end := in.Warmup + in.Window
	for _, strategy := range c.Strategies {
		received := make([]int64, len(m.Class))
		atCheck := make([]int64, len(m.Class))
		var faultErr error
		note := func(err error) {
			if err != nil && faultErr == nil {
				faultErr = err
			}
		}
		exp, err := r.run(stage{
			Strategy:  strategy,
			SliceEnds: perSecond(in.Warmup, end),
			Goodput:   func() int64 { return sumInt64(received) },
			Install: func(exp *kollaps.Experiment) error {
				if err := installMesh(exp, m, received); err != nil {
					return err
				}
				exp.Eng.At(c.CheckFrom, func() { copy(atCheck, received) })
				for _, f := range c.Faults {
					f := f
					if f.Node != "" {
						if err := exp.At(f.At, kollaps.NodeDown(f.Node)); err != nil {
							return err
						}
						if err := exp.At(f.At+f.Down, kollaps.NodeUp(f.Node)); err != nil {
							return err
						}
						continue
					}
					exp.Eng.At(f.At, func() { note(exp.KillManager(f.Manager)) })
					exp.Eng.At(f.At+f.Down, func() { note(exp.RestartManager(f.Manager)) })
				}
				return exp.ChaosPlan(new(chaos.Plan).
					At(in.Warmup, chaos.SetProfile(chaos.Profile{
						Drop:     churnChaosDrop,
						Delay:    churnChaosDelay,
						DelayMin: churnChaosDelayMin,
						DelayMax: churnChaosDelayMax,
					})).
					At(c.FaultsUntil, chaos.Off()))
			},
		})
		if err == nil {
			err = faultErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", strategy, err)
		}

		sp := r.tr.begin("collect", strategy)
		delivered := make([]int64, len(received))
		for i := range received {
			delivered[i] = received[i] - atCheck[i]
			r.fp.int(received[i])
		}
		views := remoteViews(exp)
		for _, v := range views {
			for _, p := range v {
				r.fp.str(p)
			}
		}
		r.foldFinalState(exp)
		r.tr.end(sp)

		sp = r.tr.begin("check", strategy)
		r.checkMesh(strategy+" ", m, delivered, end-c.CheckFrom)
		r.checkViews(strategy, exp, m, views)
		r.tr.end(sp)
	}
	return nil
}

// remoteViews reads every manager's view of the other managers' flows,
// as sorted link-path keys.
func remoteViews(exp *kollaps.Experiment) [][]string {
	const maxAge = 150 * time.Millisecond // three emulation periods
	var views [][]string
	for _, mgr := range exp.Runtime.Managers() {
		var v []string
		for _, rf := range mgr.Node().RemoteFlows(exp.Eng.Now(), maxAge) {
			v = append(v, pathKey(rf.Links))
		}
		sort.Strings(v)
		views = append(views, v)
	}
	return views
}

func pathKey(links []uint16) string {
	var b strings.Builder
	for _, l := range links {
		fmt.Fprintf(&b, "%d.", l)
	}
	return b.String()
}

// checkViews is one check per manager: its view must hold the path of
// every flow hosted elsewhere and no path that belongs to no flow.
func (r *runner) checkViews(strategy string, exp *kollaps.Experiment, m *meshInputs, views [][]string) {
	col := exp.Runtime.State().Collapsed
	host := make(map[string]int) // path key → hosting manager
	for i := range m.Class {
		cli, _ := exp.Container(fmt.Sprintf("c%d", i))
		srv, _ := exp.Container(fmt.Sprintf("sv%d", i))
		p := col.Path(cli.Node, srv.Node)
		if p == nil {
			continue // a client still down: its goodput check has failed already
		}
		links := make([]uint16, len(p.Links))
		for k, l := range p.Links {
			links[k] = uint16(l)
		}
		host[pathKey(links)] = cli.Host
	}
	for h, view := range views {
		seen := make(map[string]bool, len(view))
		phantom := 0
		for _, p := range view {
			if owner, ok := host[p]; !ok || owner == h {
				phantom++
			}
			seen[p] = true
		}
		missing := 0
		for p, owner := range host {
			if owner != h && !seen[p] {
				missing++
			}
		}
		r.check(missing == 0 && phantom == 0, "%s: manager %d view misses %d of %d remote flows, holds %d phantom paths",
			strategy, h, missing, len(host), phantom)
	}
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
