package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Input generation. Everything a workload feeds the program — topology
// text, pair lists, offsets, event schedules, the deployment seed — is a
// pure function of (workload, seed, scale) computed here, before the
// timed lifecycle starts. The generators are the harness's own (a
// splitmix64 stream, a Barabási–Albert builder, YAML writers): if they
// called into repro/internal, a later change to those packages would
// silently change the benchmark's inputs between the two commits a
// comparison runs on.

// rng is splitmix64: small, seedable, and frozen here so inputs never
// depend on a library's generator.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return &rng{s: uint64(seed) ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a duration in [lo, hi), in whole microseconds.
func (r *rng) between(lo, hi time.Duration) time.Duration {
	us := int((hi - lo) / time.Microsecond)
	return lo + time.Duration(r.intn(us))*time.Microsecond
}

// sizing scales a workload.
type sizing struct {
	// Seconds is the -seconds flag: the wall-clock three repetitions'
	// measured windows take on the seed tree. Virtual durations scale
	// linearly with it.
	Seconds float64
	// Small shrinks the topologies too (200 elements, N=8): the smoke
	// test wants every code path in a few seconds, not the cost profile.
	Small bool
}

// scale stretches a virtual duration that was sized for -seconds
// runSeconds on the seed tree (2 cores, go1.24), where one repetition's
// window then takes a third of that; churn_soak, whose fault timeline
// needs room, takes about twice as long.
func (s sizing) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.Seconds / runSeconds).Round(100 * time.Millisecond)
}

// inputs is everything one workload run is given. Exactly one of the
// per-workload sections is set.
type inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// DeploySeed is the simulation seed handed to Deploy.
	DeploySeed int64 `json:"deploy_seed"`
	Hosts      int   `json:"hosts"`
	// Placement pins containers to hosts; the rest are placed round-robin.
	Placement map[string]int `json:"placement,omitempty"`
	// Warmup and Window are virtual durations; the window follows the
	// warm-up immediately.
	Warmup time.Duration `json:"warmup_ns"`
	Window time.Duration `json:"window_ns"`
	// YAML is the topology text given to kollaps.Load (dumped to its own
	// file, not into the JSON).
	YAML string `json:"-"`

	TCP   *tcpInputs   `json:"tcp_throttle,omitempty"`
	Flap  *flapInputs  `json:"scalefree_flap,omitempty"`
	Mesh  *meshInputs  `json:"cbr_mesh,omitempty"`
	Churn *churnInputs `json:"churn_soak,omitempty"`
}

// tcpInputs drives tcp_throttle: client i dials server i at Starts[i].
type tcpInputs struct {
	Phase  time.Duration   `json:"phase_ns"`
	Starts []time.Duration `json:"starts_ns"`
}

// flapLink is one declared link of the scale-free topology; the
// harness's own RTT oracle runs over this list, not over the program's
// graph.
type flapLink struct {
	A, B    string
	Latency time.Duration
}

// flapEvent is one timed latency change on a bridge–bridge link.
type flapEvent struct {
	At      time.Duration `json:"at_ns"`
	Link    int           `json:"link"` // index into Links
	Latency time.Duration `json:"latency_ns"`
}

// flapPair pings Dst from Src every PingEvery, first at Phase.
type flapPair struct {
	Src, Dst string
	Phase    time.Duration
}

type flapInputs struct {
	Services  []string      `json:"services"`
	Bridges   []string      `json:"bridges"`
	Links     []flapLink    `json:"links"`
	Pairs     []flapPair    `json:"pairs"`
	Events    []flapEvent   `json:"events"`
	PingEvery time.Duration `json:"ping_every_ns"`
	PingBytes int           `json:"ping_bytes"`
}

// meshInputs drives the CBR dumbbell: client i sends to server i, its
// access link has ClassLatency[Class[i]] one-way latency, its first
// datagram leaves at Phase[i].
type meshInputs struct {
	Strategy      string          `json:"strategy"`
	BottleneckBps float64         `json:"bottleneck_bps"`
	Class         []int           `json:"class"`
	Phase         []time.Duration `json:"phase_ns"`
}

// churnFault takes one Emulation Manager (Node == "") or one client
// container down at At and brings it back Down later.
type churnFault struct {
	At      time.Duration `json:"at_ns"`
	Down    time.Duration `json:"down_ns"`
	Manager int           `json:"manager"`
	Node    string        `json:"node,omitempty"`
}

// churnInputs is the dumbbell of meshInputs plus the fault schedule,
// run once per strategy.
type churnInputs struct {
	Mesh        meshInputs    `json:"mesh"`
	Strategies  []string      `json:"strategies"`
	FaultsUntil time.Duration `json:"faults_until_ns"`
	CheckFrom   time.Duration `json:"check_from_ns"`
	Faults      []churnFault  `json:"faults"`
}

// The dumbbell's constants (internal/experiments' -exp dissem topology):
// four client access-latency classes, a 5 ms bottleneck, 1 ms server
// links, 2 Mb/s of bottleneck per flow, 8 Mb/s offered per flow.
var meshClassLatencyMs = [4]int{2, 5, 8, 11}

const (
	meshFlowsPerHost   = 4
	meshBottleneckMs   = 5
	meshServerMs       = 1
	meshPerFlowBps     = 2e6
	meshOfferedBps     = 8e6
	meshPayload        = 1448
	meshSendInterval   = time.Duration(meshPayload * 8 * int64(time.Second) / meshOfferedBps)
	fig8Clients        = 6
	flapPairs          = 50
	flapPingEvery      = 100 * time.Millisecond
	flapPingBytes      = 256 // 20 kb/s per pair: above the 10 kb/s activity threshold, so pings are flows the control plane reports
	flapEventEvery     = 100 * time.Millisecond
	flapBaseLatency    = 2 * time.Millisecond
	flapMinLatency     = 1 * time.Millisecond // flaps draw from [min, max), centred on the base
	flapMaxLatency     = 3 * time.Millisecond
	churnManagerRate   = 1.5 // kills per virtual second
	churnNodeRate      = 2.0 // node leaves per virtual second
	churnDownMin       = 100 * time.Millisecond
	churnDownMax       = 400 * time.Millisecond
	churnChaosDrop     = 0.05
	churnChaosDelay    = 0.10
	churnChaosDelayMin = 5 * time.Millisecond
	churnChaosDelayMax = 30 * time.Millisecond
)

// workloads lists the workloads in report order, each with the reason
// it exists.
var workloads = []struct{ Name, Why string }{
	{"tcp_throttle", "Fig 8 with six Cubic flows: the packet path (sim, netem, fabric, transport) owns the run, TCP's stop-and-re-arm timers load the event queue with cancellations, the solver is ~1 %"},
	{"scalefree_flap", "a latency change every 100 virtual ms on a 1000-element scale-free topology: topology and graph own the run and the packet path is idle, so packet-path work must show no change here"},
	{"cbr_mesh64", "256 CBR flows over 64 managers, broadcast: the same sim/netem path driven by periodic timers with no cancellations, while solver, dissemination and metadata codec do a third of the work"},
	{"churn_soak", "the N=32 dumbbell once per dissemination strategy under chaos, manager kills and node leaves: dissemination, solver invalidation, live topology under failure; a gain that costs another strategy shows"},
}

var workloadNames = func() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}()

// generate builds a workload's inputs from the seed.
func generate(workload string, seed int64, sz sizing) (*inputs, error) {
	r := newRNG(seed, workload)
	in := &inputs{Workload: workload, Seed: seed, DeploySeed: int64(r.next() >> 1)}
	switch workload {
	case "tcp_throttle":
		genTCP(in, r, sz)
	case "scalefree_flap":
		genFlap(in, r, sz)
	case "cbr_mesh64":
		n := 64
		if sz.Small {
			n = 8
		}
		in.Hosts = n
		in.Warmup = time.Second
		in.Window = sz.scale(12400 * time.Millisecond)
		in.Mesh = genMesh(r, n, "broadcast")
		in.YAML = meshYAML(in.Mesh)
	case "churn_soak":
		genChurn(in, r, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	return in, nil
}

func genTCP(in *inputs, r *rng, sz sizing) {
	in.Hosts = 4
	in.Warmup = 5 * time.Second
	if sz.Small {
		in.Warmup = 2 * time.Second
	}
	phase := sz.scale(25 * time.Second)
	in.Window = fig8Clients * phase
	t := &tcpInputs{Phase: phase}
	for i := 0; i < fig8Clients; i++ {
		// Client 0 starts inside the warm-up so slow start is over when
		// the window opens; client i joins just after phase i begins.
		at := r.between(time.Millisecond, 100*time.Millisecond)
		if i > 0 {
			at += in.Warmup + time.Duration(i)*phase
		}
		t.Starts = append(t.Starts, at)
	}
	in.TCP = t
	in.YAML = fig8YAML
}

// genFlap builds a Barabási–Albert topology (m=2 among switches, one
// preferential uplink per service; a third of the elements are
// switches, as in Table 4), picks the ping pairs and draws the latency
// flaps. Like Table 4's, the topology and the pairs are fixed per size:
// the seed picks when each pair pings and which link flaps to what, not
// the shape or the paths, because what a flap costs and how long a
// control record is depend on those and the benchmark compares medians
// across seeds.
func genFlap(in *inputs, seeded *rng, sz sizing) {
	r := newRNG(0, "scalefree_flap/topology")
	elements := 1000
	if sz.Small {
		elements = 200
	}
	in.Hosts = 4
	in.Warmup = time.Second
	in.Window = sz.scale(7400 * time.Millisecond)
	f := &flapInputs{PingEvery: flapPingEvery, PingBytes: flapPingBytes}
	nServices := elements * 2 / 3
	nSwitches := elements - nServices
	for i := 0; i < nSwitches; i++ {
		f.Bridges = append(f.Bridges, fmt.Sprintf("s%d", i))
	}
	urn := []int{0, 1}
	f.Links = append(f.Links, flapLink{A: "s0", B: "s1", Latency: flapBaseLatency})
	for i := 2; i < nSwitches; i++ {
		first := urn[r.intn(len(urn))]
		second := first
		for second == first {
			second = urn[r.intn(len(urn))]
		}
		for _, t := range []int{first, second} {
			f.Links = append(f.Links, flapLink{A: f.Bridges[i], B: f.Bridges[t], Latency: flapBaseLatency})
			urn = append(urn, t, i)
		}
	}
	bridgeLinks := len(f.Links)
	for i := 0; i < nServices; i++ {
		name := fmt.Sprintf("n%d", i)
		f.Services = append(f.Services, name)
		f.Links = append(f.Links, flapLink{A: name, B: f.Bridges[urn[r.intn(len(urn))]], Latency: flapBaseLatency})
	}
	// Every pair has its own two services: 100 containers whose paths a
	// flap recomputes.
	order := make([]int, nServices)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < 2*flapPairs; i++ {
		j := i + r.intn(nServices-i)
		order[i], order[j] = order[j], order[i]
	}
	// The two ends of a pair sit on different hosts, so every ping
	// crosses the physical cluster and pays the same residual delay.
	in.Placement = make(map[string]int)
	for i := 0; i < flapPairs; i++ {
		p := flapPair{
			Src: f.Services[order[2*i]], Dst: f.Services[order[2*i+1]],
			Phase: seeded.between(0, flapPingEvery),
		}
		in.Placement[p.Src], in.Placement[p.Dst] = i%in.Hosts, (i+1)%in.Hosts
		f.Pairs = append(f.Pairs, p)
	}
	end := in.Warmup + in.Window
	for at := in.Warmup + flapEventEvery; at < end; at += flapEventEvery {
		f.Events = append(f.Events, flapEvent{
			At:      at,
			Link:    seeded.intn(bridgeLinks),
			Latency: seeded.between(flapMinLatency, flapMaxLatency),
		})
	}
	in.Flap = f
	in.YAML = flapYAML(f)
}

func genMesh(r *rng, managers int, strategy string) *meshInputs {
	flows := meshFlowsPerHost * managers
	m := &meshInputs{
		Strategy:      strategy,
		BottleneckBps: meshPerFlowBps * float64(flows),
	}
	// Equal numbers of flows per RTT class, assigned by a seeded
	// shuffle: the model's shares depend only on the class sizes, so
	// every seed has the same expected goodputs on different clients.
	for i := 0; i < flows; i++ {
		m.Class = append(m.Class, i%len(meshClassLatencyMs))
	}
	for i := flows - 1; i > 0; i-- {
		j := r.intn(i + 1)
		m.Class[i], m.Class[j] = m.Class[j], m.Class[i]
	}
	for i := 0; i < flows; i++ {
		m.Phase = append(m.Phase, r.between(0, meshSendInterval))
	}
	return m
}

// genChurn draws the PR 10 soak's fault mix — manager kills at 1.5/s,
// node leaves at 2/s on every fourth client, a 5 % drop / 10 % delay
// chaos profile — as a schedule of the harness's own rather than through
// Experiment.Churn's Poisson process: the number of faults is then the
// same for every seed (what a fault costs is what the workload
// measures, and a Poisson count would put ±25 % of seed-to-seed noise
// on it) and downtimes are bounded, so nothing is still down when the
// checks read.
func genChurn(in *inputs, r *rng, sz sizing) {
	n := 32
	if sz.Small {
		n = 8
	}
	in.Hosts = n
	in.Warmup = time.Second
	in.Window = sz.scale(8 * time.Second)
	if in.Window < 4*time.Second {
		in.Window = 4 * time.Second // the fault timeline below needs room
	}
	end := in.Warmup + in.Window
	c := &churnInputs{
		Mesh:       *genMesh(r, n, ""),
		Strategies: []string{"broadcast", "delta", "tree", "gossip"},
		// Faults stop 2.5 s before the end: everything is back up 0.4 s
		// later, views get a second to converge, and the last second is
		// the settled state the checks read.
		FaultsUntil: end - 2500*time.Millisecond,
		CheckFrom:   end - time.Second,
	}
	span := (c.FaultsUntil - in.Warmup).Seconds()
	kills, leaves := int(churnManagerRate*span+0.5), int(churnNodeRate*span+0.5)
	for i := 0; i < kills+leaves; i++ {
		f := churnFault{
			At:      r.between(in.Warmup, c.FaultsUntil),
			Down:    r.between(churnDownMin, churnDownMax),
			Manager: -1,
		}
		if i < kills {
			f.Manager = 0 // chosen below, in time order
		}
		c.Faults = append(c.Faults, f)
	}
	sort.SliceStable(c.Faults, func(a, b int) bool { return c.Faults[a].At < c.Faults[b].At })
	// A target must be up when its fault fires: pick among those whose
	// previous outage ended at least 100 ms earlier.
	managerFree := make([]time.Duration, n)
	nodeFree := make([]time.Duration, meshFlowsPerHost*n/4)
	pick := func(free []time.Duration, f *churnFault) int {
		for {
			if t := r.intn(len(free)); free[t] <= f.At {
				free[t] = f.At + f.Down + 100*time.Millisecond
				return t
			}
		}
	}
	for i := range c.Faults {
		f := &c.Faults[i]
		if f.Manager == 0 {
			f.Manager = pick(managerFree, f)
		} else {
			f.Node = fmt.Sprintf("c%d", 4*pick(nodeFree, f))
		}
	}
	in.Churn = c
	in.YAML = meshYAML(&c.Mesh)
}

func flapYAML(f *flapInputs) string {
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for _, s := range f.Services {
		fmt.Fprintf(&b, "    name: %s\n", s)
	}
	b.WriteString("  bridges:\n")
	for _, s := range f.Bridges {
		fmt.Fprintf(&b, "    name: %s\n", s)
	}
	b.WriteString("  links:\n")
	for _, l := range f.Links {
		fmt.Fprintf(&b, "    orig: %s\n    dest: %s\n    latency: %d\n    up: 1Gbps\n",
			l.A, l.B, l.Latency/time.Millisecond)
	}
	return b.String()
}

func meshYAML(m *meshInputs) string {
	flows := len(m.Class)
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&b, "    name: c%d\n", i)
	}
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&b, "    name: sv%d\n", i)
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n  links:\n")
	fmt.Fprintf(&b, "    orig: b1\n    dest: b2\n    latency: %d\n    up: %dMbps\n",
		meshBottleneckMs, int(m.BottleneckBps/1e6))
	for i := 0; i < flows; i++ {
		fmt.Fprintf(&b, "    orig: c%d\n    dest: b1\n    latency: %d\n    up: 100Mbps\n",
			i, meshClassLatencyMs[m.Class[i]])
		fmt.Fprintf(&b, "    orig: sv%d\n    dest: b2\n    latency: %d\n    up: 100Mbps\n", i, meshServerMs)
	}
	return b.String()
}

// fig8Link is one link of the paper's §5.4 topology; fig8YAML and the
// harness's own share model (oracle.go) are both derived from this
// table.
type fig8Link struct {
	A, B      string
	LatencyMs int
	Mbps      int
}

var fig8Links = []fig8Link{
	{"c1", "b1", 10, 50}, {"c2", "b1", 5, 50}, {"c3", "b1", 5, 10},
	{"c4", "b2", 10, 50}, {"c5", "b2", 5, 50}, {"c6", "b2", 5, 10},
	{"b1", "b2", 10, 50}, {"b2", "b3", 10, 100},
	{"s1", "b3", 5, 50}, {"s2", "b3", 5, 50}, {"s3", "b3", 5, 50},
	{"s4", "b3", 5, 50}, {"s5", "b3", 5, 50}, {"s6", "b3", 5, 50},
}

var fig8YAML = func() string {
	var b strings.Builder
	b.WriteString("experiment:\n  services:\n")
	for _, p := range []string{"c", "s"} {
		for i := 1; i <= fig8Clients; i++ {
			fmt.Fprintf(&b, "    name: %s%d\n", p, i)
		}
	}
	b.WriteString("  bridges:\n    name: b1\n    name: b2\n    name: b3\n  links:\n")
	for _, l := range fig8Links {
		fmt.Fprintf(&b, "    orig: %s\n    dest: %s\n    latency: %d\n    up: %dMbps\n", l.A, l.B, l.LatencyMs, l.Mbps)
	}
	return b.String()
}()

// dumpInputs writes exactly what the program is given for every
// workload: DIR/<workload>/topology.yaml and DIR/<workload>/inputs.json.
func dumpInputs(dir string, seed int64, sz sizing) error {
	for _, w := range workloadNames {
		in, err := generate(w, seed, sz)
		if err != nil {
			return err
		}
		sub := filepath.Join(dir, w)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(sub, "topology.yaml"), []byte(in.YAML), 0o644); err != nil {
			return err
		}
		js, err := json.MarshalIndent(in, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(sub, "inputs.json"), append(js, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
