package kollaps_test

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/units"
	"repro/kollaps"
)

// exampleYAML is the two-pair dumbbell the examples deploy: four
// services on two bridges, every path crossing the shared trunk.
const exampleYAML = `
experiment:
  services:
    name: a
    name: b
    name: c
    name: d
  bridges:
    name: s1
    name: s2
  links:
    orig: a
    dest: s1
    latency: 5
    up: 10Mbps
    orig: c
    dest: s1
    latency: 5
    up: 10Mbps
    orig: s1
    dest: s2
    latency: 10
    up: 10Mbps
    orig: b
    dest: s2
    latency: 5
    up: 10Mbps
    orig: d
    dest: s2
    latency: 5
    up: 10Mbps
`

// ExampleWithDissem selects the metadata-dissemination strategy the
// Emulation Managers use and verifies control traffic actually flowed
// through it. Strategy choice never changes the emulation's results —
// only the control-plane cost profile (see DESIGN.md for the model).
func ExampleWithDissem() {
	exp, err := kollaps.Load(exampleYAML)
	if err != nil {
		panic(err)
	}
	// Gossip: epidemic exchange, the churn-friendly strategy. Fanout 2
	// pushes per period; the hop budget defaults to log_fanout(hosts)+1.
	err = exp.Deploy(4, kollaps.WithSeed(7),
		kollaps.WithDissem("gossip", kollaps.DissemFanout(2)))
	if err != nil {
		panic(err)
	}
	if err := exp.Run(time.Second); err != nil {
		panic(err)
	}
	s := exp.DissemSummary()
	fmt.Println("control datagrams flowed:", s.DatagramsSent > 0)
	fmt.Println("every byte accounted:", s.BytesSent >= s.BytesRecv)
	// Output:
	// control datagrams flowed: true
	// every byte accounted: true
}

// ExampleExperiment_ManagerChurn kills and restarts Emulation Managers
// at a seeded Poisson rate while the experiment runs — the data plane
// keeps moving, only the control plane churns — then stops the churn and
// confirms every manager came back.
func ExampleExperiment_ManagerChurn() {
	exp, err := kollaps.Load(exampleYAML)
	if err != nil {
		panic(err)
	}
	err = exp.Deploy(4, kollaps.WithSeed(11),
		kollaps.WithDissem("gossip", kollaps.DissemFanout(2)))
	if err != nil {
		panic(err)
	}
	// Two manager kills per virtual second on average, each dead for
	// ~300 ms before its restart.
	stop, err := exp.ManagerChurn(2, kollaps.ChurnDowntime(300*time.Millisecond))
	if err != nil {
		panic(err)
	}
	if err := exp.Run(3 * time.Second); err != nil {
		panic(err)
	}
	stop()
	if err := exp.Run(4 * time.Second); err != nil {
		panic(err)
	}
	down := 0
	for h := 0; h < 4; h++ {
		if exp.Runtime.ManagerDown(h) {
			down++
		}
	}
	fmt.Println("managers still down after churn stopped:", down)
	// Output:
	// managers still down after churn stopped: 0
}

// ExampleExperiment_ChaosPlan_profile arms a stochastic fault profile
// on the running control plane with a one-step plan at the current
// virtual time: from this instant on, metadata datagrams are dropped and
// corrupted with the given probabilities, deterministically under the
// experiment seed. The emulation must ride it out — corruption is caught
// by the integrity envelope and counted, never decoded — and every
// injected fault is observable in ChaosStats.
func ExampleExperiment_ChaosPlan_profile() {
	exp, err := kollaps.Load(exampleYAML)
	if err != nil {
		panic(err)
	}
	if err := exp.Deploy(4, kollaps.WithSeed(7)); err != nil {
		panic(err)
	}
	plan := new(chaos.Plan).At(exp.Eng.Now(), chaos.SetProfile(chaos.Profile{Drop: 0.2, Corrupt: 0.1}))
	if err := exp.ChaosPlan(plan); err != nil {
		panic(err)
	}
	if err := exp.Run(2 * time.Second); err != nil {
		panic(err)
	}
	st := exp.ChaosStats()
	fmt.Println("datagrams dropped:", st.Dropped > 0)
	fmt.Println("datagrams corrupted:", st.Corrupted > 0)
	fmt.Println("schedule is replayable:", exp.ChaosScheduleHash() != 0)
	// Output:
	// datagrams dropped: true
	// datagrams corrupted: true
	// schedule is replayable: true
}

// ExampleExperiment_ChaosPlan schedules a control-plane partition
// before Deploy, discarding every metadata datagram from host 0 to
// host 1 for one virtual second, then healing. Only metadata datagrams
// are blocked; application traffic still flows.
func ExampleExperiment_ChaosPlan() {
	exp, err := kollaps.Load(exampleYAML)
	if err != nil {
		panic(err)
	}
	plan := new(chaos.Plan).
		At(500*time.Millisecond, chaos.PartitionOneWay(0, 1)).
		At(1500*time.Millisecond, chaos.Heal())
	if err := exp.ChaosPlan(plan); err != nil {
		panic(err)
	}
	if err := exp.Deploy(4, kollaps.WithSeed(7)); err != nil {
		panic(err)
	}
	if err := exp.Run(3 * time.Second); err != nil {
		panic(err)
	}
	fmt.Println("datagrams blocked at the cut:", exp.ChaosStats().Blocked > 0)
	// Output:
	// datagrams blocked at the cut: true
}

// ExampleNewTopology builds an experiment programmatically — no YAML —
// and schedules a runtime topology change before deploying: the builder,
// scheduled events and live mutation share one event engine.
func ExampleNewTopology() {
	exp, err := kollaps.NewTopology().
		Service("client").Service("server").
		Bridge("s1").
		Link("client", "s1", kollaps.Latency(5*time.Millisecond), kollaps.Up(10*units.Mbps)).
		Link("server", "s1", kollaps.Latency(5*time.Millisecond), kollaps.Up(10*units.Mbps)).
		At(500*time.Millisecond, kollaps.Set("client", "s1", kollaps.Latency(20*time.Millisecond))).
		Experiment()
	if err != nil {
		panic(err)
	}
	if err := exp.Deploy(2, kollaps.WithSeed(42)); err != nil {
		panic(err)
	}
	cli, err := exp.Container("client")
	if err != nil {
		panic(err)
	}
	if err := exp.Run(time.Second); err != nil {
		panic(err)
	}
	fmt.Println("deployed:", cli.Name, "on host", cli.Host)
	// Output:
	// deployed: client on host 0
}
