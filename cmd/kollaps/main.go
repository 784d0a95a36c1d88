// Command kollaps validates, collapses and dry-runs experiment
// descriptions.
//
// Usage:
//
//	kollaps validate topology.yaml        # parse + validate
//	kollaps collapse topology.yaml        # print the collapsed mesh
//	kollaps plan -hosts 4 topology.yaml   # placement + orchestrator artifacts
//	kollaps run -hosts 4 -for 60s topology.yaml  # deploy and idle-run
//	kollaps run -trace out.json topology.yaml    # + flight-recorder trace
//	kollaps run -cpuprofile cpu.prof -memprofile mem.prof topology.yaml  # + pprof profiles of deploy and run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/topology"
	"repro/kollaps"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	hosts := fs.Int("hosts", 4, "physical hosts")
	runFor := fs.Duration("for", 60*time.Second, "virtual duration for run")
	seed := fs.Int64("seed", 42, "simulation seed (0 is a valid seed)")
	dissemFlag := fs.String("dissem", "broadcast", "metadata dissemination strategy: broadcast, delta, tree or gossip")
	epsilon := fs.Float64("epsilon", 0.05, "delta: relative usage change below which a flow is not re-sent (negative sends every change; 0 means default)")
	adaptive := fs.Bool("adaptive-eps", false, "delta: scale the suppression threshold with each flow's traffic share")
	resync := fs.Int("resync", 20, "delta: periods between full-state resyncs")
	fanout := fs.Int("fanout", 4, "tree: aggregation overlay arity; gossip: pushes per period")
	gossipRounds := fs.Int("gossip-rounds", 0, "gossip: infect-and-die hop budget (0 = log_fanout(hosts)+1)")
	traceOut := fs.String("trace", "", "run: write the flight recorder as Chrome trace_event JSON to this path (chrome://tracing / Perfetto)")
	probeEvery := fs.Int("probe", 0, "run: sample the emulation-accuracy probe every N periods (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "run: write a CPU profile of deploy and run to this path (go tool pprof)")
	memProfile := fs.String("memprofile", "", "run: write the allocation profile to this path after the run")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() < 1 {
		usage()
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	exp, err := kollaps.Load(string(src))
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "validate":
		// The initial state, then one per same-time group of dynamic events,
		// each of which must apply.
		g, _, err := exp.Topology.Build()
		if err != nil {
			fatal(err)
		}
		if _, err := topology.DryRun(g, exp.Topology.Events); err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %d services, %d bridges, %d links, %d dynamic states\n",
			len(exp.Topology.Services), len(exp.Topology.Bridges), len(exp.Topology.Links),
			len(topology.SortAndGroup(exp.Topology.Events))+1)
	case "collapse":
		g, _, err := exp.Topology.Build()
		if err != nil {
			fatal(err)
		}
		col := topology.Collapse(g)
		services := g.Services() // ascending NodeID: output order is stable
		for _, src := range services {
			for _, dst := range services {
				p := col.Path(src, dst)
				if p == nil {
					continue
				}
				fmt.Printf("%s -> %s: latency %v, jitter %v, bw %v, loss %.4f\n",
					g.Node(src).Name, g.Node(dst).Name, p.Latency, p.Jitter, p.Bandwidth, p.Loss)
			}
		}
	case "plan":
		plan, err := orchestrator.Generate(exp.Topology, orchestrator.NewCluster(*hosts), orchestrator.RoundRobin)
		if err != nil {
			fatal(err)
		}
		// Both are maps: print in key order so the output is stable.
		fmt.Println("# placement")
		for _, c := range sortedKeys(plan.Assignment) {
			fmt.Printf("#   %s -> host%d\n", c, plan.Assignment[c])
		}
		for _, name := range sortedKeys(plan.Artifacts) {
			fmt.Printf("\n--- %s ---\n%s", name, plan.Artifacts[name])
		}
	case "run":
		dissemOpts := []kollaps.DissemOption{
			kollaps.DissemEpsilon(*epsilon),
			kollaps.DissemResync(*resync),
			kollaps.DissemFanout(*fanout),
			kollaps.DissemGossipRounds(*gossipRounds),
		}
		if *adaptive {
			dissemOpts = append(dissemOpts, kollaps.DissemAdaptive())
		}
		deployOpts := []kollaps.Option{
			kollaps.WithSeed(*seed),
			kollaps.WithDissem(*dissemFlag, dissemOpts...),
		}
		if *traceOut != "" {
			deployOpts = append(deployOpts, kollaps.WithTrace(0))
		}
		if *probeEvery > 0 {
			deployOpts = append(deployOpts, kollaps.WithAccuracyProbe(*probeEvery))
		}
		stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fatal(err)
		}
		err = exp.Deploy(*hosts, deployOpts...)
		if err == nil {
			err = exp.Run(*runFor)
		}
		if perr := stopProfiles(); err == nil {
			err = perr
		}
		if err != nil {
			fatal(err)
		}
		sent, recv := exp.MetadataTraffic()
		fmt.Printf("ran %v of virtual time on %d hosts; metadata %dB sent / %dB received\n",
			*runFor, *hosts, sent, recv)
		s := exp.DissemSummary()
		fmt.Printf("dissemination (%s): %d datagrams / %dB sent, staleness p50 %.1fms p99 %.1fms\n",
			*dissemFlag, s.DatagramsSent, s.BytesSent, s.StalenessP50Ms, s.StalenessP99Ms)
		if p := exp.AccuracyProbe(); p != nil {
			fmt.Printf("accuracy probe: %d samples, mean share deviation %.2f%%, last %.2f%%\n",
				p.Samples, p.Mean.Mean()*100, p.Mean.Last()*100)
		}
		if *traceOut != "" {
			if err := exp.WriteTrace(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d trace events, %d dropped)\n",
				*traceOut, exp.Tracer().Len(), exp.Tracer().Dropped())
		}
	default:
		usage()
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kollaps {validate|collapse|plan|run} [-hosts N] [-for D] [-seed S] [-dissem broadcast|delta|tree|gossip] [-epsilon E] [-adaptive-eps] [-resync N] [-fanout K] [-gossip-rounds R] [-trace out.json] [-probe N] [-cpuprofile F] [-memprofile F] topology.{yaml,xml}")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kollaps:", err)
	os.Exit(1)
}
