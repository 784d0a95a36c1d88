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
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/dissem"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/topology"
	"repro/kollaps"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var usage = "usage: kollaps {validate|collapse|plan|run} [-hosts N] [-for D] [-seed S] [-dissem " + strategies("|") + "] [-epsilon E] [-fanout K] [-trace out.json] [-probe N] [-cpuprofile F] [-memprofile F] topology.{yaml,xml}"

// strategies joins the dissemination strategies' names with sep.
func strategies(sep string) string {
	names := make([]string, 0, len(dissem.Kinds()))
	for _, k := range dissem.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, sep)
}

// run executes the subcommand in args[0] and writes its report to
// stdout. It returns the process exit code: 2 for a bad command line, 1
// when the topology or the run fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 4, "physical hosts")
	runFor := fs.Duration("for", 60*time.Second, "virtual duration for run")
	seed := fs.Int64("seed", 42, "simulation seed (0 is a valid seed)")
	dissemFlag := fs.String("dissem", "broadcast", "metadata dissemination strategy: "+strategies(", "))
	epsilon := fs.Float64("epsilon", 0.05, "delta: relative usage change below which a flow is not re-sent (negative sends every change; 0 means default)")
	fanout := fs.Int("fanout", 4, "tree: aggregation overlay arity; gossip: pushes per period")
	traceOut := fs.String("trace", "", "run: write the flight recorder as Chrome trace_event JSON to this path (chrome://tracing / Perfetto)")
	probeEvery := fs.Int("probe", 0, "run: sample the emulation-accuracy probe every N periods (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "run: write a CPU profile of deploy and run to this path (go tool pprof)")
	memProfile := fs.String("memprofile", "", "run: write the allocation profile to this path after the run")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "kollaps:", err)
		return 1
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	exp, err := kollaps.Load(string(src))
	if err != nil {
		return fail(err)
	}

	switch cmd {
	case "validate":
		// The initial state, then one per same-time group of dynamic events,
		// each of which must apply.
		g, _, err := exp.Topology.Build()
		if err != nil {
			return fail(err)
		}
		if _, err := topology.DryRun(g, exp.Topology.Events); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "ok: %d services, %d bridges, %d links, %d dynamic states\n",
			len(exp.Topology.Services), len(exp.Topology.Bridges), len(exp.Topology.Links),
			len(topology.SortAndGroup(exp.Topology.Events))+1)
	case "collapse":
		g, _, err := exp.Topology.Build()
		if err != nil {
			return fail(err)
		}
		col := topology.Collapse(g)
		services := g.Services() // ascending NodeID: output order is stable
		for _, src := range services {
			for _, dst := range services {
				p := col.Path(src, dst)
				if p == nil {
					continue
				}
				fmt.Fprintf(stdout, "%s -> %s: latency %v, jitter %v, bw %v, loss %.4f\n",
					g.Node(src).Name, g.Node(dst).Name, p.Latency, p.Jitter, p.Bandwidth, p.Loss)
			}
		}
	case "plan":
		plan, err := orchestrator.Generate(exp.Topology, *hosts)
		if err != nil {
			return fail(err)
		}
		// Both are maps: print in key order so the output is stable.
		fmt.Fprintln(stdout, "# placement")
		for _, c := range sortedKeys(plan.Assignment) {
			fmt.Fprintf(stdout, "#   %s -> host%d\n", c, plan.Assignment[c])
		}
		for _, name := range sortedKeys(plan.Artifacts) {
			fmt.Fprintf(stdout, "\n--- %s ---\n%s", name, plan.Artifacts[name])
		}
	case "run":
		deployOpts := []kollaps.Option{
			kollaps.WithSeed(*seed),
			kollaps.WithDissem(*dissemFlag, kollaps.DissemEpsilon(*epsilon), kollaps.DissemFanout(*fanout)),
		}
		if *traceOut != "" {
			deployOpts = append(deployOpts, kollaps.WithTrace())
		}
		if *probeEvery > 0 {
			deployOpts = append(deployOpts, kollaps.WithAccuracyProbe(*probeEvery))
		}
		stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			return fail(err)
		}
		err = exp.Deploy(*hosts, deployOpts...)
		if err == nil {
			err = exp.Run(*runFor)
		}
		if perr := stopProfiles(); err == nil {
			err = perr
		}
		if err != nil {
			return fail(err)
		}
		sent, recv := exp.MetadataTraffic()
		fmt.Fprintf(stdout, "ran %v of virtual time on %d hosts; metadata %dB sent / %dB received\n",
			*runFor, *hosts, sent, recv)
		s := exp.DissemSummary()
		fmt.Fprintf(stdout, "dissemination (%s): %d datagrams / %dB sent, staleness p50 %.1fms p99 %.1fms\n",
			*dissemFlag, s.DatagramsSent, s.BytesSent, s.StalenessP50Ms, s.StalenessP99Ms)
		if p := exp.AccuracyProbe(); p != nil {
			fmt.Fprintf(stdout, "accuracy probe: %d samples, mean share deviation %.2f%%, last %.2f%%\n",
				p.Samples, p.Mean.Mean()*100, p.Mean.Last()*100)
		}
		if *traceOut != "" {
			if err := exp.WriteTrace(*traceOut); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d trace events, %d dropped)\n",
				*traceOut, exp.Tracer().Len(), exp.Tracer().Dropped())
		}
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	return 0
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
