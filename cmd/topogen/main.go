// Command topogen generates experiment topologies: Barabási–Albert
// scale-free networks (the Table 4 workload) and dumbbells (Figure 3),
// emitted in the Kollaps YAML dialect.
//
// Usage:
//
//	topogen -kind scalefree -elements 1000 -seed 7
//	topogen -kind dumbbell -clients 10 -servers 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/graph"
	"repro/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run generates the topology the flags in args describe and writes it to
// stdout. It returns the process exit code: 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "scalefree", "scalefree or dumbbell")
	elements := fs.Int("elements", 1000, "scalefree: total elements (at least 4)")
	seed := fs.Int64("seed", 1, "generator seed")
	clients := fs.Int("clients", 10, "dumbbell: client count (at least 1)")
	servers := fs.Int("servers", 10, "dumbbell: server count (at least 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "topogen: "+format+"\n", a...)
		return 2
	}

	var g *graph.Graph
	switch *kind {
	case "scalefree":
		if *elements < 4 {
			return bad("-elements %d: a scale-free topology needs at least 4", *elements)
		}
		g = graph.ScaleFree(graph.ScaleFreeOptions{
			Elements:     *elements,
			EdgesPerNode: 2,
			LinkProps:    graph.LinkProps{Latency: 2e6, Bandwidth: units.Gbps},
			Rand:         rand.New(rand.NewSource(*seed)),
		})
	case "dumbbell":
		if *clients < 1 {
			return bad("-clients %d: a dumbbell needs at least 1", *clients)
		}
		if *servers < 1 {
			return bad("-servers %d: a dumbbell needs at least 1", *servers)
		}
		g, _, _ = graph.Dumbbell(*clients, *servers,
			graph.LinkProps{Latency: 1e6, Bandwidth: 100 * units.Mbps},
			graph.LinkProps{Latency: 5e6, Bandwidth: 50 * units.Mbps})
	default:
		return bad("unknown -kind %q (want scalefree or dumbbell)", *kind)
	}

	fmt.Fprintln(stdout, "experiment:")
	fmt.Fprintln(stdout, "  services:")
	for _, n := range g.Nodes() {
		if n.Kind == graph.Service {
			fmt.Fprintf(stdout, "    name: %s\n", n.Name)
		}
	}
	fmt.Fprintln(stdout, "  bridges:")
	for _, n := range g.Nodes() {
		if n.Kind == graph.Bridge {
			fmt.Fprintf(stdout, "    name: %s\n", n.Name)
		}
	}
	fmt.Fprintln(stdout, "  links:")
	seen := map[[2]graph.NodeID]bool{}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(i)
		key := [2]graph.NodeID{l.From, l.To}
		rkey := [2]graph.NodeID{l.To, l.From}
		if seen[key] || seen[rkey] {
			continue
		}
		seen[key] = true
		fmt.Fprintf(stdout, "    orig: %s\n    dest: %s\n    latency: %.3f\n    up: %s\n",
			g.Node(l.From).Name, g.Node(l.To).Name,
			l.Latency.Seconds()*1000, l.Bandwidth)
	}
	return 0
}
