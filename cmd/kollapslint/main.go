// Command kollapslint runs the project's contract analyzers — walltime,
// maporder, wiresafe, gostmt — over the module. They hold the
// determinism and wire-safety contracts on every path of a contract
// package, which no test can; the allocation-free loop, buffer
// ownership and lock discipline are held dynamically instead, by the
// AllocsPerRun contracts, the dissem harness and go test -race.
//
// Usage:
//
//	go run ./cmd/kollapslint ./...
//	go run ./cmd/kollapslint ./internal/dissem ./internal/core
//
// Exit status 1 when any analyzer reports a finding or a contract
// package is missing its scope annotation;
// findings print one per line in file:line:col order, like compiler
// errors. See the package documentation of internal/lint for the
// annotation vocabulary and DESIGN.md "Determinism & wire-safety
// contract" for the rationale and the catch log.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// contractPackages pins which real packages must carry which
// package-scope directive. The analyzers themselves are
// annotation-driven (so fixtures work anywhere); this meta-check stops
// the trivial evasion of deleting the annotation.
var contractPackages = map[string][]string{
	"deterministic": {
		"repro/internal/core",
		"repro/internal/dissem",
		"repro/internal/topology",
		"repro/internal/sim",
		"repro/internal/experiments",
		"repro/internal/chaos",
	},
	"wirecodec": {
		"repro/internal/dissem",
		"repro/internal/metadata",
	},
}

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kollapslint:", err)
		os.Exit(2)
	}
	prog, err := lint.Load(root, module, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kollapslint: load:", err)
		os.Exit(2)
	}

	exit := 0
	// Meta-check: contract packages must declare their scope directive
	// whenever they are part of this run.
	for directive, pkgs := range contractPackages {
		for _, path := range pkgs {
			pkg, ok := prog.Packages[path]
			if !ok {
				continue
			}
			if !hasPkgDirective(prog, pkg, directive) {
				fmt.Fprintf(os.Stderr, "%s: package must be annotated //kollaps:%s (contract package)\n",
					path, directive)
				exit = 1
			}
		}
	}

	findings, err := lint.RunAnalyzers(prog, lint.Analyzers(), prog.PackageList())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kollapslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		// Print module-relative paths so output is stable across hosts.
		pos := f.Position
		pos.Filename = relPath(root, pos.Filename)
		fmt.Printf("%s: %s (%s)\n", pos, f.Message, f.Analyzer)
		exit = 1
	}
	if exit == 0 {
		fmt.Printf("kollapslint: %d packages clean\n", len(prog.Packages))
	}
	os.Exit(exit)
}

// relPath renders filename relative to the module root when it is
// inside it.
func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

// hasPkgDirective reports whether any file of pkg declares the given
// package-scope directive.
func hasPkgDirective(prog *lint.Program, pkg *lint.Package, name string) bool {
	pass := &lint.Pass{Fset: prog.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
	return pass.PkgDirective(name)
}

// findModule walks up from the working directory to the enclosing
// go.mod and returns its directory and module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
