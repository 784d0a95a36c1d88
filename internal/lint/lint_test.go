package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixturePrefix is where analyzer fixtures live, as an import path
// under the module.
const fixturePrefix = "repro/internal/lint/testdata/src/"

// wantRe extracts a `// want `-style expectation: the backtick-quoted
// regexp a diagnostic reported on that line must match.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// expectation is one want comment: a diagnostic must be reported on
// file:line matching re.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	return root
}

// parseWants scans a fixture directory for want comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var exps []*expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", e.Name(), line, err)
				}
				exps = append(exps, &expectation{file: e.Name(), line: line, re: re})
			}
		}
		f.Close()
	}
	return exps
}

// runFixture loads one fixture package, runs the given analyzers on it,
// and checks the findings against the fixture's want comments — every
// finding must be expected, every expectation must fire. This is the
// "reverting the fix breaks the build" guarantee: the want lines ARE
// the reverted state.
func runFixture(t *testing.T, analyzers []*lint.Analyzer, name string) {
	t.Helper()
	root := repoRoot(t)
	path := fixturePrefix + name
	prog, err := lint.Load(root, "repro", []string{path})
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	pkg := prog.Packages[path]
	if pkg == nil {
		t.Fatalf("package %s not loaded", path)
	}
	findings, err := lint.RunAnalyzers(prog, analyzers, []*lint.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	exps := parseWants(t, pkg.Dir)
	for _, f := range findings {
		base := filepath.Base(f.Position.Filename)
		matched := false
		for _, e := range exps {
			if e.file == base && e.line == f.Position.Line && e.re.MatchString(f.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s (%s)", base, f.Position.Line, f.Message, f.Analyzer)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("expected diagnostic at %s:%d matching %q, got none", e.file, e.line, e.re)
		}
	}
}

func TestWallTimeFixture(t *testing.T) {
	runFixture(t, []*lint.Analyzer{lint.WallTimeAnalyzer}, "walltime")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, []*lint.Analyzer{lint.MapOrderAnalyzer}, "maporder")
}

func TestWireSafeFixture(t *testing.T) {
	runFixture(t, []*lint.Analyzer{lint.WireSafeAnalyzer}, "wiresafe")
}

func TestGoStmtFixture(t *testing.T) {
	runFixture(t, []*lint.Analyzer{lint.GoStmtAnalyzer}, "gostmt")
}

// TestUnannotatedPackageIsClean runs ALL analyzers over the fixture that
// opts into nothing: the scope directives, not the behavior, select
// enforcement, so wall-clock reads and order-leaking ranges there are
// legal.
func TestUnannotatedPackageIsClean(t *testing.T) {
	runFixture(t, lint.Analyzers(), "walltime_clean")
}

// TestRealTreeIsClean pins the acceptance criterion: the analyzers run
// clean over the real contract packages. A regression — a new time.Now,
// an unsorted range feeding an encoder, a raw uint16 cast in a codec,
// a go statement in the simulation core — fails this test (and CI's
// kollapslint gate) at the offending line.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := repoRoot(t)
	prog, err := lint.Load(root, "repro", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.RunAnalyzers(prog, lint.Analyzers(), prog.PackageList())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
