package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package of the program.
type Package struct {
	// Path is the import path ("repro/internal/dissem").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type resolution for Files.
	Info *types.Info
}

// A Program is a set of packages loaded from one module, sharing a
// FileSet.
type Program struct {
	// Fset maps positions for all loaded files.
	Fset *token.FileSet
	// Packages maps import path to loaded package, in load order.
	Packages map[string]*Package
}

// loader type-checks module-local packages on demand, delegating
// stdlib imports to the compiler's source importer. It implements
// types.Importer.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	module  string // module import path
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// Import resolves one import path, type-checking module-local packages
// from source under the module root.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	pkg, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg.Types, nil
}

// loadDir parses and type-checks the package in dir.
func (l *loader) loadDir(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load %s: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// Load parses and type-checks the named packages of the module rooted
// at root (the directory holding go.mod, with module path modulePath).
// Patterns are import paths relative to the module ("./internal/dissem"
// or "repro/internal/dissem"), or "./..." to load every package under
// root. Test files are excluded — analyzers enforce production
// contracts.
func Load(root, modulePath string, patterns []string) (*Program, error) {
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		module:  modulePath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	// Stdlib imports type-check from source; sharing the file set keeps
	// every position the program can ever report consistent.
	l.std = importer.ForCompiler(l.fset, "source", nil)

	var paths []string
	for _, pat := range patterns {
		expanded, err := expandPattern(root, modulePath, pat)
		if err != nil {
			return nil, err
		}
		paths = append(paths, expanded...)
	}
	sort.Strings(paths)
	seen := make(map[string]bool)
	prog := &Program{
		Fset:     l.fset,
		Packages: make(map[string]*Package),
	}
	for _, path := range paths {
		if seen[path] {
			continue
		}
		seen[path] = true
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	// Dependencies pulled in by imports are part of the program too.
	for path, pkg := range l.pkgs {
		prog.Packages[path] = pkg
	}
	return prog, nil
}

// PackageList returns the program's packages sorted by import path.
func (p *Program) PackageList() []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// expandPattern turns one CLI pattern into concrete import paths.
func expandPattern(root, modulePath, pat string) ([]string, error) {
	recursive := false
	switch {
	case pat == "./..." || pat == "...":
		recursive = true
		pat = "."
	case strings.HasSuffix(pat, "/..."):
		recursive = true
		pat = strings.TrimSuffix(pat, "/...")
	}
	// Normalize to a module-relative directory.
	rel := pat
	if rel == modulePath {
		rel = "."
	} else if strings.HasPrefix(rel, modulePath+"/") {
		rel = strings.TrimPrefix(rel, modulePath+"/")
	}
	rel = strings.TrimPrefix(rel, "./")
	if rel == "" {
		rel = "."
	}
	dir := filepath.Join(root, rel)
	if !recursive {
		return []string{importPath(modulePath, rel)}, nil
	}
	var out []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		sub, rerr := filepath.Rel(root, filepath.Dir(p))
		if rerr != nil {
			return rerr
		}
		out = append(out, importPath(modulePath, sub))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pattern %s: %w", pat, err)
	}
	return out, nil
}

// importPath joins a module path with a module-relative directory.
func importPath(modulePath, rel string) string {
	if rel == "." || rel == "" {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}
