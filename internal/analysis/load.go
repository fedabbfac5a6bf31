package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule parses and type-checks every non-test package under root (a
// directory containing go.mod), keeping only the files the host's build
// constraints select, and returns them in dependency order.
// Patterns restrict which packages are *analyzed* later (see Match);
// loading always covers the whole module so cross-package rules (ctrname)
// see the full picture. Test files (_test.go) are excluded by design: the
// rule suite targets production code, and the race gate covers tests.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type rawPkg struct {
		path      string
		files     []*ast.File
		filenames []string
		imports   map[string]bool
	}
	raw := make(map[string]*rawPkg)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		impPath := modPath
		if rel != "." {
			impPath = modPath + "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		rp := &rawPkg{path: impPath, imports: map[string]bool{}}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			// Honour build constraints (file-name GOOS/GOARCH suffixes and
			// //go:build lines) as `go build` would on this host, so an
			// arch-specific file and its portable twin are never checked
			// together.
			ok, err := build.Default.MatchFile(dir, name)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			fname := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", fname, err)
			}
			rp.files = append(rp.files, f)
			rp.filenames = append(rp.filenames, fname)
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					rp.imports[p] = true
				}
			}
		}
		if len(rp.files) > 0 {
			raw[impPath] = rp
		}
	}

	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order, err := topoSort(paths, func(p string) []string {
		rp, ok := raw[p]
		if !ok {
			return nil
		}
		deps := make([]string, 0, len(rp.imports))
		for d := range rp.imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		return deps
	})
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: fset}
	std := importer.ForCompiler(fset, "source", nil)
	local := make(map[string]*types.Package)
	imp := &progImporter{std: std, local: local}
	for _, path := range order {
		rp := raw[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		local[path] = tpkg
		prog.Packages = append(prog.Packages, &Package{
			Path:      path,
			Files:     rp.files,
			Filenames: rp.filenames,
			Types:     tpkg,
			Info:      info,
		})
	}
	return prog, nil
}

// progImporter serves module-local packages from the checked set and
// delegates everything else (stdlib) to the source importer.
type progImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if p, ok := pi.local[path]; ok {
		return p, nil
	}
	return pi.std.Import(path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// packageDirs lists directories under root that may hold Go packages,
// skipping hidden dirs, testdata, and vendor.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// topoSort orders package paths so dependencies precede dependents. deps
// must return only paths present in the input set (or paths it tolerates
// being visited with an empty dependency list).
func topoSort(paths []string, deps func(string) []string) ([]string, error) {
	known := make(map[string]bool, len(paths))
	for _, p := range paths {
		known[p] = true
	}
	const (
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case gray:
			return fmt.Errorf("import cycle through %s", p)
		case black:
			return nil
		}
		state[p] = gray
		for _, d := range deps(p) {
			if !known[d] {
				continue
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Match reports whether the package's import path matches any of the
// patterns. Supported forms: "./..." (everything), "dir/..." or
// "./dir/..." (subtree), "./dir" / "dir" (exact directory), and a full
// import path. Patterns are interpreted relative to the module root.
func (p *Package) Match(modPath string, patterns []string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, modPath), "/")
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") ||
				p.Path == sub || strings.HasPrefix(p.Path, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || p.Path == pat {
			return true
		}
	}
	return false
}

// LintModule loads the module at root and runs the full analyzer suite
// over packages matching patterns, returning unsuppressed diagnostics with
// file paths made relative to root.
func LintModule(root string, patterns []string) ([]Diagnostic, error) {
	return lintModule(root, patterns, false)
}

// LintModuleAll is LintModule keeping suppressed findings (Suppressed set on
// each); cmd/evaxlint -json uses it so audit tooling sees every directive.
func LintModuleAll(root string, patterns []string) ([]Diagnostic, error) {
	return lintModule(root, patterns, true)
}

func lintModule(root string, patterns []string, includeSuppressed bool) ([]Diagnostic, error) {
	prog, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	matched := 0
	for _, p := range prog.Packages {
		if p.Match(modPath, patterns) {
			matched++
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no packages match %v — a typo here would silently disable the gate", patterns)
	}
	var diags []Diagnostic
	if includeSuppressed {
		diags = AnalyzeAll(prog, Analyzers())
	} else {
		diags = Analyze(prog, Analyzers())
	}
	var out []Diagnostic
	for _, d := range diags {
		pkg := prog.packageOfFile(d.Pos.Filename)
		if pkg == nil || !pkg.Match(modPath, patterns) {
			continue
		}
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		out = append(out, d)
	}
	return out, nil
}

// packageOfFile finds the package owning filename.
func (prog *Program) packageOfFile(filename string) *Package {
	for _, p := range prog.Packages {
		for _, f := range p.Filenames {
			if f == filename {
				return p
			}
		}
	}
	return nil
}
