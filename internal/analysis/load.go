package analysis

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

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is a fully loaded and type-checked module. Packages are ordered
// deterministically (dependencies before dependents, ties broken by import
// path).
type Module struct {
	Root     string // absolute module root directory
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
	std    types.ImporterFrom
}

// LoadModule locates the module containing dir, parses every non-test Go
// file outside testdata/vendor directories, and type-checks all packages in
// dependency order. The standard library is type-checked from $GOROOT source
// so the loader needs no export data, no network, and no external tooling.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	src := importer.ForCompiler(m.Fset, "source", nil)
	from, ok := src.(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	m.std = from

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	type parsed struct {
		path  string
		dir   string
		files []*ast.File
		deps  []string
	}
	byPath := make(map[string]*parsed)
	var paths []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(m.Fset, d)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		p := &parsed{path: path, dir: d, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.deps = append(p.deps, ip)
				}
			}
		}
		byPath[path] = p
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Topological order over module-local imports.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		p := byPath[path]
		deps := append([]string(nil), p.deps...)
		sort.Strings(deps)
		for _, dep := range deps {
			if byPath[dep] == nil {
				return fmt.Errorf("analysis: %s imports %s, which has no Go files in the module", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	for _, path := range order {
		p := byPath[path]
		lp, err := m.check(path, p.files)
		if err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, lp)
		m.byPath[path] = lp
	}
	return m, nil
}

// RelFile returns filename relative to the module root with forward
// slashes, so reported findings stay machine-independent. Filenames outside
// the root pass through unchanged.
func (m *Module) RelFile(filename string) string {
	rel, err := filepath.Rel(m.Root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// Import resolves an import path: module-local packages come from the loaded
// module, everything else from the standard-library source importer. Module
// satisfies types.Importer so fixture tests can type-check files that import
// module packages.
func (m *Module) Import(path string) (*types.Package, error) {
	if lp, ok := m.byPath[path]; ok {
		return lp.Pkg, nil
	}
	return m.std.ImportFrom(path, m.Root, 0)
}

// check type-checks files as one package with the given import path,
// resolving imports through the module. The fixture and mutation tests
// use it on packages of their own.
func (m *Module) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: m,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, m.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// findModule ascends from dir to the enclosing go.mod and returns the module
// root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// packageDirs lists directories under root that contain non-test Go files,
// skipping testdata, vendor, and hidden or underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory in sorted filename
// order, so file sets and positions are stable run to run.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
