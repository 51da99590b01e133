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

// Loader parses and type-checks packages of a single Go module without
// golang.org/x/tools: module-local import paths are resolved against
// the module directory tree and recursively loaded by the Loader
// itself, while standard-library paths are delegated to the go/importer
// source importer (sharing this Loader's FileSet so every position is
// coherent). Test files are skipped everywhere.
type Loader struct {
	// ModulePath is the module path from go.mod (e.g. "repro").
	ModulePath string
	// ModuleDir is the absolute directory containing go.mod.
	ModuleDir string

	fset *token.FileSet
	ctxt build.Context
	std  types.Importer
	pkgs map[string]*Package // by import path; nil entry marks in-progress
}

// NewLoader locates the module containing dir (walking up to the
// nearest go.mod) and returns a Loader rooted there.
//
// The loader type-checks the standard library from source with cgo
// disabled so that pure-Go build variants are selected and no C
// toolchain is consulted; this flips build.Default.CgoEnabled for the
// process, which is acceptable for the analysis tooling this package
// exists to serve.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	// The source importer captures &build.Default; disable cgo before
	// first use so packages like net and os/user type-check their
	// pure-Go fallbacks.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		ModulePath: modPath,
		ModuleDir:  root,
		fset:       fset,
		ctxt:       build.Default,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}
	return l, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
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
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns to directories and loads each as a
// package. A pattern is either a directory path (absolute, or relative
// to the current working directory: "./internal/stats") or a recursive
// pattern ending in "/..." which loads every package directory beneath
// it, skipping testdata, vendor, and hidden directories. Results are
// sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	for _, pat := range patterns {
		base, rec := strings.CutSuffix(pat, "...")
		if rec {
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = "."
			}
			root, err := filepath.Abs(base)
			if err != nil {
				return nil, err
			}
			sub, err := l.walkPackageDirs(root)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, abs)
	}
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// walkPackageDirs returns every directory under root holding at least
// one buildable non-test .go file.
func (l *Loader) walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := l.sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// sourceFiles lists the buildable non-test .go files of dir, sorted.
// Build constraints are honored via the loader's build context.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := l.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: match %s: %w", filepath.Join(dir, name), err)
		}
		if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirForImport maps a module-local import path back to a directory.
func (l *Loader) dirForImport(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

// loadPath loads (or returns the memoized) package for import path,
// parsing from dir.
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle marker
	pkg, err := l.check(path, dir)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check parses and type-checks one package directory.
func (l *Loader) check(path, dir string) (*Package, error) {
	filenames, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly partial) package even on error.
	//lint:allow errdiscard Check's error duplicates the soft errors collected via conf.Error
	tpkg, _ := conf.Check(path, l.fset, files, pkg.TypesInfo)
	pkg.Types = tpkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer for dependency
// resolution during type-checking: module-local paths recurse into the
// Loader, everything else goes to the standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPath(path, l.dirForImport(path))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: no type information for %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
