package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package: the unit the analyzers run over.
type Package struct {
	// ImportPath is the package's import path as `go list` reports it.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Standard marks packages from GOROOT (loaded for type information
	// only; analyzers never run over them).
	Standard bool
	// Fset is the file set the sources were parsed with (shared with the
	// World that loaded the package).
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the expression types, definitions and uses the
	// analyzers query.
	Info *types.Info
}

// World is a loaded module: every package named by the load patterns plus
// the full dependency closure (standard library included), type-checked
// from source in dependency order. No export data, object files or
// network access are involved, so loading works in a bare container with
// only the Go toolchain installed.
type World struct {
	// Fset is the file set shared by every package in the world.
	Fset *token.FileSet
	// Pkgs lists all loaded packages in dependency order.
	Pkgs   []*Package
	byPath map[string]*types.Package
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") relative to dir with the go
// command, then parses and type-checks the dependency-ordered package
// list. CGO_ENABLED=0 keeps the closure pure Go so the source
// type-checker can handle every file the go command reports.
func Load(dir string, patterns ...string) (*World, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}

	w := &World{Fset: token.NewFileSet(), byPath: map[string]*types.Package{}}
	dec := json.NewDecoder(&out)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.ImportPath == "unsafe" {
			continue // handled specially by the importer
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := w.check(lp.ImportPath, lp.Dir, files, lp.Standard)
		if err != nil {
			return nil, err
		}
		w.Pkgs = append(w.Pkgs, pkg)
	}
	return w, nil
}

// Module returns the loaded non-standard-library packages: the ones the
// analyzers run over.
func (w *World) Module() []*Package {
	var out []*Package
	for _, p := range w.Pkgs {
		if !p.Standard {
			out = append(out, p)
		}
	}
	return out
}

// CheckDir parses and type-checks the non-test .go files of a single
// directory as a package with the given import path, resolving its
// imports against the already-loaded world. The analyzer test fixtures
// under testdata (which go list never reports) are loaded this way.
func (w *World) CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	return w.check(importPath, dir, files, false)
}

// check parses files and type-checks them as one package.
func (w *World) check(importPath, dir string, files []string, standard bool) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(w.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*worldImporter)(w)}
	tp, err := conf.Check(importPath, w.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	w.byPath[importPath] = tp
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Standard:   standard,
		Fset:       w.Fset,
		Files:      asts,
		Types:      tp,
		Info:       info,
	}, nil
}

// worldImporter resolves imports against the packages checked so far.
// Because go list emits dependencies before dependents, every import is
// already present by the time it is asked for. Standard-library vendored
// paths (net -> golang.org/x/net/...) are listed under a vendor/ prefix,
// so failed lookups retry with it.
type worldImporter World

func (w *worldImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := w.byPath[path]; ok {
		return p, nil
	}
	if p, ok := w.byPath["vendor/"+path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not loaded (go list did not report it as a dependency)", path)
}
