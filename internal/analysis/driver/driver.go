// Package driver runs the itslint analyzers in one process. It loads the
// root packages and their dependencies, type-checks every non-standard
// package from source in dependency order, and runs the analyzers on each
// package once, passing object facts between packages through an in-memory
// store. Only the root packages yield diagnostics, suppression counts and
// frozen layouts; a dependency that is not itself a root contributes facts
// and nothing else.
//
// The driver also derives the deterministic set: the in-module import
// closure of itslint.SimulatorRoots. It lists those roots on every run,
// whichever packages the patterns name, and answers itslint.Deterministic
// for each pass through Pass.ImportPackageFact.
//
// Packages are resolved in one of two ways. Run asks `go list -deps`, so
// patterns such as ./..., ./internal/sched and itsim/... keep go's exact
// semantics. RunGOPATH reads a GOPATH-style fixture tree
// (dir/src/<import/path>/*.go), which is how the analyzer tests run. The
// standard library is type-checked from GOROOT source and is never
// analyzed.
package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
	"itsim/internal/analysis/schemafreeze"
)

// Diagnostic is one finding in a root package.
type Diagnostic struct {
	analysis.Diagnostic
	Analyzer string
	Posn     token.Position
}

// Key names one analyzer's pass over one package.
type Key struct{ Analyzer, Package string }

// Result is what the analyzers found in the root packages.
type Result struct {
	Fset *token.FileSet
	// Files are the parsed files of the root packages.
	Files []*ast.File
	// Diagnostics are sorted by file, line, column, analyzer and message.
	Diagnostics []Diagnostic
	// Suppressed counts the findings that justified //itslint:allow
	// directives absorbed, per analyzer and root package.
	Suppressed map[Key]int
	// Frozen maps every //itslint:frozen struct of the root packages
	// (importpath.Name) to the layout schemafreeze captured.
	Frozen map[string]string
}

// PerAnalyzer totals Suppressed per analyzer and overall.
func (r *Result) PerAnalyzer() (perAnalyzer map[string]int, total int) {
	perAnalyzer = make(map[string]int)
	for k, n := range r.Suppressed {
		perAnalyzer[k.Analyzer] += n
		total += n
	}
	return perAnalyzer, total
}

// pkgSpec is one package to load: its import path, its source files, the
// paths it imports, and whether it was named (a root) or only imported.
type pkgSpec struct {
	path    string
	files   []string
	imports []string
	root    bool
}

// Run loads the packages matching patterns in the module of the working
// directory, and their dependencies, and runs the analyzers over them. The
// simulator roots are listed too, to derive the deterministic set; a root
// the module lacks is skipped.
func Run(analyzers []*analysis.Analyzer, patterns ...string) (*Result, error) {
	args := []string{"list", "-e", "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard,Match,Error"}
	cmd := exec.Command("go", append(append(args, patterns...), itslint.SimulatorRoots...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	named := make(map[string]bool)
	for _, p := range patterns {
		named[p] = true
	}
	var specs []pkgSpec
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Imports, Match  []string
			Standard        bool
			Error           *struct{ Err string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		spec := pkgSpec{path: p.ImportPath, imports: p.Imports}
		for _, m := range p.Match {
			spec.root = spec.root || named[m]
		}
		if p.Error != nil {
			if p.Dir == "" && !spec.root && len(p.Match) > 0 {
				continue // a simulator root this module does not have
			}
			return nil, fmt.Errorf("go list: %s", p.Error.Err)
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		for _, f := range p.GoFiles {
			spec.files = append(spec.files, filepath.Join(p.Dir, f))
		}
		specs = append(specs, spec)
	}
	return analyze(specs, analyzers)
}

// RunGOPATH runs the analyzers over the packages gopath/src/<path>. Their
// imports resolve in the tree first and in the standard library otherwise.
// The simulator roots present in the tree are loaded too, to derive the
// deterministic set.
func RunGOPATH(gopath string, analyzers []*analysis.Analyzer, paths ...string) (*Result, error) {
	var specs []pkgSpec
	isRoot := make(map[string]bool)
	for _, path := range paths {
		isRoot[path] = true
	}
	inTree := func(path string) bool {
		info, err := os.Stat(filepath.Join(gopath, "src", filepath.FromSlash(path)))
		return err == nil && info.IsDir()
	}
	seen := make(map[string]bool)
	var visit func(path string) error
	visit = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		dir := filepath.Join(gopath, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		spec := pkgSpec{path: path, root: isRoot[path]}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				ipath, _ := strconv.Unquote(imp.Path.Value)
				if inTree(ipath) {
					if err := visit(ipath); err != nil {
						return err
					}
					spec.imports = append(spec.imports, ipath)
				}
			}
			spec.files = append(spec.files, file)
		}
		if len(spec.files) == 0 {
			return fmt.Errorf("no Go files in %s", dir)
		}
		specs = append(specs, spec)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	for _, path := range itslint.SimulatorRoots {
		if inTree(path) {
			if err := visit(path); err != nil {
				return nil, err
			}
		}
	}
	return analyze(specs, analyzers)
}

// closure returns the paths of the specs reachable from the given paths
// through imports, the starting paths included.
func closure(specs []pkgSpec, from []string) map[string]bool {
	imports := make(map[string][]string, len(specs))
	for _, s := range specs {
		imports[s.path] = s.imports
	}
	reached := make(map[string]bool)
	var walk func(path string)
	walk = func(path string) {
		if _, ok := imports[path]; !ok || reached[path] {
			return
		}
		reached[path] = true
		for _, imp := range imports[path] {
			walk(imp)
		}
	}
	for _, path := range from {
		walk(path)
	}
	return reached
}

// analyze type-checks the roots and their dependencies in order (each after
// its own dependencies) and runs the analyzers on them. specs may list more
// packages than that: those only extend the import graph the deterministic
// set is derived from.
func analyze(specs []pkgSpec, analyzers []*analysis.Analyzer) (*Result, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		if len(a.Requires) > 0 {
			return nil, fmt.Errorf("analyzer %s: Requires is not supported", a.Name)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	loaded := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := loaded[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})
	sizes := types.SizesFor("gc", runtime.GOARCH)
	facts := make(map[factKey]analysis.Fact)
	res := &Result{Fset: fset, Suppressed: make(map[Key]int), Frozen: make(map[string]string)}
	det := closure(specs, itslint.SimulatorRoots)
	var roots []string
	for _, spec := range specs {
		if spec.root {
			roots = append(roots, spec.path)
		}
	}
	needed := closure(specs, roots)

	for _, spec := range specs {
		if !needed[spec.path] {
			continue
		}
		var files []*ast.File
		var errs []error
		for _, name := range spec.files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				errs = append(errs, err)
			}
			files = append(files, f)
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		pkg, _ := conf.Check(spec.path, fset, files, info)
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		loaded[spec.path] = pkg
		if spec.root {
			res.Files = append(res.Files, files...)
		}

		for _, a := range analyzers {
			if !spec.root && len(a.FactTypes) == 0 {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      files,
				Pkg:        pkg,
				TypesInfo:  info,
				TypesSizes: sizes,
				ResultOf:   map[*analysis.Analyzer]any{},
				Report: func(d analysis.Diagnostic) {
					if !spec.root {
						return
					}
					if d.Category == itslint.Suppressed {
						res.Suppressed[Key{a.Name, spec.path}]++
						return
					}
					res.Diagnostics = append(res.Diagnostics, Diagnostic{d, a.Name, fset.Position(d.Pos)})
				},
				ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
					stored, ok := facts[factKey{obj, reflect.TypeOf(fact)}]
					if ok {
						reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
					}
					return ok
				},
				ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
					_, ok := fact.(*itslint.DeterministicFact)
					return ok && det[p.Path()]
				},
				ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
					if obj.Pkg() != pkg {
						panic(fmt.Sprintf("%s: fact exported on %v outside package %s", a.Name, obj, spec.path))
					}
					facts[factKey{obj, reflect.TypeOf(fact)}] = fact
				},
			}
			result, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, spec.path, err)
			}
			if capture, ok := result.(schemafreeze.Capture); ok && spec.root {
				if err := schemafreeze.MergeCapture(res.Frozen, capture); err != nil {
					return nil, err
				}
			}
		}
	}

	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res, nil
}

// factKey keys an object fact by the object and the fact's concrete type.
type factKey struct {
	obj types.Object
	t   reflect.Type
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
