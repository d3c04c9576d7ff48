package netout_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the package-level declarations and methods that no
// program reaches but a test needs, each with that test. Keys are
// "<import path>.<name>", or "<import path>.<type>.<method>" for a method.
var reachAllowlist = map[string]string{
	"netout/internal/core.PathSim":                 "TestNetOutEquationOneMatchesNaive checks ScoreVectors against it",
	"netout/internal/core.CosSim":                  "TestNetOutEquationOneMatchesNaive checks ScoreVectors against it",
	"netout/internal/xerr.RequestIDOf":             "TestServePoolClosedTyped and TestServePoolPanicRequestIDLocatesStack read the request ID ServePool.Execute stamps on its errors",
	"netout/internal/core.pathIndex.table":         "TestBuildIndexMatchesPerVertexTraversal (cache_test.go) and FuzzLoadIndex (fuzz_test.go) probe tables with it",
	"netout/internal/core.NormalizedConnectivity":  "TestNetOutEquationOneMatchesNaive checks ScoreVectors against it",
	"netout/internal/hin.Graph.Validate":           "TestPairMajorLayout, TestValidateChecksLayout, FuzzReadTSV and FuzzParse check every graph they build with it",
	"netout/internal/metapath.Traverser.SetKernel": "TestQuickExpandKernelsAgree, FuzzExpandKernels and BenchmarkExpand force each kernel with it",
	"netout/internal/sparse.Vector.Equal":          "TestQuickNeighborVectorKernelsAgree and TestTakeIntoBuffer compare vectors with it",
	"netout/internal/sparse.Vector.Scale":          "FuzzSparseKernels, FuzzExpandKernels and TestQuickLOFScaleInvariance build their inputs with it",
}

// TestEveryDeclarationIsReachable type-checks every non-test package of the
// module and walks what each top-level declaration and method refers to, from
// the programs alone: main and init of every main package, and every
// declaration under bench/ (frozen). An exported name of package netout is
// not a root: it is reached only when a program uses it. A reached type
// reaches a method of its own only when an interface names it (its name and
// signature are an interface method's, of an interface the module spells or a
// package it imports exports): every other method is reached only by a call or
// a method value. Allowlisted names are walked from too, after the programs.
// It fails on each package-level func, type, var or const and each method that
// is not reached, is outside bench/ (never reported) and is not on
// reachAllowlist, and on each allowlist reason that names no Test, Fuzz,
// Example or Benchmark function of the module, or names one that no _test.go
// file declares.
func TestEveryDeclarationIsReachable(t *testing.T) {
	const module = "netout"
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		path := module
		if p != "." {
			path += "/" + filepath.ToSlash(p)
		}
		dirs[path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	imp := &moduleImporter{fset: fset, info: info, dirs: dirs, std: importer.Default(), pkgs: map[string]*checkedPackage{}, imported: map[string]*types.Package{}}
	for path := range dirs {
		if _, err := imp.load(path); err != nil {
			t.Fatal(err)
		}
	}

	// deps: what each package-level object (or method) refers to in the
	// module. Function and variable instances are folded onto their origin.
	inModule := func(o types.Object) bool {
		return o.Pkg() != nil && imp.pkgs[o.Pkg().Path()] != nil
	}
	origin := func(o types.Object) types.Object {
		switch o := o.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return o
	}
	tracked := func(o types.Object) bool {
		if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			return true
		}
		return o.Parent() != nil && o.Parent() == o.Pkg().Scope()
	}
	deps := map[types.Object][]types.Object{}
	record := func(owners []types.Object, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if o := info.Uses[id]; o != nil && inModule(o) && tracked(origin(o)) {
				for _, w := range owners {
					deps[w] = append(deps[w], origin(o))
				}
			}
			return true
		})
	}
	var roots []types.Object
	var declared []types.Object // reportable: package-level, outside bench/
	for path, cp := range imp.pkgs {
		isMain := cp.pkg.Name() == "main"
		frozen := path == module+"/bench" || strings.HasPrefix(path, module+"/bench/")
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					o := info.Defs[d.Name]
					record([]types.Object{o}, d)
					switch {
					case d.Recv != nil:
						if !frozen {
							declared = append(declared, o)
						}
					case frozen, isMain && (d.Name.Name == "main" || d.Name.Name == "init"):
						roots = append(roots, o)
					case d.Name.Name != "init":
						declared = append(declared, o)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						default:
							continue
						}
						var owners []types.Object
						for _, id := range names {
							if o := info.Defs[id]; o != nil && id.Name != "_" {
								owners = append(owners, o)
							}
						}
						record(owners, spec)
						for _, o := range owners {
							if frozen {
								roots = append(roots, o)
							} else {
								declared = append(declared, o)
							}
						}
					}
				}
			}
		}
	}

	// named: the signatures of every interface method by name, from the
	// interfaces the module spells (their methods are defined in it), those
	// the packages it imports export, and error and the methods errors.Is, As
	// and Unwrap assert on an error through interfaces of their own.
	named := map[string][]types.Type{}
	for _, o := range info.Defs {
		if f, ok := o.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				named[f.Name()] = append(named[f.Name()], f.Type())
			}
		}
	}
	const protocols = "package p; type E interface{ error; Is(error) bool; As(any) bool; Unwrap() error }; type J interface{ Unwrap() []error }"
	f, err := parser.ParseFile(fset, "protocols.go", protocols, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("protocols", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp.imported["protocols"] = pkg
	for _, pkg := range imp.imported {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						named[it.Method(i).Name()] = append(named[it.Method(i).Name()], it.Method(i).Type())
					}
				}
			}
		}
	}
	interfaceNames := func(m *types.Func) bool {
		for _, t := range named[m.Name()] {
			if types.Identical(t, m.Type()) { // receivers are ignored
				return true
			}
		}
		return false
	}

	reached := map[types.Object]bool{}
	var visit func(types.Object)
	visit = func(o types.Object) {
		if reached[o] {
			return
		}
		reached[o] = true
		for _, d := range deps[o] {
			visit(d)
		}
		tn, ok := o.(*types.TypeName)
		if !ok {
			return
		}
		if tn.IsAlias() {
			return
		}
		if n, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); interfaceNames(m) {
					visit(m.Origin())
				}
			}
		}
	}
	for _, o := range roots {
		visit(o)
	}

	keyOf := func(o types.Object) string {
		if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			t := f.Type().(*types.Signature).Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return o.Pkg().Path() + "." + t.(*types.Named).Obj().Name() + "." + o.Name()
		}
		return o.Pkg().Path() + "." + o.Name()
	}
	byKey := map[string]types.Object{}
	for _, o := range declared {
		key := keyOf(o)
		byKey[key] = o
		if _, ok := reachAllowlist[key]; ok && reached[o] {
			t.Errorf("%s is reached by a program; take it off reachAllowlist", key)
		}
	}
	for key := range reachAllowlist {
		if o, ok := byKey[key]; ok {
			visit(o)
		} else {
			t.Errorf("reachAllowlist names %s, which is not declared", key)
		}
	}

	tests := map[string]bool{} // the top-level funcs of the module's _test.go files
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
		}
	}
	testName := regexp.MustCompile(`\b(Test|Fuzz|Example|Benchmark)[A-Z_]\w*`)
	for key, reason := range reachAllowlist {
		named := testName.FindAllString(reason, -1)
		if len(named) == 0 {
			t.Errorf("reachAllowlist's reason for %s names no test", key)
		}
		for _, n := range named {
			if !tests[n] {
				t.Errorf("reachAllowlist's reason for %s names %s, which no _test.go file declares", key, n)
			}
		}
	}

	var unreached []string
	for _, o := range declared {
		if key := keyOf(o); !reached[o] {
			unreached = append(unreached, key+" ("+fset.Position(o.Pos()).String()+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no program reaches %s: delete it, or name the test that needs it in reachAllowlist", u)
	}
}

type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
}

// moduleImporter type-checks the module's packages from source, each once,
// and takes everything else from the toolchain's export data.
type moduleImporter struct {
	fset *token.FileSet
	info *types.Info
	dirs map[string]string
	std  types.Importer
	pkgs map[string]*checkedPackage
	// imported is every package from outside the module the module imports.
	imported map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; !ok {
		pkg, err := m.std.Import(path)
		if err == nil {
			m.imported[path] = pkg
		}
		return pkg, err
	}
	cp, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return cp.pkg, nil
}

// load type-checks the package at path. A directory without non-test Go
// files yields nil.
func (m *moduleImporter) load(path string) (*checkedPackage, error) {
	if cp, ok := m.pkgs[path]; ok {
		return cp, nil
	}
	dir := m.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	cp := &checkedPackage{pkg: pkg, files: files}
	m.pkgs[path] = cp
	return cp, nil
}
