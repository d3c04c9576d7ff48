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
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the package-level declarations that no program
// reaches but a test needs, each with that test. Keys are
// "<import path>.<name>".
var reachAllowlist = map[string]string{
	"netout/internal/core.PathSim":              "TestNetOutEquationOneMatchesNaive checks ScoreVectors against it",
	"netout/internal/core.CosSim":               "TestNetOutEquationOneMatchesNaive checks ScoreVectors against it",
	"netout/internal/gen.SecurityConfig":        "TestSecurityQueryFindsCompromisedHosts builds its network with it",
	"netout/internal/gen.DefaultSecurityConfig": "TestSecurityQueryFindsCompromisedHosts builds its network with it",
	"netout/internal/gen.SecurityManifest":      "TestSecurityQueryFindsCompromisedHosts builds its network with it",
	"netout/internal/gen.GenerateSecurity":      "TestSecurityQueryFindsCompromisedHosts builds its network with it",
	"netout/internal/xerr.RequestIDOf":          "the serving tests read the request ID ServePool.Execute stamps on its errors",
	"netout/internal/xerr.requestIDer":          "the serving tests read the request ID ServePool.Execute stamps on its errors",
}

// TestEveryDeclarationIsReachable type-checks every non-test package of the
// module and walks what each top-level declaration refers to, from the
// roots: main and init of every main package and every exported name of
// package netout. A named type that is reached reaches all of its methods.
// It fails on each package-level func, type, var or const that is not
// reached, is outside bench/ (frozen: a root, never reported) and is not on
// reachAllowlist.
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
	imp := &moduleImporter{fset: fset, info: info, dirs: dirs, std: importer.Default(), pkgs: map[string]*checkedPackage{}}
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
					if d.Recv != nil {
						continue
					}
					switch {
					case frozen, isMain && (d.Name.Name == "main" || d.Name.Name == "init"), path == module && d.Name.IsExported():
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
							if frozen || path == module && o.Exported() {
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
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					visit(named.Method(i))
				}
			}
		}
	}
	for _, o := range roots {
		visit(o)
	}

	var unreached []string
	for _, o := range declared {
		key := o.Pkg().Path() + "." + o.Name()
		if reached[o] {
			if _, ok := reachAllowlist[key]; ok {
				t.Errorf("%s is reached by a program; take it off reachAllowlist", key)
			}
			continue
		}
		if _, ok := reachAllowlist[key]; !ok {
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
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; !ok {
		return m.std.Import(path)
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
