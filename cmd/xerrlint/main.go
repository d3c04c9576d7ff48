// Command xerrlint enforces the serving error taxonomy: inside the serving
// layer, every constructed error must carry a taxonomy code, so naked
// fmt.Errorf(...) and errors.New(...) calls are forbidden there — use
// xerr.New/Newf/Wrap/Interrupt (or the netout facade's Errorf)
// instead. An untyped error silently classifies
// as INTERNAL at the HTTP boundary, which is exactly the bug class this
// repo's issue #6 removed; the linter keeps it from creeping back.
//
// Usage:
//
//	go run ./cmd/xerrlint [files-or-dirs...]
//
// With no arguments it checks the default serving scope: the serving files
// of internal/core, all of internal/shardnet (wire errors must carry their
// taxonomy code to survive serialization) and all of cmd/netout (test
// files are always exempt — tests legitimately build anonymous errors to
// probe classification).
// It prints one finding per line and exits 1 when any are found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// defaultScope is the serving layer: files whose errors cross the
// ServePool/HTTP boundary and therefore must be classified. The rest of
// internal/core (indexing, persistence, measures) is library surface whose
// errors never reach a status mapper directly, so it stays out of scope.
var defaultScope = []string{
	"internal/core/serve.go",
	"internal/core/guard.go",
	"internal/core/engine.go",
	"internal/core/batch.go",
	"internal/core/progressive.go",
	"internal/core/execute.go",
	"internal/core/scatter.go",
	"internal/core/explain.go",
	"internal/core/suggest.go",
	"internal/shardnet",
	"cmd/netout",
}

// finding is one forbidden constructor call.
type finding struct {
	pos  token.Position
	call string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: naked %s in serving code; construct a typed error (xerr.New/Newf/Wrap or netout.Errorf) so it classifies", f.pos, f.call)
}

func main() {
	targets := os.Args[1:]
	if len(targets) == 0 {
		targets = defaultScope
	}
	var files []string
	for _, t := range targets {
		fi, err := os.Stat(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xerrlint: %v\n", err)
			os.Exit(2)
		}
		if !fi.IsDir() {
			files = append(files, t)
			continue
		}
		entries, err := os.ReadDir(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xerrlint: %v\n", err)
			os.Exit(2)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(t, e.Name()))
			}
		}
	}
	var findings []finding
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		fs, err := checkFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xerrlint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xerrlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// checkFile parses one file and reports every fmt.Errorf / errors.New call.
// Detection is syntactic on the selector (package alias . function name):
// good enough for a repo-local rule, no type checking needed.
func checkFile(path string) ([]finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var findings []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		name := pkg.Name + "." + sel.Sel.Name
		if name == "fmt.Errorf" || name == "errors.New" {
			findings = append(findings, finding{pos: fset.Position(call.Pos()), call: name})
		}
		return true
	})
	return findings, nil
}
