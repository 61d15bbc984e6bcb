package apps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"execrecon/internal/minc"
)

// TestExamplesCompile extracts the embedded minc source of every
// example program (the `const src` literal of examples/*/main.go) and
// requires it to compile, so the code users copy first stays valid.
func TestExamplesCompile(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example programs found")
	}
	for _, p := range paths {
		src, ok := exampleSource(t, p)
		if !ok {
			t.Errorf("%s: no `src` string constant found", p)
			continue
		}
		if _, err := minc.Compile(p, src); err != nil {
			t.Errorf("%s: compile: %v", p, err)
		}
	}
}

// exampleSource parses one example's Go file and returns the value of
// its `src` string constant.
func exampleSource(t *testing.T, path string) (string, bool) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out string
	var found bool
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if name.Name != "src" || i >= len(vs.Values) {
				continue
			}
			lit, ok := vs.Values[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: unquote src: %v", path, err)
			}
			out, found = s, true
		}
		return true
	})
	return out, found
}
