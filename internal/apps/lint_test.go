package apps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"execrecon/internal/absint"
	"execrecon/internal/apps"
	"execrecon/internal/dataflow"
	"execrecon/internal/minc"
)

// TestCorpusLintClean locks in a lint-clean evaluation corpus: every
// shipped app (the 13 Table 1 programs plus the §5.4 coreutils
// analogs) must produce zero findings under the full IR lint suite.
// A new finding here means either a genuine defect slipped into an
// app or a lint rule regressed into flagging idiomatic minc.
func TestCorpusLintClean(t *testing.T) {
	corpus := append(apps.All(), apps.CoreutilOd(), apps.CoreutilPr())
	for _, a := range corpus {
		mod, err := a.Module()
		if err != nil {
			t.Errorf("%s: compile: %v", a.Name, err)
			continue
		}
		for _, f := range dataflow.Lint(mod) {
			t.Errorf("%s: %s", a.Name, f)
		}
		// The provable (abstract-interpretation) rules may surface
		// advisory always-branch notes on guard idioms, but an
		// error-level proof — oob or overflow on every input — would
		// mean a shipped app is statically broken.
		for _, f := range absint.Lint(mod) {
			if dataflow.ErrorLevel(f.Rule) {
				t.Errorf("%s: %s", a.Name, f)
			}
		}
	}
}

// TestExamplesLintClean extracts the embedded minc source of every
// example program (the `const src` literal of examples/*/main.go) and
// requires a clean compile with zero advisory lint findings, so the
// code users copy first stays exemplary.
func TestExamplesLintClean(t *testing.T) {
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
		_, findings, err := minc.CompileWithLint(p, src)
		if err != nil {
			t.Errorf("%s: compile: %v", p, err)
			continue
		}
		for _, f := range findings {
			t.Errorf("%s: %s", p, f)
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
