package corpus_test

import (
	"testing"

	"execrecon/internal/absint"
	"execrecon/internal/corpus"
	"execrecon/internal/dataflow"
	"execrecon/internal/minc"
)

// TestCorpusProvableLintClean is the provable-lint regression gate for
// the generated population: the corpus injects *input-dependent* bugs
// (they fire only on the ground-truth failing workload), so the
// abstract interpreter — which proves facts over every input — must
// never promote one to an error-level finding. A finding here is a
// lint false positive: it would turn `er -lint` into a build breaker
// on code that is correct for almost all inputs.
func TestCorpusProvableLintClean(t *testing.T) {
	const n = 200
	scs, _, err := corpus.Generate(corpus.GenConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(scs) != n {
		t.Fatalf("generated %d scenarios, want %d", len(scs), n)
	}
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			t.Errorf("%s: compile: %v", sc.Name, err)
			continue
		}
		for _, f := range absint.Lint(mod) {
			if dataflow.ErrorLevel(f.Rule) {
				t.Errorf("%s (%s): provable-lint false positive: %s", sc.Name, sc.Pattern, f)
			}
		}
	}
}

// TestProvableLintFlagsKnownBugs is the matching true-positive gate:
// constructs that are wrong for *every* input — the shapes the corpus
// deliberately avoids — must be flagged at error level, so the clean
// result above means "no false positives", not "lint does nothing".
func TestProvableLintFlagsKnownBugs(t *testing.T) {
	cases := []struct {
		name, rule, src string
	}{
		{"oob", "provable-oob", `
int buf[4];
func main() int {
	int i = input32("n");
	buf[i & 3] = i;
	buf[7] = 1;
	return 0;
}
`},
		{"overflow", "provable-overflow", `
func main() int {
	int x = 3000000000;
	int y = x + x;
	return y;
}
`},
	}
	for _, tc := range cases {
		mod, err := minc.Compile(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		found := false
		for _, f := range absint.Lint(mod) {
			if f.Rule == tc.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s finding on a provably-buggy program", tc.name, tc.rule)
		}
	}
}
