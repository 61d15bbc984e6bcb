package corpus_test

import (
	"testing"

	"execrecon/internal/corpus"
	"execrecon/internal/dataflow"
)

// corpusDeadStores is the number of dead-store findings dataflow.Lint
// reports on the 200 seed-1 scenarios, all of them values the generated
// mixN helpers assign and never read. The count pins the lint's
// behaviour on the population.
const corpusDeadStores = 77

// TestCorpusLintDeadStoresOnly is the lint regression gate for the
// generated population. The corpus injects input-dependent bugs that
// fire only on the ground-truth failing workload, so every finding must
// be an advisory dead-store: a finding of any other rule means a rule
// misfires on correct-for-most-inputs code (or Compile let an invariant
// violation through).
func TestCorpusLintDeadStoresOnly(t *testing.T) {
	const n = 200
	scs, _, err := corpus.Generate(corpus.GenConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(scs) != n {
		t.Fatalf("generated %d scenarios, want %d", len(scs), n)
	}
	dead := 0
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			t.Errorf("%s: compile: %v", sc.Name, err)
			continue
		}
		for _, f := range dataflow.Lint(mod) {
			if f.Rule != dataflow.RuleDeadStore {
				t.Errorf("%s (%s): unexpected lint finding: %s", sc.Name, sc.Pattern, f)
				continue
			}
			dead++
		}
	}
	if dead != corpusDeadStores {
		t.Errorf("dead-store findings = %d, want %d", dead, corpusDeadStores)
	}
}
