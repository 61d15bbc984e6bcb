package core_test

import (
	"reflect"
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/corpus"
	"execrecon/internal/symex"
)

// TestCorpusReproduceDeterministic reconstructs a generated population
// spanning every bug pattern twice under each scenario's stall-tuned
// budget. Every scenario must reproduce and verify, and the two runs
// must agree on every analysis count: the sequential CDCL search and
// the static failure slice leave nothing to chance.
func TestCorpusReproduceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("reconstructs a generated population twice; skipped in -short")
	}
	scs, _, err := corpus.Generate(corpus.GenConfig{N: 2 * len(corpus.Patterns()), Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	// counts is the deterministic part of one iteration.
	type counts struct {
		Status                      symex.Status
		Instrs, SymSteps, ConcSteps int64
		Queries, SolverSteps        int64
		GraphNodes, RecordingSites  int
		RecordingCost               int64
		Sites                       []symex.SiteKey
	}
	run := func(t *testing.T, sc *corpus.Scenario) (*core.Report, []counts) {
		t.Helper()
		mod, err := sc.Module()
		if err != nil {
			t.Fatalf("module: %v", err)
		}
		app := sc.App()
		rep, err := core.Reproduce(core.Config{
			Module: mod,
			Gen:    &core.FixedWorkload{Workload: app.Failing(), Seed: app.Seed},
			Symex:  symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: 50_000_000},
		})
		if err != nil {
			t.Fatalf("reproduce: %v", err)
		}
		var cs []counts
		for _, it := range rep.Iterations {
			cs = append(cs, counts{it.Status, it.SymexInstrs, it.SymSteps, it.ConcSteps,
				it.Queries, it.SolverSteps, it.GraphNodes, it.RecordingSites, it.RecordingCost, it.Sites})
		}
		return rep, cs
	}

	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			first, a := run(t, sc)
			second, b := run(t, sc)
			if !first.Reproduced || !first.Verified {
				t.Fatalf("reproduced=%v verified=%v (%s)", first.Reproduced, first.Verified, first.FailReason)
			}
			if first.Occurrences != second.Occurrences || first.TotalSATClauses != second.TotalSATClauses ||
				!reflect.DeepEqual(a, b) {
				t.Errorf("runs differ: %d vs %d occurrences, %d vs %d clauses\n%+v\n%+v",
					first.Occurrences, second.Occurrences, first.TotalSATClauses, second.TotalSATClauses, a, b)
			}
		})
	}
}
