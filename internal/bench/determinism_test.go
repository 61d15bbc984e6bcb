package bench_test

import (
	"testing"

	"execrecon/internal/apps"
	"execrecon/internal/bench"
	"execrecon/internal/core"
	"execrecon/internal/symex"
)

// TestTable1Determinism pins the per-round analysis totals of the 13
// Table 1 bugs reproduced through the default core.Reproduce
// configuration under their stall-tuned budgets — the numbers
// benchmark/README.md records for the paper13 workload. The CDCL
// search is deterministic and the static failure slice must not change
// what key data value selection picks, so any drift in these counts
// means the sequential solver path or the slice moved.
func TestTable1Determinism(t *testing.T) {
	var occurrences, iterations, stalls int
	var queries, clauses, conc int64
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		budget := a.QueryBudget
		if budget == 0 {
			budget = bench.DefaultQueryBudget
		}
		rep, err := core.Reproduce(core.Config{
			Module: mod,
			Gen:    &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed},
			Symex:  symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		})
		if err != nil || !rep.Reproduced || !rep.Verified {
			t.Fatalf("%s: reproduced=%v verified=%v err=%v (%s)", a.Name, rep.Reproduced, rep.Verified, err, rep.FailReason)
		}
		occurrences += rep.Occurrences
		iterations += len(rep.Iterations)
		clauses += rep.TotalSATClauses
		for _, it := range rep.Iterations {
			if it.Status == symex.StatusStalled {
				stalls++
			}
			queries += it.Queries
			conc += it.ConcSteps
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"occurrences", int64(occurrences), 33},
		{"iterations", int64(iterations), 33},
		{"stalls", int64(stalls), 20},
		{"solver queries", queries, 60},
		{"SAT clauses", clauses, 541_882},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if conc == 0 {
		t.Error("no instruction executed natively: the failure slice is not applied")
	}
}
