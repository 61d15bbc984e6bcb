package bench_test

import (
	"strings"
	"testing"

	"execrecon/internal/bench"
)

// TestSolveCacheSmoke runs the solver-session ablation on a small app
// subset: every app must reproduce with identical verdicts under a
// fresh solver per query and under one incremental session, the session
// must reuse cached constraints, and the renderer must list every app.
func TestSolveCacheSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("solvecache ablation runs full ER pipelines; skipped in -short")
	}
	only := []string{"SQLite-787fa71", "Nasm-2004-1287"}
	r, err := bench.RunSolveCache(bench.SolveCacheOptions{Only: only})
	if err != nil {
		t.Fatalf("solvecache: %v", err)
	}
	if len(r.Rows) != len(only) {
		t.Fatalf("rows: %d, want %d", len(r.Rows), len(only))
	}
	if !r.AllVerdictsMatch {
		t.Error("verdict parity violated between fresh and session solving")
	}
	for _, row := range r.Rows {
		if !row.IncReproduced || !row.IncVerified {
			t.Errorf("%s: session run reproduced=%v verified=%v (%s)",
				row.App, row.IncReproduced, row.IncVerified, row.FailReason)
		}
		if row.FreshSolverTime <= 0 || row.IncSolverTime <= 0 {
			t.Errorf("%s: solver time not recorded (fresh=%v inc=%v)", row.App, row.FreshSolverTime, row.IncSolverTime)
		}
		if row.Session.ConstraintsSeen == 0 {
			t.Errorf("%s: session saw no constraints", row.App)
		}
	}

	var sb strings.Builder
	bench.RenderSolveCache(&sb, r)
	out := sb.String()
	for _, want := range append([]string{"Incremental", "Reuse", "verdicts identical: true"}, only...) {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
