package solver

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"execrecon/internal/expr"
)

// wsQuery is one query of the workspace-reuse sequence, solved under
// its own step budget.
type wsQuery struct {
	name     string
	maxSteps int64
	want     Result
	cs       []*expr.Expr
}

// pigeonholeQuery asks whether holes+1 pigeons fit into holes holes
// one to a hole: unsat, and hard enough for CDCL that holes = 8 runs
// thousands of conflicts and triggers reduceLearnts.
func pigeonholeQuery(b *expr.Builder, holes int) []*expr.Expr {
	in := func(i, j int) *expr.Expr {
		return b.Eq(b.Var(fmt.Sprintf("p%d_%d", i, j), 1), b.Const(1, 1))
	}
	var cs []*expr.Expr
	for i := 0; i <= holes; i++ {
		some := in(i, 0)
		for j := 1; j < holes; j++ {
			some = b.BoolOr(some, in(i, j))
		}
		cs = append(cs, some)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i <= holes; i++ {
			for k := i + 1; k <= holes; k++ {
				cs = append(cs, b.BoolNot(b.BoolAnd(in(i, j), in(k, j))))
			}
		}
	}
	return cs
}

// workspaceSequence builds the fixed query sequence on b: a large Sat
// query, a budget-exhausted Unknown, a level-0 Unsat, a CDCL Unsat
// that runs reduceLearnts, then small queries over bitvectors,
// division and arrays.
func workspaceSequence(b *expr.Builder) []wsQuery {
	x, y := b.Var("x", 32), b.Var("y", 32)
	factor := []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(65521*65519, 32)),
		b.Ult(b.Const(1, 32), x), b.Ult(b.Const(1, 32), y),
		b.Ult(x, b.Const(1<<16, 32)), b.Ult(y, b.Const(1<<16, 32)),
	}
	v := b.Var("v", 8)
	arr := b.ArrayVar("mem", 8, 8)
	i, j := b.Var("i", 8), b.Var("j", 8)
	return []wsQuery{
		{"large-sat", 0, ResultSat, factor},
		{"budget-unknown", 20000, ResultUnknown, pigeonholeQuery(b, 8)},
		{"level0-unsat", 0, ResultUnsat, []*expr.Expr{
			b.Eq(v, b.Const(3, 8)), b.Eq(v, b.Const(4, 8)),
		}},
		{"reduce-unsat", 0, ResultUnsat, pigeonholeQuery(b, 8)},
		{"small-add", 0, ResultSat, []*expr.Expr{
			b.Eq(b.Add(v, b.Const(7, 8)), b.Const(2, 8)),
		}},
		{"small-div", 0, ResultSat, []*expr.Expr{
			b.Eq(b.UDiv(x, b.Const(10, 32)), b.Const(1234, 32)),
			b.Eq(b.URem(x, b.Const(10, 32)), b.Const(7, 32)),
		}},
		{"small-array", 0, ResultSat, []*expr.Expr{
			b.Eq(b.Select(b.Store(arr, i, b.Const(9, 8)), j), b.Const(5, 8)),
			b.Eq(b.Select(arr, i), b.Const(5, 8)),
		}},
		{"small-unsat", 0, ResultUnsat, []*expr.Expr{
			b.Ult(v, b.Const(3, 8)), b.Ult(b.Const(5, 8), v),
		}},
	}
}

// sameSearch reports how a warm solve differs from the cold one, or
// "" when verdict, model and every search counter agree.
func sameSearch(warm, cold Stats, wr, cr Result, wm, cm *expr.Assignment) string {
	if wr != cr {
		return fmt.Sprintf("result %v, cold %v", wr, cr)
	}
	if warm.Steps != cold.Steps || warm.SATVars != cold.SATVars || warm.SATClauses != cold.SATClauses ||
		warm.Propagations != cold.Propagations || warm.Conflicts != cold.Conflicts || warm.Decisions != cold.Decisions {
		return fmt.Sprintf("stats %+v, cold %+v", warm, cold)
	}
	if !reflect.DeepEqual(wm, cm) {
		return fmt.Sprintf("model %+v, cold %+v", wm, cm)
	}
	return ""
}

// coldSolve solves cs on a fresh Solver and a never-used workspace.
func coldSolve(b *expr.Builder, maxSteps int64, cs []*expr.Expr) (Result, *expr.Assignment, Stats, error) {
	opts := DefaultOptions()
	opts.MaxSteps = maxSteps
	s := New(b, opts)
	r, m, err := s.solve(cs, new(sat))
	return r, m, s.LastStats(), err
}

// TestWorkspaceReuseMatchesCold runs one Solver and one SAT workspace
// through the query sequence. Whatever an earlier query left behind —
// a budget-interrupted search, a failed level-0 database, dropped
// learnt clauses, grown watch lists — every query must solve exactly
// as it does on a cold workspace.
func TestWorkspaceReuseMatchesCold(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b, DefaultOptions())
	ws := new(sat)
	for _, q := range workspaceSequence(b) {
		s.opts.MaxSteps = q.maxSteps
		wr, wm, err := s.solve(q.cs, ws)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if wr != q.want {
			t.Fatalf("%s: %v, want %v", q.name, wr, q.want)
		}
		switch q.name {
		case "level0-unsat":
			if !ws.failed {
				t.Errorf("%s: the clause database did not fail at level 0", q.name)
			}
		case "reduce-unsat":
			if len(ws.marks) == 0 {
				t.Errorf("%s: reduceLearnts did not run", q.name)
			}
		}
		cr, cm, cst, err := coldSolve(b, q.maxSteps, q.cs)
		if err != nil {
			t.Fatalf("%s cold: %v", q.name, err)
		}
		if diff := sameSearch(s.LastStats(), cst, wr, cr, wm, cm); diff != "" {
			t.Errorf("%s: warm workspace differs: %s", q.name, diff)
		}
	}
}

// TestWorkspaceReuseMatchesColdConcurrent runs the sequence on 4
// goroutines, each with its own builder and Solver, all drawing
// workspaces from the shared pool through Solve.
func TestWorkspaceReuseMatchesColdConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := expr.NewBuilder()
			s := New(b, DefaultOptions())
			for _, q := range workspaceSequence(b) {
				s.opts.MaxSteps = q.maxSteps
				wr, wm, err := s.Solve(q.cs)
				cr, cm, cst, cerr := coldSolve(b, q.maxSteps, q.cs)
				if err != nil || cerr != nil {
					errs <- fmt.Sprintf("%s: %v / cold %v", q.name, err, cerr)
					return
				}
				if diff := sameSearch(s.LastStats(), cst, wr, cr, wm, cm); diff != "" {
					errs <- fmt.Sprintf("%s: pooled workspace differs: %s", q.name, diff)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWorkspaceSurvivesGC solves a query, collects garbage twice and
// solves it again. The grown workspace must still be on the free list,
// so the solve after the collections allocates far less than a solve
// on a cold workspace. (A sync.Pool empties over two collections, and
// every such solve regrew the arena and the watch lists.)
func TestWorkspaceSurvivesGC(t *testing.T) {
	b := expr.NewBuilder()
	cs := workspaceSequence(b)[0].cs
	s := New(b, DefaultOptions())
	solve := func(ws *sat) {
		var r Result
		var err error
		if ws == nil {
			r, _, err = s.Solve(cs)
		} else {
			r, _, err = s.solve(cs, ws)
		}
		if r != ResultSat || err != nil {
			t.Fatalf("%v (err %v)", r, err)
		}
	}
	cold := testing.AllocsPerRun(3, func() { solve(new(sat)) })
	solve(nil)
	warm := testing.AllocsPerRun(3, func() {
		runtime.GC()
		runtime.GC()
		solve(nil)
	})
	if warm > cold/10 {
		t.Fatalf("solve after two collections: %.0f allocs, cold workspace %.0f: the workspace was dropped", warm, cold)
	}
}
