package solver

import (
	"testing"

	"execrecon/internal/expr"
)

// BenchmarkSolveDiv solves a symex-style concretization query over a
// 32-bit udiv/urem pair: the full restoring dividers dominate the
// blasted CNF, so the allocation counts show what the clause arena and
// the pooled workspace save per query.
func BenchmarkSolveDiv(b *testing.B) {
	eb := expr.NewBuilder()
	x, d := eb.Var("x", 32), eb.Var("d", 32)
	cs := []*expr.Expr{
		eb.Ult(x, eb.Const(1<<20, 32)),
		eb.Ult(eb.Const(1, 32), d),
		eb.Eq(eb.UDiv(x, d), eb.Const(4242, 32)),
		eb.Eq(eb.URem(x, d), eb.Const(3, 32)),
	}
	s := New(eb, DefaultOptions())
	defer s.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _, err := s.Solve(cs); r != ResultSat || err != nil {
			b.Fatalf("%v (err %v)", r, err)
		}
	}
}

// BenchmarkSolvePrefix solves a 20-query concretization chain over a
// store chain on one Solver, as a symex engine does: every query after
// the first begins with the last one's constraints.
func BenchmarkSolvePrefix(b *testing.B) {
	eb := expr.NewBuilder()
	queries := concretizationChain(b, eb, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(eb, Options{})
		for _, q := range queries {
			if r, _, err := s.Solve(q); r != ResultSat || err != nil {
				b.Fatalf("%v (err %v)", r, err)
			}
		}
		s.Release()
	}
}
