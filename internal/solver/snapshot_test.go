package solver

import (
	"fmt"
	"slices"
	"testing"

	"execrecon/internal/expr"
)

// concretizationChain grows a path constraint the way symex's
// concretize does and returns the n queries it asks. Each step bounds a
// fresh index, reads a store chain over a free array there, branches on
// a remainder by the value read, and asks for a model; the index and
// the quotient are then bound to their model values with
// x == model(x), and the quotient is stored back at the next index, so
// the write chain, the Ackermann reads and the dividers all grow with
// the chain.
func concretizationChain(tb testing.TB, b *expr.Builder, n int) [][]*expr.Expr {
	tb.Helper()
	s := New(b, DefaultOptions())
	defer s.Release()
	mem := b.ArrayVar("mem", 8, 8)
	var pc []*expr.Expr
	var queries [][]*expr.Expr
	for i := 0; i < n; i++ {
		k := b.Var(fmt.Sprintf("k%d", i), 8)
		x := b.Var(fmt.Sprintf("x%d", i), 8)
		d := b.Select(mem, k)
		pc = append(pc,
			b.Ult(k, b.Const(8, 8)),
			b.Eq(b.URem(x, d), b.Const(uint64(i%3), 8)))
		q := slices.Clone(pc)
		queries = append(queries, q)
		r, m, err := s.Solve(q)
		if r != ResultSat || err != nil {
			tb.Fatalf("query %d: %v (err %v)", i, r, err)
		}
		quo := b.UDiv(x, d)
		pc = append(pc,
			b.Eq(k, b.Const(m.MustEval(k), 8)),
			b.Eq(quo, b.Const(m.MustEval(quo), 8)))
		mem = b.Store(mem, b.Add(k, b.Const(1, 8)), quo)
	}
	return queries
}

// stallStage names the stage in which the last solve on s ran out of
// budget, or "" when it did not.
func stallStage(s *Solver, r Result) string {
	switch {
	case r != ResultUnknown:
		return ""
	case s.bl.err == nil:
		return "cdcl"
	case s.bl.s != s.snap:
		return "lemmas"
	case s.reused:
		return "suffix"
	}
	return "prefix"
}

// TestSnapshotMatchesCold checks that a query which starts from the
// snapshot of the previous query's blasted constraints solves exactly
// as a fresh solve does: same verdict, model, steps, SAT counts and
// search counters. Each query of a concretization chain is solved on a
// Solver primed with the previous query, under budgets that run out
// before the snapshot's steps can be paid, inside the new suffix,
// inside the Ackermann lemmas and inside CDCL. A prefix that fails at
// level 0 and a query that leaves the snapshot's prefix are checked
// too.
func TestSnapshotMatchesCold(t *testing.T) {
	b := expr.NewBuilder()
	queries := concretizationChain(t, b, 6)

	check := func(name string, s *Solver, maxSteps int64, cs []*expr.Expr) Result {
		t.Helper()
		s.opts.MaxSteps = maxSteps
		r, m, err := s.Solve(cs)
		cr, cm, cst, cerr := coldSolve(b, maxSteps, cs)
		if err != nil || cerr != nil {
			t.Fatalf("%s: %v / cold %v", name, err, cerr)
		}
		if diff := sameSearch(s.LastStats(), cst, r, cr, m, cm); diff != "" {
			t.Errorf("%s: snapshot solve differs: %s", name, diff)
		}
		return r
	}

	// One Solver through the whole chain: every query after the first
	// extends the last one's snapshot.
	chain := New(b, DefaultOptions())
	for i, q := range queries {
		check(fmt.Sprintf("chain %d", i), chain, 0, q)
		if chain.reused != (i > 0) {
			t.Errorf("chain %d: reused %v", i, chain.reused)
		}
	}
	chain.Release()

	stages := map[string]int{}
	for i := 1; i < len(queries); i++ {
		prev, q := queries[i-1], queries[i]
		// Step boundaries: array elimination, the previous query's
		// blasted prefix, this query's rewritten constraints, and the
		// whole solve.
		elim := newArrayElim(b, &Budget{})
		if _, err := elim.run(q, nil); err != nil {
			t.Fatal(err)
		}
		ae := elim.budget.Used()
		full := New(b, DefaultOptions())
		full.Solve(q)
		total, blasted := full.LastStats().Steps, full.prefixSteps
		full.Release()
		primer := New(b, DefaultOptions())
		primer.Solve(prev)
		paid := primer.prefixSteps
		primer.Release()

		budgets := []int64{ae + paid - 1, ae + paid, ae + paid + 1, ae + blasted + 1, total - 1, total}
		for j := int64(1); j < 4; j++ {
			budgets = append(budgets, ae+(total-ae)*j/4)
		}
		for _, maxSteps := range budgets {
			s := New(b, DefaultOptions())
			s.Solve(prev)
			r := check(fmt.Sprintf("query %d, %d steps", i, maxSteps), s, maxSteps, q)
			stages[stallStage(s, r)]++
			s.Release()
		}
	}
	for _, st := range []string{"prefix", "suffix", "lemmas", "cdcl", ""} {
		if stages[st] == 0 {
			t.Errorf("no budget ran out in stage %q: %v", st, stages)
		}
	}

	// A prefix that fails at level 0 is reused as it is, and the
	// extended query is unsat.
	v, y := b.Var("v", 8), b.Var("y", 8)
	failed := []*expr.Expr{b.Eq(v, b.Const(3, 8)), b.Eq(v, b.Const(4, 8))}
	s := New(b, DefaultOptions())
	defer s.Release()
	if r := check("level-0 unsat prefix", s, 0, failed); r != ResultUnsat || !s.snap.failed {
		t.Fatalf("level-0 unsat prefix: %v, failed %v", r, s.snap.failed)
	}
	if r := check("level-0 unsat extended", s, 0, append(slices.Clone(failed), b.Ult(y, b.Const(9, 8)))); r != ResultUnsat || !s.reused {
		t.Fatalf("level-0 unsat extended: %v, reused %v", r, s.reused)
	}

	// A query that leaves the snapshot's prefix blasts from scratch,
	// and so does the next query, whose prefix the snapshot no longer
	// holds.
	last := queries[len(queries)-1]
	check("chain end", s, 0, last)
	check("left prefix", s, 0, last[1:])
	if s.reused {
		t.Error("left prefix: reused a snapshot that is not its prefix")
	}
	check("back to chain", s, 0, last)
	if s.reused {
		t.Error("back to chain: reused a snapshot that is not its prefix")
	}
}

// TestCopyFromIsExact copies a snapshot into a fresh workspace and
// into one that a larger search left behind. Each copy must equal the
// snapshot in every field a search reads, and watch lists past the
// copied length must be empty for newVar to reuse.
func TestCopyFromIsExact(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b, DefaultOptions())
	defer s.Release()
	if r, _, err := s.Solve(concretizationChain(t, b, 3)[2]); r != ResultSat || err != nil {
		t.Fatalf("chain: %v (err %v)", r, err)
	}
	src := s.snap
	if src.propagations == 0 || len(src.trail) == 0 {
		t.Fatal("the snapshot holds no level-0 propagation")
	}
	dirty := new(sat)
	if r, _, err := New(b, DefaultOptions()).solve(pigeonholeQuery(b, 7), dirty); r != ResultUnsat || err != nil {
		t.Fatalf("pigeonhole: %v (err %v)", r, err)
	}
	for name, dst := range map[string]*sat{"fresh": new(sat), "dirty": dirty} {
		dst.copyFrom(src)
		diff := databaseDiff(dst, src)
		switch {
		case diff != "":
		case !slices.Equal(dst.level, src.level) || !slices.Equal(dst.reason, src.reason) ||
			!slices.Equal(dst.trailLim, src.trailLim) || dst.qhead != src.qhead:
			diff = "level-0 trail"
		case !slices.Equal(dst.activity, src.activity) || !slices.Equal(dst.polarity, src.polarity) ||
			dst.varInc != src.varInc || !slices.Equal(dst.heap, src.heap) || !slices.Equal(dst.heapPos, src.heapPos):
			diff = "branching order"
		case !slices.Equal(dst.learnts, src.learnts) || !slices.Equal(dst.seen, src.seen):
			diff = "learnt clauses"
		case dst.propagations != src.propagations || dst.conflicts != src.conflicts || dst.decisions != src.decisions:
			diff = "counters"
		case dst.budget != src.budget:
			diff = "budget"
		}
		if diff != "" {
			t.Errorf("%s: copy differs in %s", name, diff)
		}
		for l, w := range dst.watches[len(dst.watches):cap(dst.watches)] {
			if len(w) != 0 {
				t.Errorf("%s: watch list %d past the copy holds %d clauses", name, len(dst.watches)+l, len(w))
			}
		}
	}
}
