package solver

import (
	"math/rand"
	"testing"

	"execrecon/internal/expr"
)

// genSystem builds a random constraint system over three 12-bit
// variables. With a witness it is satisfiable by construction; the
// unsat variants additionally pin a variable to two different values.
func genSystem(rng *rand.Rand, unsat bool) (*expr.Builder, []*expr.Expr) {
	b := expr.NewBuilder()
	const w = 12
	vars := []*expr.Expr{b.Var("a", w), b.Var("b", w), b.Var("c", w)}
	witness := expr.NewAssignment()
	for _, v := range vars {
		witness.Vars[v.Name] = uint64(rng.Intn(1 << w))
	}
	var gen func(depth int) *expr.Expr
	gen = func(depth int) *expr.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			return b.Const(uint64(rng.Intn(1<<w)), w)
		}
		x, y := gen(depth-1), gen(depth-1)
		switch rng.Intn(8) {
		case 0:
			return b.Add(x, y)
		case 1:
			return b.Sub(x, y)
		case 2:
			return b.And(x, y)
		case 3:
			return b.Or(x, y)
		case 4:
			return b.Xor(x, y)
		case 5:
			return b.Mul(x, b.Const(uint64(rng.Intn(8)), w))
		case 6:
			return b.Ite(b.Ult(x, y), x, y)
		default:
			return b.Not(x)
		}
	}
	var cs []*expr.Expr
	for k := 0; k < 4; k++ {
		e := gen(3)
		cs = append(cs, b.Eq(e, b.Const(witness.MustEval(e), w)))
	}
	if unsat {
		v := vars[rng.Intn(len(vars))]
		pin := witness.Vars[v.Name]
		cs = append(cs,
			b.Eq(v, b.Const(pin, w)),
			b.Eq(v, b.Const(pin^1, w)))
	}
	return b, cs
}

// TestSolveGeneratedSystems decides randomized systems whose verdict
// is known by construction with both the one-shot solver and a fresh
// incremental session: verdicts must match the construction and each
// other, and every model must satisfy the constraints.
func TestSolveGeneratedSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 36; trial++ {
		unsat := trial%3 == 2
		b, cs := genSystem(rng, unsat)
		want := ResultSat
		if unsat {
			want = ResultUnsat
		}
		for name, s := range map[string]Backend{
			"one-shot":    New(b, DefaultOptions()),
			"incremental": NewIncremental(DefaultOptions()),
		} {
			res, model, err := s.Solve(cs)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if res != want {
				t.Fatalf("trial %d: %s decided %v, want %v by construction", trial, name, res, want)
			}
			if res == ResultSat {
				if ok, err := model.Satisfies(cs); err != nil || !ok {
					t.Fatalf("trial %d: %s model invalid (err %v)", trial, name, err)
				}
			}
		}
	}
}

// TestIncrementalGrowingQueries drives an incremental session and the
// one-shot solver through the same growing query sequence (the shape
// of ER's reconstruction queries: mostly extend, occasionally
// contradict) and checks verdict parity at every step.
func TestIncrementalGrowingQueries(t *testing.T) {
	cb := expr.NewBuilder()
	const w = 16
	x := cb.Var("x", w)
	y := cb.Var("y", w)

	inc := NewIncremental(Options{Validate: true})
	var cs []*expr.Expr
	cs = append(cs, cb.Eq(cb.Add(x, y), cb.Const(500, w)))
	for step := 0; step < 12; step++ {
		query := cs
		if step%4 == 3 {
			// A contradicting side constraint (not retained):
			// x < 100 ∧ x > 60000 on top of the base system.
			query = append(append([]*expr.Expr{}, cs...),
				cb.Ult(x, cb.Const(100, w)),
				cb.Ult(cb.Const(60000, w), x))
		} else {
			cs = append(cs, cb.Ult(x, cb.Const(uint64(400-step*20), w)))
			query = cs
		}
		fres, fmodel, err := New(cb, DefaultOptions()).Solve(query)
		if err != nil {
			t.Fatalf("step %d: one-shot: %v", step, err)
		}
		ires, imodel, err := inc.Solve(query)
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		if ires != fres {
			t.Fatalf("step %d: verdict diverged: one-shot %v, incremental %v", step, fres, ires)
		}
		if fres == ResultSat {
			for name, m := range map[string]*expr.Assignment{"one-shot": fmodel, "incremental": imodel} {
				if ok, err := m.Satisfies(query); err != nil || !ok {
					t.Fatalf("step %d: %s model invalid (err %v)", step, name, err)
				}
			}
		}
	}
	if st := inc.Stats(); st.Sat == 0 || st.Unsat == 0 {
		t.Errorf("sequence did not exercise both verdicts: %+v", st)
	}
}

// TestSolveDeterministic pins the single CDCL search: solving the same
// system twice, on fresh solvers over fresh builders, takes identical
// search paths and returns identical models.
func TestSolveDeterministic(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		var stats [2]Stats
		var models [2]*expr.Assignment
		for i := range stats {
			b, cs := genSystem(rand.New(rand.NewSource(100+trial)), false)
			s := New(b, DefaultOptions())
			res, m, err := s.Solve(cs)
			if err != nil || res != ResultSat {
				t.Fatalf("trial %d: %v (err %v)", trial, res, err)
			}
			stats[i], models[i] = s.LastStats(), m
		}
		a, b := stats[0], stats[1]
		if a.Steps != b.Steps || a.SATVars != b.SATVars || a.SATClauses != b.SATClauses ||
			a.Propagations != b.Propagations || a.Conflicts != b.Conflicts || a.Decisions != b.Decisions {
			t.Fatalf("trial %d: search differs between identical solves: %+v vs %+v", trial, a, b)
		}
		for name, v := range models[0].Vars {
			if models[1].Vars[name] != v {
				t.Fatalf("trial %d: model differs at %s: %d vs %d", trial, name, v, models[1].Vars[name])
			}
		}
	}
}
