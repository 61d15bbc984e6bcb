package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"execrecon/internal/expr"
)

// blastDatabase blasts cs, in order, into a fresh SAT core and returns
// it. viaAddClause sends every gate clause through addClause.
func blastDatabase(t *testing.T, cs []*expr.Expr, viaAddClause bool) *sat {
	t.Helper()
	s := new(sat)
	s.reset(&Budget{})
	bl := newBlaster(s, s.budget)
	bl.viaAddClause = viaAddClause
	for _, c := range cs {
		bl.assert(c)
		if bl.err != nil {
			t.Fatalf("blast %s: %v", c, bl.err)
		}
	}
	return s
}

// databaseDiff reports how two clause databases differ, or "" when the
// arena, the clause headers, every watch list and the level-0 state
// agree.
func databaseDiff(got, want *sat) string {
	switch {
	case !slices.Equal(got.arena, want.arena):
		return "arena"
	case !slices.Equal(got.clauses, want.clauses):
		return "clause headers"
	case got.problems != want.problems:
		return fmt.Sprintf("problems %d, want %d", got.problems, want.problems)
	case got.numVars != want.numVars:
		return fmt.Sprintf("numVars %d, want %d", got.numVars, want.numVars)
	case len(got.watches) != len(want.watches):
		return fmt.Sprintf("%d watch lists, want %d", len(got.watches), len(want.watches))
	case !slices.Equal(got.trail, want.trail) || !slices.Equal(got.vals, want.vals):
		return "level-0 assignment"
	case got.failed != want.failed:
		return fmt.Sprintf("failed %v, want %v", got.failed, want.failed)
	}
	for l := range got.watches {
		if !slices.Equal(got.watches[l], want.watches[l]) {
			return fmt.Sprintf("watch list of literal %d", l)
		}
	}
	return ""
}

// TestGateClausesMatchAddClause checks gateClause's shortcut: random
// expressions are blasted with some input bits fixed by level-0 unit
// clauses, asserted in random order among the expressions, so gates
// see assigned and unassigned inputs alike. The clause database must
// equal the one built when every gate clause goes through addClause.
func TestGateClausesMatchAddClause(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	propagated := 0
	for trial := 0; trial < 40; trial++ {
		b := expr.NewBuilder()
		const w = 8
		vars := []*expr.Expr{b.Var("a", w), b.Var("b", w), b.Var("c", w)}
		var gen func(depth int) *expr.Expr
		gen = func(depth int) *expr.Expr {
			if depth == 0 || rng.Intn(4) == 0 {
				if rng.Intn(3) == 0 {
					return b.Const(uint64(rng.Intn(1<<w)), w)
				}
				return vars[rng.Intn(len(vars))]
			}
			x, y := gen(depth-1), gen(depth-1)
			switch rng.Intn(9) {
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
				return b.Mul(x, y)
			case 6:
				return b.Ite(b.Ult(x, y), x, y)
			case 7:
				return b.UDiv(x, y)
			default:
				return b.Shl(x, y)
			}
		}
		var cs []*expr.Expr
		pins := 0
		for _, v := range vars {
			for i := uint(0); i < w; i++ {
				if rng.Intn(3) == 0 {
					pins++
					cs = append(cs, b.Eq(b.Extract(v, i, 1), b.Const(uint64(rng.Intn(2)), 1)))
				}
			}
		}
		for k := 0; k < 3; k++ {
			cs = append(cs, b.Ult(gen(3), gen(3)))
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })

		fast := blastDatabase(t, cs, false)
		slow := blastDatabase(t, cs, true)
		if diff := databaseDiff(fast, slow); diff != "" {
			t.Fatalf("trial %d: the gate shortcut changed the %s", trial, diff)
		}
		// The true literal and the pins account for pins+1 level-0
		// assignments; more means gate clauses over pinned inputs
		// propagated.
		if len(fast.trail) > pins+1 {
			propagated++
		}
	}
	if propagated < 10 {
		t.Fatalf("only %d of 40 trials propagated a pinned input through a gate", propagated)
	}
}
