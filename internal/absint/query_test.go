package absint_test

import (
	"math/rand"
	"testing"

	"execrecon/internal/absint"
	"execrecon/internal/expr"
)

func TestQueryUnsatByInterval(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	cs := []*expr.Expr{
		b.Ult(x, b.Const(5, 32)),  // x < 5
		b.Ult(b.Const(10, 32), x), // x > 10
	}
	res := absint.AnalyzeQuery(cs, absint.QueryOptions{})
	if res.Verdict != absint.VerdictUnsat {
		t.Fatalf("want unsat, got %v (vars %v)", res.Verdict, res.Vars)
	}
}

func TestQueryUnsatByBits(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	// x & 1 == 0 and x == 7 cannot both hold.
	cs := []*expr.Expr{
		b.Eq(b.And(x, b.Const(1, 32)), b.Const(0, 32)),
		b.Eq(x, b.Const(7, 32)),
	}
	res := absint.AnalyzeQuery(cs, absint.QueryOptions{})
	if res.Verdict != absint.VerdictUnsat {
		t.Fatalf("want unsat, got %v", res.Verdict)
	}
}

func TestQuerySatModel(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	cs := []*expr.Expr{
		b.Eq(x, b.Const(3, 32)),
		b.Ule(y, b.Const(100, 32)),
		b.Ult(b.Const(10, 32), y),
	}
	res := absint.AnalyzeQuery(cs, absint.QueryOptions{WantModel: true})
	if res.Verdict != absint.VerdictSat {
		t.Fatalf("want sat, got %v (vars %v)", res.Verdict, res.Vars)
	}
	if ok, err := res.Model.Satisfies(cs); err != nil || !ok {
		t.Fatalf("model does not satisfy: ok=%v err=%v", ok, err)
	}
}

func TestQueryRefinedVars(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	cs := []*expr.Expr{
		b.Ule(x, b.Const(41, 32)),
		b.Ule(b.Const(12, 32), x),
	}
	res := absint.AnalyzeQuery(cs, absint.QueryOptions{})
	if res.Verdict != absint.VerdictUnknown {
		t.Fatalf("want unknown, got %v", res.Verdict)
	}
	v, ok := res.Vars["x"]
	if !ok {
		t.Fatalf("no refined fact for x")
	}
	if v.Lo != 12 || v.Hi != 41 {
		t.Fatalf("refined x = %v, want [12,41]", v)
	}
}

// TestQueryRandomSoundness drives random constraint sets and checks
// the two discharge directions: a concretely satisfiable set is never
// declared Unsat, and a Sat verdict always carries a valid model.
func TestQueryRandomSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 3000; iter++ {
		b := expr.NewBuilder()
		nv := 1 + r.Intn(3)
		vars := make([]*expr.Expr, nv)
		conc := expr.NewAssignment()
		w := uint(8 << r.Intn(3)) // 8, 16, 32
		for i := range vars {
			name := string(rune('a' + i))
			vars[i] = b.Var(name, w)
			conc.Vars[name] = r.Uint64() & (1<<w - 1)
		}
		randTerm := func() *expr.Expr {
			v := vars[r.Intn(nv)]
			switch r.Intn(5) {
			case 0:
				return v
			case 1:
				return b.Add(v, b.Const(r.Uint64()&0xFF, w))
			case 2:
				return b.And(v, b.Const(r.Uint64()&(1<<w-1), w))
			case 3:
				return b.UDiv(v, b.Const(r.Uint64()&0xF, w))
			default:
				return b.Mul(v, b.Const(r.Uint64()&0xF, w))
			}
		}
		var cs []*expr.Expr
		for i := 0; i < 1+r.Intn(4); i++ {
			l, rt := randTerm(), randTerm()
			var c *expr.Expr
			switch r.Intn(4) {
			case 0:
				c = b.Eq(l, rt)
			case 1:
				c = b.Ult(l, rt)
			case 2:
				c = b.Ule(l, rt)
			default:
				c = b.Not(b.Eq(l, rt))
			}
			cs = append(cs, c)
		}
		sat, err := conc.Satisfies(cs)
		if err != nil {
			t.Fatalf("concrete eval: %v", err)
		}
		res := absint.AnalyzeQuery(cs, absint.QueryOptions{WantModel: true})
		if sat && res.Verdict == absint.VerdictUnsat {
			t.Fatalf("iter %d: unsat verdict but %v satisfies %v", iter, conc.Vars, cs)
		}
		if res.Verdict == absint.VerdictSat {
			if ok, err := res.Model.Satisfies(cs); err != nil || !ok {
				t.Fatalf("iter %d: sat verdict with invalid model (ok=%v err=%v)", iter, ok, err)
			}
		}
		// Refined facts must contain every satisfying assignment.
		if sat && res.Verdict != absint.VerdictSat {
			for name, v := range res.Vars {
				if cv, okc := conc.Vars[name]; okc && !v.Contains(cv) {
					t.Fatalf("iter %d: refined %s=%v excludes satisfying value %d", iter, name, v, cv)
				}
			}
		}
	}
}
