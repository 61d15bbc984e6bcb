package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"execrecon/internal/expr"
)

// genAbsintQuery builds a random constraint set over b that mixes the
// shapes the abstract pre-discharge pass understands (interval
// comparisons, masks, zero extensions) with shapes it must pass
// through (multiplication, array selects). Half the trials embed a
// hidden witness so satisfiable and unsatisfiable sets both occur.
func genAbsintQuery(b *expr.Builder, rng *rand.Rand) []*expr.Expr {
	const w = 16
	vars := []*expr.Expr{b.Var("a", w), b.Var("b", w), b.Var("c", 8)}
	witness := expr.NewAssignment()
	for _, v := range vars {
		witness.Vars[v.Name] = expr.Truncate(rng.Uint64(), v.Width)
	}
	term := func() *expr.Expr {
		v := vars[rng.Intn(2)]
		switch rng.Intn(6) {
		case 0:
			return v
		case 1:
			return b.Add(v, b.Const(uint64(rng.Intn(256)), w))
		case 2:
			return b.And(v, b.Const(expr.Truncate(rng.Uint64(), w), w))
		case 3:
			return b.ZExt(vars[2], w)
		case 4:
			return b.Mul(v, b.Const(uint64(rng.Intn(7)), w))
		default:
			return b.LShr(v, b.Const(uint64(rng.Intn(20)), w))
		}
	}
	pinned := rng.Intn(2) == 0
	var cs []*expr.Expr
	for k := 0; k < 2+rng.Intn(3); k++ {
		l := term()
		var r *expr.Expr
		if pinned {
			// Right side evaluated under the witness: the set stays
			// satisfiable for Eq/Ule goals, forcing absint to either
			// agree on Sat or stay Unknown — never Unsat.
			r = b.Const(witness.MustEval(l), w)
		} else {
			r = b.Const(uint64(rng.Intn(1<<w)), w)
		}
		switch rng.Intn(3) {
		case 0:
			cs = append(cs, b.Eq(l, r))
		case 1:
			cs = append(cs, b.Ule(l, r))
		default:
			cs = append(cs, b.Ult(r, b.Add(l, b.Const(1, w))))
		}
	}
	if rng.Intn(3) == 0 {
		// An array read keeps the elimination + Ackermann path live
		// under the abstract pass.
		arr := b.ConstArray(b.Const(0, 8), 32)
		arr = b.Store(arr, b.Const(uint64(rng.Intn(16)), 32), vars[2])
		sel := b.Select(arr, b.ZExt(b.And(vars[2], b.Const(0xF, 8)), 32))
		cs = append(cs, b.Ule(b.ZExt(sel, w), b.Const(uint64(200+rng.Intn(56)), w)))
	}
	return cs
}

// TestAbsintDifferentialOneShot races the solver with the
// abstract pre-discharge pass on against the plain solver on the same
// random queries: verdicts must agree exactly, and at least some
// queries must actually discharge (otherwise the pass is dead code).
func TestAbsintDifferentialOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	discharged, narrowed := 0, 0
	for trial := 0; trial < 300; trial++ {
		b := expr.NewBuilder()
		cs := genAbsintQuery(b, rng)
		plain := New(b, DefaultOptions())
		pres, _, perr := plain.Solve(cs)
		on := New(b, Options{Validate: true, Absint: true})
		ares, amodel, aerr := on.Solve(cs)
		if perr != nil || aerr != nil {
			t.Fatalf("trial %d: errors plain=%v absint=%v", trial, perr, aerr)
		}
		if pres != ares {
			t.Fatalf("trial %d: verdict mismatch plain=%v absint=%v on %v", trial, pres, ares, cs)
		}
		if ares == ResultSat {
			if ok, err := amodel.Satisfies(cs); err != nil || !ok {
				t.Fatalf("trial %d: absint-path model invalid (ok=%v err=%v)", trial, ok, err)
			}
		}
		if on.LastStats().AbsintDischarged {
			discharged++
		}
		narrowed += on.LastStats().AbsintBits
	}
	if discharged == 0 {
		t.Fatalf("pre-discharge never fired across 300 random queries")
	}
	if narrowed == 0 {
		t.Fatalf("bit narrowing never pinned a variable bit across 300 random queries")
	}
}

// TestAbsintSolvesStoreChains checks absint does not disturb the
// array-heavy stall workloads the reconstruction loop leans on.
func TestAbsintSolvesStoreChains(t *testing.T) {
	b := expr.NewBuilder()
	arr := b.ConstArray(b.Const(0, 8), 32)
	for i := 0; i < 8; i++ {
		arr = b.Store(arr, b.Var(fmt.Sprintf("i%d", i), 32), b.Const(uint64(i), 8))
	}
	sel := b.Select(arr, b.Var("j", 32))
	cs := []*expr.Expr{b.Eq(sel, b.Const(5, 8))}
	s := New(b, Options{Validate: true, Absint: true})
	res, model, err := s.Solve(cs)
	if err != nil || res != ResultSat {
		t.Fatalf("store chain under absint: %v %v", res, err)
	}
	if ok, err := model.Satisfies(cs); err != nil || !ok {
		t.Fatalf("store-chain model invalid (ok=%v err=%v)", ok, err)
	}
}
