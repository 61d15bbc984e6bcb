package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"execrecon/internal/expr"
)

func solveAll(t *testing.T, b *expr.Builder, cs []*expr.Expr) (Result, *expr.Assignment) {
	t.Helper()
	s := New(b, DefaultOptions())
	res, asn, err := s.Solve(cs)
	if err != nil {
		t.Fatalf("solve error: %v", err)
	}
	return res, asn
}

func TestSatSimple(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	res, asn := solveAll(t, b, []*expr.Expr{b.Eq(b.Add(x, b.Const(1, 32)), b.Const(10, 32))})
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	if asn.Vars["x"] != 9 {
		t.Errorf("x = %d, want 9", asn.Vars["x"])
	}
}

func TestUnsatSimple(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	res, _ := solveAll(t, b, []*expr.Expr{
		b.Ult(x, b.Const(5, 16)),
		b.Ult(b.Const(10, 16), x),
	})
	if res != ResultUnsat {
		t.Fatalf("result: %v, want unsat", res)
	}
}

func TestSatConjunction(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	cs := []*expr.Expr{
		b.Eq(b.Add(x, y), b.Const(100, 32)),
		b.Ult(x, b.Const(30, 32)),
		b.Ult(b.Const(25, 32), x),
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	xv, yv := asn.Vars["x"], asn.Vars["y"]
	if xv+yv != 100 || xv >= 30 || xv <= 25 {
		t.Errorf("model x=%d y=%d does not satisfy", xv, yv)
	}
}

func TestMultiplication(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	cs := []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(77, 16)),
		b.Ult(b.Const(1, 16), x),
		b.Ult(x, y),
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	xv, yv := asn.Vars["x"], asn.Vars["y"]
	if uint16(xv)*uint16(yv) != 77 {
		t.Errorf("model x=%d y=%d: product %d", xv, yv, uint16(xv)*uint16(yv))
	}
}

func TestDivision(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	cs := []*expr.Expr{
		b.Eq(b.UDiv(x, b.Const(7, 16)), b.Const(6, 16)),
		b.Eq(b.URem(x, b.Const(7, 16)), b.Const(3, 16)),
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	if asn.Vars["x"] != 45 {
		t.Errorf("x = %d, want 45", asn.Vars["x"])
	}
}

func TestSignedComparison(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	cs := []*expr.Expr{
		b.Slt(x, b.Const(0, 8)),
		b.Sgt(x, b.Const(0xf6, 8)), // -10
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	sx := expr.SignExtendValue(asn.Vars["x"], 8)
	if sx >= 0 || sx <= -10 {
		t.Errorf("x = %d out of (-10,0)", sx)
	}
}

func TestSignedDivision(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	// x / -3 == 5 (signed): x in {-15,-16,-17}
	cs := []*expr.Expr{
		b.Eq(b.SDiv(x, b.Const(0xfd, 8)), b.Const(0xfb, 8)), // x / -3 == -5
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	sx := expr.SignExtendValue(asn.Vars["x"], 8)
	if sx/-3 != -5 {
		t.Errorf("x = %d: x/-3 = %d", sx, sx/-3)
	}
}

func TestShiftSolving(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 16)
	sh := b.Var("sh", 16)
	cs := []*expr.Expr{
		b.Eq(b.Shl(x, sh), b.Const(0x50, 16)),
		b.Eq(sh, b.Const(4, 16)),
		b.Ult(x, b.Const(16, 16)),
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	if asn.Vars["x"] != 5 {
		t.Errorf("x = %d, want 5", asn.Vars["x"])
	}
}

func TestIteSolving(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	cond := b.Ult(x, b.Const(10, 32))
	cs := []*expr.Expr{
		b.Eq(b.Ite(cond, y, b.Const(0, 32)), b.Const(55, 32)),
	}
	res, asn := solveAll(t, b, cs)
	if res != ResultSat {
		t.Fatalf("result: %v", res)
	}
	if asn.Vars["x"] >= 10 || asn.Vars["y"] != 55 {
		t.Errorf("model x=%d y=%d", asn.Vars["x"], asn.Vars["y"])
	}
}

func TestArrayStoreSelect(t *testing.T) {
	b := expr.NewBuilder()
	arr := b.ConstArray(b.Const(0, 8), 32)
	i := b.Var("i", 32)
	st := b.Store(arr, i, b.Const(1, 8))
	j := b.Var("j", 32)
	// Reading st at j yields 1 exactly when j == i; require it reads 1
	// and j != 5 while i == 5... unsat. And a sat variant.
	csUnsat := []*expr.Expr{
		b.Eq(b.Select(st, j), b.Const(1, 8)),
		b.Eq(i, b.Const(5, 32)),
		b.Ne(j, b.Const(5, 32)),
	}
	res, _ := solveAll(t, b, csUnsat)
	if res != ResultUnsat {
		t.Fatalf("unsat case: got %v", res)
	}
	csSat := []*expr.Expr{
		b.Eq(b.Select(st, j), b.Const(1, 8)),
		b.Eq(i, b.Const(5, 32)),
	}
	res, asn := solveAll(t, b, csSat)
	if res != ResultSat {
		t.Fatalf("sat case: got %v", res)
	}
	if asn.Vars["j"] != 5 {
		t.Errorf("j = %d, want 5", asn.Vars["j"])
	}
}

func TestFreeArrayAckermann(t *testing.T) {
	b := expr.NewBuilder()
	arr := b.ArrayVar("A", 32, 8)
	i := b.Var("i", 32)
	j := b.Var("j", 32)
	cs := []*expr.Expr{
		b.Eq(i, j),
		b.Ne(b.Select(arr, i), b.Select(arr, j)),
	}
	res, _ := solveAll(t, b, cs)
	if res != ResultUnsat {
		t.Fatalf("functional consistency violated: %v", res)
	}
	cs2 := []*expr.Expr{
		b.Eq(b.Select(arr, i), b.Const(3, 8)),
		b.Eq(b.Select(arr, j), b.Const(4, 8)),
	}
	res, asn := solveAll(t, b, cs2)
	if res != ResultSat {
		t.Fatalf("distinct reads: %v", res)
	}
	if asn.Vars["i"] == asn.Vars["j"] {
		t.Errorf("i and j must differ, both %d", asn.Vars["i"])
	}
	av := asn.Arrays["A"]
	if av == nil || av.Get(asn.Vars["i"]) != 3 || av.Get(asn.Vars["j"]) != 4 {
		t.Errorf("array model wrong: %+v", av)
	}
}

// TestPaperRunningExample encodes Fig. 3 of the paper: V[V[x]] = x and
// if (V[V[d]] == x) with the control-flow constraints, checking that a
// model reproduces the abort path (which requires x == d).
func TestPaperRunningExample(t *testing.T) {
	b := expr.NewBuilder()
	la := b.Var("a", 32)
	lb := b.Var("b", 32)
	lc := b.Var("c", 32)
	ld := b.Var("d", 32)
	x := b.Add(la, lb)
	V0 := b.ConstArray(b.Const(0, 32), 32)

	var pc []*expr.Expr
	// Line 4 taken: x < 256 && c < 256 && d < 256.
	pc = append(pc, b.Ult(x, b.Const(256, 32)), b.Ult(lc, b.Const(256, 32)), b.Ult(ld, b.Const(256, 32)))
	// Line 5: V[x] = 1.
	V1 := b.Store(V0, x, b.Const(1, 32))
	// Line 6 taken: V[c] == 0, then line 7: V[c] = 512.
	pc = append(pc, b.Eq(b.Select(V1, lc), b.Const(0, 32)))
	V2 := b.Store(V1, lc, b.Const(512, 32))
	// Line 8: V[V[x]] = x.
	vx := b.Select(V2, x)
	V3 := b.Store(V2, vx, x)
	// Line 9 taken: c < d.
	pc = append(pc, b.Ult(lc, ld))
	// Line 10 taken: V[V[d]] == x  -> abort.
	vd := b.Select(V3, ld)
	pc = append(pc, b.Eq(b.Select(V3, vd), x))

	res, asn := solveAll(t, b, pc)
	if res != ResultSat {
		t.Fatalf("paper example should be satisfiable: %v", res)
	}
	// Verify the model reaches the abort by direct evaluation.
	ok, err := asn.Satisfies(pc)
	if err != nil || !ok {
		t.Fatalf("model check: ok=%v err=%v", ok, err)
	}
	xv := asn.Vars["a"] + asn.Vars["b"]
	t.Logf("model: a=%d b=%d c=%d d=%d (x=%d)", asn.Vars["a"], asn.Vars["b"], asn.Vars["c"], asn.Vars["d"], xv&0xffffffff)
}

func TestBudgetTimeout(t *testing.T) {
	b := expr.NewBuilder()
	// A long symbolic write chain with interdependent indices: the
	// classic stall pattern. With a tiny budget the solver must
	// report unknown rather than spin.
	arr := b.ConstArray(b.Const(0, 32), 32)
	cur := arr
	for k := 0; k < 40; k++ {
		ik := b.Var(fmt.Sprintf("i%d", k), 32)
		v := b.Select(cur, ik)
		cur = b.Store(cur, b.Add(ik, v), b.Add(v, b.Const(1, 32)))
	}
	final := b.Select(cur, b.Var("j", 32))
	cs := []*expr.Expr{b.Eq(final, b.Const(7, 32))}
	s := New(b, Options{MaxSteps: 500})
	res, _, err := s.Solve(cs)
	if err != nil {
		t.Fatalf("error: %v", err)
	}
	if res != ResultUnknown {
		t.Fatalf("tiny budget: got %v, want unknown", res)
	}
	if s.LastStats().Steps == 0 {
		t.Error("steps not recorded")
	}
}

func TestMayMustBeTrue(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	pc := []*expr.Expr{b.Ult(x, b.Const(10, 32))}
	s := New(b, DefaultOptions())
	may, err := s.MayBeTrue(pc, b.Eq(x, b.Const(5, 32)))
	if err != nil || !may {
		t.Errorf("x==5 should be possible: may=%v err=%v", may, err)
	}
	may, err = s.MayBeTrue(pc, b.Eq(x, b.Const(50, 32)))
	if err != nil || may {
		t.Errorf("x==50 should be impossible: may=%v err=%v", may, err)
	}
	must, err := s.MustBeTrue(pc, b.Ult(x, b.Const(11, 32)))
	if err != nil || !must {
		t.Errorf("x<11 should be implied: must=%v err=%v", must, err)
	}
	must, err = s.MustBeTrue(pc, b.Ult(x, b.Const(5, 32)))
	if err != nil || must {
		t.Errorf("x<5 should not be implied: must=%v err=%v", must, err)
	}
}

// TestRandomizedModels generates random constraint systems that are
// satisfiable by construction (built from a hidden witness) and checks
// that the solver finds some model satisfying them.
func TestRandomizedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		b := expr.NewBuilder()
		nv := 2 + rng.Intn(3)
		vars := make([]*expr.Expr, nv)
		witness := expr.NewAssignment()
		for i := range vars {
			name := string(rune('p' + i))
			vars[i] = b.Var(name, 16)
			witness.Vars[name] = uint64(rng.Intn(1 << 16))
		}
		// Build random terms and constrain them to their witness
		// values.
		var cs []*expr.Expr
		term := func() *expr.Expr {
			a := vars[rng.Intn(nv)]
			c := vars[rng.Intn(nv)]
			switch rng.Intn(6) {
			case 0:
				return b.Add(a, c)
			case 1:
				return b.Sub(a, c)
			case 2:
				return b.And(a, c)
			case 3:
				return b.Or(a, c)
			case 4:
				return b.Xor(a, c)
			default:
				return b.Mul(a, b.Const(uint64(rng.Intn(7)+1), 16))
			}
		}
		for k := 0; k < 4; k++ {
			e := term()
			cs = append(cs, b.Eq(e, b.Const(witness.MustEval(e), 16)))
		}
		res, asn := solveAll(t, b, cs)
		if res != ResultSat {
			t.Fatalf("trial %d: unsat/unknown on satisfiable system", trial)
		}
		ok, err := asn.Satisfies(cs)
		if err != nil || !ok {
			t.Fatalf("trial %d: model invalid: %v", trial, err)
		}
	}
}

// TestRandomizedUnsat pairs each constraint with its negation.
func TestRandomizedUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b := expr.NewBuilder()
		x := b.Var("x", 16)
		y := b.Var("y", 16)
		var e *expr.Expr
		switch rng.Intn(4) {
		case 0:
			e = b.Eq(b.Add(x, y), b.Const(uint64(rng.Intn(100)), 16))
		case 1:
			e = b.Ult(b.Xor(x, y), b.Const(uint64(rng.Intn(100)+1), 16))
		case 2:
			e = b.Eq(b.Mul(x, b.Const(3, 16)), y)
		default:
			e = b.Sle(x, y)
		}
		res, _ := solveAll(t, b, []*expr.Expr{e, b.BoolNot(e)})
		if res != ResultUnsat {
			t.Fatalf("trial %d: e ∧ ¬e must be unsat, got %v", trial, res)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 32)
	s := New(b, DefaultOptions())
	res, _, err := s.Solve([]*expr.Expr{b.Eq(b.Mul(x, x), b.Const(1369, 32)), b.Ult(x, b.Const(256, 32))})
	if err != nil || res != ResultSat {
		t.Fatalf("res=%v err=%v", res, err)
	}
	st := s.LastStats()
	if st.SATVars == 0 || st.SATClauses == 0 || st.Elapsed == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	b := expr.NewBuilder()
	res, asn := solveAll(t, b, nil)
	if res != ResultSat || asn == nil {
		t.Error("empty constraints should be trivially sat")
	}
	res, _ = solveAll(t, b, []*expr.Expr{b.True(), b.True()})
	if res != ResultSat {
		t.Error("all-true should be sat")
	}
	res, _ = solveAll(t, b, []*expr.Expr{b.False()})
	if res != ResultUnsat {
		t.Error("false should be unsat")
	}
}

// TestStageTimesWithinElapsed checks the per-stage split of a query's
// wall time: the stages run inside the solve, so they sum to at most
// Elapsed; a blasted query reports blasting time; Absint stays zero
// with the pass off.
func TestStageTimesWithinElapsed(t *testing.T) {
	for _, absint := range []bool{false, true} {
		b := expr.NewBuilder()
		x, d := b.Var("x", 32), b.Var("d", 32)
		cs := []*expr.Expr{
			b.Ult(b.Const(1, 32), d),
			b.Eq(b.UDiv(x, d), b.Const(77, 32)),
			b.Eq(b.URem(x, d), b.Const(1, 32)),
		}
		opts := DefaultOptions()
		opts.Absint = absint
		s := New(b, opts)
		if r, _, err := s.Solve(cs); r != ResultSat || err != nil {
			t.Fatalf("absint=%v: %v (err %v)", absint, r, err)
		}
		st := s.LastStats()
		if sum := st.Absint + st.ArrayElim + st.Blast + st.CDCL; sum > st.Elapsed {
			t.Errorf("absint=%v: stages sum to %v, above Elapsed %v (%+v)", absint, sum, st.Elapsed, st)
		}
		if st.Blast <= 0 || st.SATClauses == 0 {
			t.Errorf("absint=%v: blasted query reports Blast %v over %d clauses", absint, st.Blast, st.SATClauses)
		}
		if !absint && st.Absint != 0 {
			t.Errorf("Absint %v with the pass off", st.Absint)
		}
	}
}
