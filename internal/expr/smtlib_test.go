package expr

import (
	"strings"
	"testing"
)

func TestSMTLIBExport(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	arr := b.ArrayVar("A", 32, 8)
	shared := b.Add(x, y)
	cs := []*Expr{
		b.Ult(shared, b.Const(100, 32)),
		b.Eq(b.Mul(shared, b.Const(2, 32)), b.Const(60, 32)),
		b.Eq(b.Select(b.Store(arr, x, b.Const(7, 8)), y), b.Const(7, 8)),
	}
	var sb strings.Builder
	if err := WriteSMTLIB(&sb, cs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"(set-logic QF_ABV)",
		"(declare-fun v_x () (_ BitVec 32))",
		"(declare-fun v_y () (_ BitVec 32))",
		"(declare-fun v_A () (Array (_ BitVec 32) (_ BitVec 8)))",
		"bvadd",
		"bvmul",
		"store",
		"select",
		"(check-sat)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Sharing: the x+y term is defined once, not inlined twice.
	if n := strings.Count(out, "(bvadd v_x v_y)"); n != 1 {
		t.Errorf("shared term emitted %d times", n)
	}
	// Every assert wraps a 1-bit term.
	if !strings.Contains(out, "(assert (= t") {
		t.Errorf("asserts missing:\n%s", out)
	}

	// A subterm shared across two constraints, pinned byte for byte:
	// declarations are sorted, and the shared term is defined once.
	z := b.Var("z", 8)
	a := b.Var("a", 8)
	xz := b.Xor(z, a)
	sb.Reset()
	if err := WriteSMTLIB(&sb, []*Expr{
		b.Ult(xz, b.Const(9, 8)),
		b.Eq(b.Add(xz, z), b.Const(3, 8)),
	}); err != nil {
		t.Fatal(err)
	}
	const want = `(set-logic QF_ABV)
(declare-fun v_a () (_ BitVec 8))
(declare-fun v_z () (_ BitVec 8))
(define-fun t1 () (_ BitVec 8) (bvxor v_z v_a))
(define-fun t2 () (_ BitVec 1) (ite (bvult t1 (_ bv9 8)) #b1 #b0))
(assert (= t2 #b1))
(define-fun t3 () (_ BitVec 8) (bvadd v_z t1))
(define-fun t4 () (_ BitVec 1) (ite (= t3 (_ bv3 8)) #b1 #b0))
(assert (= t4 #b1))
(check-sat)
(get-model)
`
	if got := sb.String(); got != want {
		t.Errorf("shared-subterm export:\n%s\nwant:\n%s", got, want)
	}
}

func TestSMTLIBAllOps(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	p := b.Var("p", 1)
	terms := []*Expr{
		b.Add(x, y), b.Sub(x, y), b.Mul(x, y), b.UDiv(x, y), b.URem(x, y),
		b.SDiv(x, y), b.SRem(x, y), b.And(x, y), b.Or(x, y), b.Xor(x, y),
		b.Not(x), b.Neg(x), b.Shl(x, y), b.LShr(x, y), b.AShr(x, y),
		b.Ite(p, x, y),
		// Extracts placed so builder simplifications cannot erase the
		// structural node under test.
		b.Extract(b.Concat(x, y), 12, 8), // spans the concat seam
		b.Extract(x, 4, 8),
		b.Extract(b.ZExt(x, 32), 8, 16), // reaches into the extension
		b.Extract(b.SExt(x, 32), 8, 16),
	}
	var cs []*Expr
	for _, e := range terms {
		cs = append(cs, b.Eq(b.Extract(e, 0, 8), b.Const(1, 8)))
	}
	// A store on a constant array keeps the (as const ...) base alive.
	ca := b.Store(b.ConstArray(b.Const(0, 8), 16), x, b.Const(9, 8))
	cs = append(cs,
		b.Ult(x, y), b.Ule(x, y), b.Slt(x, y), b.Sle(x, y),
		b.Ult(b.ZExt(x, 32), b.Const(70000, 32)), // zero_extend survives whole
		b.Eq(b.Select(ca, y), b.Const(0, 8)),
	)
	var sb strings.Builder
	if err := WriteSMTLIB(&sb, cs); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{
		"bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvsdiv", "bvsrem",
		"bvand", "bvor", "bvxor", "bvnot", "bvneg", "bvshl", "bvlshr", "bvashr",
		"concat", "extract", "zero_extend", "sign_extend",
		"bvult", "bvule", "bvslt", "bvsle", "as const",
	} {
		if !strings.Contains(sb.String(), op) {
			t.Errorf("missing operator %s", op)
		}
	}
}

func TestSMTLIBSymbolSanitization(t *testing.T) {
	b := NewBuilder()
	weird := b.Var("in!req!1", 8)
	var sb strings.Builder
	if err := WriteSMTLIB(&sb, []*Expr{b.Eq(weird, b.Const(1, 8))}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "!") {
		t.Errorf("unsanitized symbol:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "v_in_req_1") {
		t.Errorf("expected sanitized name:\n%s", sb.String())
	}
}

func TestSMTLIBRejectsNonBoolean(t *testing.T) {
	b := NewBuilder()
	var sb strings.Builder
	if err := WriteSMTLIB(&sb, []*Expr{b.Var("x", 8)}); err == nil {
		t.Error("expected error for non-boolean constraint")
	}
}
