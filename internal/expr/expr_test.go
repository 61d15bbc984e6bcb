package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	cases := []struct {
		name string
		got  *Expr
		want uint64
	}{
		{"add", b.Add(b.Const(3, 32), b.Const(4, 32)), 7},
		{"add-wrap", b.Add(b.Const(0xffffffff, 32), b.Const(1, 32)), 0},
		{"sub", b.Sub(b.Const(3, 32), b.Const(4, 32)), 0xffffffff},
		{"mul", b.Mul(b.Const(6, 32), b.Const(7, 32)), 42},
		{"udiv", b.UDiv(b.Const(42, 32), b.Const(5, 32)), 8},
		{"udiv0", b.UDiv(b.Const(42, 32), b.Const(0, 32)), 0xffffffff},
		{"urem", b.URem(b.Const(42, 32), b.Const(5, 32)), 2},
		{"urem0", b.URem(b.Const(42, 32), b.Const(0, 32)), 42},
		{"sdiv", b.SDiv(b.Const(0xfffffff6, 32), b.Const(3, 32)), Truncate(uint64(0xfffffffd), 32)}, // -10/3 = -3
		{"srem", b.SRem(b.Const(0xfffffff6, 32), b.Const(3, 32)), Truncate(uint64(0xffffffff), 32)}, // -10%3 = -1
		{"and", b.And(b.Const(0b1100, 8), b.Const(0b1010, 8)), 0b1000},
		{"or", b.Or(b.Const(0b1100, 8), b.Const(0b1010, 8)), 0b1110},
		{"xor", b.Xor(b.Const(0b1100, 8), b.Const(0b1010, 8)), 0b0110},
		{"not", b.Not(b.Const(0b1100, 8)), 0b11110011},
		{"neg", b.Neg(b.Const(1, 8)), 0xff},
		{"shl", b.Shl(b.Const(1, 8), b.Const(3, 8)), 8},
		{"shl-over", b.Shl(b.Const(1, 8), b.Const(9, 8)), 0},
		{"lshr", b.LShr(b.Const(0x80, 8), b.Const(3, 8)), 0x10},
		{"ashr", b.AShr(b.Const(0x80, 8), b.Const(3, 8)), 0xf0},
		{"concat", b.Concat(b.Const(0xab, 8), b.Const(0xcd, 8)), 0xabcd},
		{"extract", b.Extract(b.Const(0xabcd, 16), 8, 8), 0xab},
		{"zext", b.ZExt(b.Const(0xff, 8), 16), 0xff},
		{"sext", b.SExt(b.Const(0xff, 8), 16), 0xffff},
	}
	for _, c := range cases {
		if !c.got.IsConst() {
			t.Errorf("%s: not folded to constant: %s", c.name, c.got)
			continue
		}
		if c.got.Val != c.want {
			t.Errorf("%s: got %#x want %#x", c.name, c.got.Val, c.want)
		}
	}
}

func TestComparisonFolding(t *testing.T) {
	b := NewBuilder()
	if !b.Ult(b.Const(3, 32), b.Const(4, 32)).IsTrue() {
		t.Error("3 <u 4 should fold true")
	}
	if !b.Slt(b.Const(0xffffffff, 32), b.Const(0, 32)).IsTrue() {
		t.Error("-1 <s 0 should fold true")
	}
	if b.Slt(b.Const(0, 32), b.Const(0xffffffff, 32)).IsTrue() {
		t.Error("0 <s -1 should fold false")
	}
	x := b.Var("x", 32)
	if !b.Eq(x, x).IsTrue() {
		t.Error("x == x should fold true")
	}
	if !b.Ule(x, x).IsTrue() {
		t.Error("x <=u x should fold true")
	}
	if !b.Ult(x, x).IsFalse() {
		t.Error("x <u x should fold false")
	}
}

func TestInterning(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	if b.Add(x, y) != b.Add(x, y) {
		t.Error("identical adds not interned")
	}
	if b.Add(x, y) != b.Add(y, x) {
		t.Error("commutative adds not normalized")
	}
	if b.Var("x", 32) != x {
		t.Error("vars not interned")
	}
	if b.Add(x, y) == b.Sub(x, y) {
		t.Error("distinct kinds interned together")
	}
}

// TestInternKeyFields checks that interning tells apart nodes that
// differ in a single key field, and that node ids depend only on the
// sequence of calls: a fresh Builder given the same calls hands out
// the same ids, densely and in creation order.
func TestInternKeyFields(t *testing.T) {
	type pair struct {
		field string
		x, y  *Expr
	}
	build := func(b *Builder) []pair {
		x, y := b.Var("x", 32), b.Var("y", 32)
		i, j := b.Var("i", 8), b.Var("j", 8)
		c := b.Var("c", 1)
		arr := b.ArrayVar("m", 8, 8)
		return []pair{
			{"Lo", b.Extract(x, 0, 8), b.Extract(x, 8, 8)},
			{"Width", b.Extract(x, 0, 8), b.Extract(x, 0, 16)},
			{"IdxWidth", b.ArrayVar("m", 8, 8), b.ArrayVar("m", 16, 8)},
			{"Name", b.Var("p", 8), b.Var("q", 8)},
			{"Val", b.Const(1, 8), b.Const(2, 8)},
			{"Args[0]", b.Sub(x, y), b.Sub(y, y)},
			{"Args[1]", b.Sub(x, y), b.Sub(x, x)},
			{"argument order", b.Sub(x, y), b.Sub(y, x)},
			{"Args[0] of 3", b.Store(arr, i, j), b.Store(b.ArrayVar("n", 8, 8), i, j)},
			{"Args[1] of 3", b.Store(arr, i, j), b.Store(arr, j, j)},
			{"Args[2] of 3", b.Store(arr, i, j), b.Store(arr, i, i)},
			{"Ite branch", b.Ite(c, x, y), b.Ite(c, y, x)},
		}
	}
	b := NewBuilder()
	pairs := build(b)
	var ids []uint64
	var maxID uint64
	for _, p := range pairs {
		if p.x == p.y {
			t.Errorf("%s: nodes differing only in %s interned to one node %s", p.x, p.field, p.x)
		}
		ids = append(ids, p.x.ID(), p.y.ID())
		maxID = max(maxID, p.x.ID(), p.y.ID())
	}
	if maxID != uint64(b.NumNodes()) {
		t.Errorf("largest id %d, want %d for %d nodes: ids are not dense", maxID, b.NumNodes(), b.NumNodes())
	}
	b2 := NewBuilder()
	for k, p := range build(b2) {
		if p.x.ID() != ids[2*k] || p.y.ID() != ids[2*k+1] {
			t.Errorf("%s: ids %d, %d on a fresh builder, want %d, %d", p.field, p.x.ID(), p.y.ID(), ids[2*k], ids[2*k+1])
		}
	}
}

func TestIdentitySimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	zero := b.Const(0, 32)
	one := b.Const(1, 32)
	ones := b.Const(^uint64(0), 32)
	if b.Add(x, zero) != x || b.Add(zero, x) != x {
		t.Error("x+0 != x")
	}
	if b.Mul(x, one) != x {
		t.Error("x*1 != x")
	}
	if !b.Mul(x, zero).IsConst() {
		t.Error("x*0 not folded")
	}
	if b.And(x, ones) != x {
		t.Error("x&~0 != x")
	}
	if b.Or(x, zero) != x {
		t.Error("x|0 != x")
	}
	if b.Xor(x, x) != zero {
		t.Error("x^x != 0")
	}
	if b.Sub(x, x) != zero {
		t.Error("x-x != 0")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x != x")
	}
	if b.Neg(b.Neg(x)) != x {
		t.Error("--x != x")
	}
	// Constant re-association: (x+1)+1 == x+2.
	if b.Add(b.Add(x, one), one) != b.Add(x, b.Const(2, 32)) {
		t.Error("add constants not re-associated")
	}
}

func TestBoolSimplifications(t *testing.T) {
	b := NewBuilder()
	p := b.Var("p", 1)
	if b.Eq(p, b.True()) != p {
		t.Error("p == true should be p")
	}
	if b.Eq(p, b.False()) != b.BoolNot(p) {
		t.Error("p == false should be !p")
	}
	if b.Ite(b.True(), b.Const(1, 8), b.Const(2, 8)).Val != 1 {
		t.Error("ite(true) not folded")
	}
	if b.Ite(b.False(), b.Const(1, 8), b.Const(2, 8)).Val != 2 {
		t.Error("ite(false) not folded")
	}
	x := b.Var("x", 8)
	if b.Ite(p, x, x) != x {
		t.Error("ite with equal branches not folded")
	}
}

func TestArraySimplifications(t *testing.T) {
	b := NewBuilder()
	arr := b.ArrayVar("A", 32, 8)
	i := b.Var("i", 32)
	v := b.Const(7, 8)
	st := b.Store(arr, i, v)
	if b.Select(st, i) != v {
		t.Error("select of store at same index should forward")
	}
	// Distinct constant indices skip the store.
	st2 := b.Store(arr, b.Const(4, 32), v)
	sel := b.Select(st2, b.Const(5, 32))
	if sel.Kind != KSelect || sel.Args[0] != arr {
		t.Errorf("select at distinct constant should skip store, got %s", sel)
	}
	// Store-over-store at same index collapses.
	st3 := b.Store(b.Store(arr, i, b.Const(1, 8)), i, b.Const(2, 8))
	if st3.Args[0] != arr {
		t.Error("store-over-store at same index should collapse")
	}
	// Select of const array.
	ca := b.ConstArray(b.Const(9, 8), 32)
	if b.Select(ca, i).Val != 9 {
		t.Error("select of constarray should fold")
	}
}

func TestExtractConcat(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	c := b.Concat(x, y)
	if b.Extract(c, 0, 8) != y {
		t.Error("extract low of concat")
	}
	if b.Extract(c, 8, 8) != x {
		t.Error("extract high of concat")
	}
	if b.Extract(b.Extract(b.Var("z", 32), 8, 16), 4, 8) != b.Extract(b.Var("z", 32), 12, 8) {
		t.Error("nested extract not fused")
	}
	if b.Extract(b.ZExt(x, 32), 0, 8) != x {
		t.Error("extract of zext not simplified")
	}
}

func TestSignExtendValue(t *testing.T) {
	if SignExtendValue(0xff, 8) != -1 {
		t.Error("0xff:8 should be -1")
	}
	if SignExtendValue(0x7f, 8) != 127 {
		t.Error("0x7f:8 should be 127")
	}
	if SignExtendValue(0x80, 8) != -128 {
		t.Error("0x80:8 should be -128")
	}
	if SignExtendValue(5, 64) != 5 {
		t.Error("64-bit passthrough")
	}
}

func TestEvalBasic(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	asn := NewAssignment()
	asn.Vars["x"] = 10
	asn.Vars["y"] = 3
	checks := []struct {
		e    *Expr
		want uint64
	}{
		{b.Add(x, y), 13},
		{b.Sub(x, y), 7},
		{b.Mul(x, y), 30},
		{b.UDiv(x, y), 3},
		{b.URem(x, y), 1},
		{b.Ult(y, x), 1},
		{b.Slt(x, y), 0},
		{b.Eq(x, y), 0},
		{b.Ite(b.Ult(y, x), x, y), 10},
		{b.Shl(x, y), 80},
	}
	for _, c := range checks {
		got := asn.MustEval(c.e)
		if got != c.want {
			t.Errorf("eval %s: got %d want %d", c.e, got, c.want)
		}
	}
}

func TestEvalArrays(t *testing.T) {
	b := NewBuilder()
	arr := b.ArrayVar("A", 32, 8)
	i := b.Var("i", 32)
	asn := NewAssignment()
	asn.Vars["i"] = 5
	asn.Arrays["A"] = &ArrayValue{Elems: map[uint64]uint64{5: 42}, Default: 7}
	if got := asn.MustEval(b.Select(arr, i)); got != 42 {
		t.Errorf("select: got %d", got)
	}
	if got := asn.MustEval(b.Select(arr, b.Const(6, 32))); got != 7 {
		t.Errorf("select default: got %d", got)
	}
	st := b.Store(arr, b.Const(6, 32), b.Const(9, 8))
	if got := asn.MustEval(b.Select(st, b.Const(6, 32))); got != 9 {
		t.Errorf("select of store: got %d", got)
	}
	// Store must not mutate the base array value.
	if got := asn.MustEval(b.Select(arr, b.Const(6, 32))); got != 7 {
		t.Errorf("base array mutated by store eval: got %d", got)
	}
}

func TestWalkAndSize(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	e := b.Add(b.Mul(x, x), x) // nodes: add, mul, x
	if e.Size() != 3 {
		t.Errorf("size: got %d want 3", e.Size())
	}
	var kinds []Kind
	Walk(e, func(n *Expr) { kinds = append(kinds, n.Kind) })
	if len(kinds) != 3 {
		t.Errorf("walk visited %d nodes", len(kinds))
	}
	vars := VarsOf(e)
	if len(vars) != 1 || vars[0] != x {
		t.Errorf("VarsOf: %v", vars)
	}
}

// TestQuickAddSubInverse checks (x+y)-y == x for random values via the
// evaluator.
func TestQuickAddSubInverse(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 64)
	y := b.Var("y", 64)
	e := b.Sub(b.Add(x, y), y)
	f := func(xv, yv uint64) bool {
		asn := NewAssignment()
		asn.Vars["x"] = xv
		asn.Vars["y"] = yv
		return asn.MustEval(e) == xv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalMatchesGo cross-checks the evaluator against native Go
// arithmetic on 32-bit operands.
func TestQuickEvalMatchesGo(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	type op struct {
		e  *Expr
		fn func(a, c uint32) uint64
	}
	ops := []op{
		{b.Add(x, y), func(a, c uint32) uint64 { return uint64(a + c) }},
		{b.Sub(x, y), func(a, c uint32) uint64 { return uint64(a - c) }},
		{b.Mul(x, y), func(a, c uint32) uint64 { return uint64(a * c) }},
		{b.And(x, y), func(a, c uint32) uint64 { return uint64(a & c) }},
		{b.Or(x, y), func(a, c uint32) uint64 { return uint64(a | c) }},
		{b.Xor(x, y), func(a, c uint32) uint64 { return uint64(a ^ c) }},
		{b.UDiv(x, y), func(a, c uint32) uint64 {
			if c == 0 {
				return 0xffffffff
			}
			return uint64(a / c)
		}},
		{b.URem(x, y), func(a, c uint32) uint64 {
			if c == 0 {
				return uint64(a)
			}
			return uint64(a % c)
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, c := rng.Uint32(), rng.Uint32()
		if i%5 == 0 {
			c &= 0xf // exercise small and zero divisors
		}
		asn := NewAssignment()
		asn.Vars["x"] = uint64(a)
		asn.Vars["y"] = uint64(c)
		for _, o := range ops {
			if got, want := asn.MustEval(o.e), o.fn(a, c); got != want {
				t.Fatalf("%s a=%#x c=%#x: got %#x want %#x", o.e, a, c, got, want)
			}
		}
	}
}

func TestBuilderNumNodes(t *testing.T) {
	b := NewBuilder()
	n0 := b.NumNodes()
	x := b.Var("x", 32)
	b.Add(x, b.Const(1, 32))
	b.Add(x, b.Const(1, 32)) // interned, no new nodes
	if b.NumNodes() != n0+3 {
		t.Errorf("NumNodes: got %d want %d", b.NumNodes(), n0+3)
	}
}

func TestWidthPanics(t *testing.T) {
	b := NewBuilder()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("width0", func() { b.Const(1, 0) })
	mustPanic("width65", func() { b.Var("w", 65) })
	mustPanic("mismatch", func() { b.Add(b.Var("a", 8), b.Var("b", 16)) })
	mustPanic("ite-cond", func() { b.Ite(b.Var("c", 8), b.Const(0, 8), b.Const(1, 8)) })
	mustPanic("extract-range", func() { b.Extract(b.Var("x", 8), 4, 8) })
	mustPanic("select-nonarray", func() { b.Select(b.Var("x", 8), b.Const(0, 8)) })
}
