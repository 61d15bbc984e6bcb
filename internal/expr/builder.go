package expr

import "fmt"

// Builder creates interned, locally simplified expression nodes. A
// Builder is not safe for concurrent use.
type Builder struct {
	table   map[nodeKey]*Expr
	consts  [65]map[uint64]*Expr // by width, then value
	named   map[namedKey]*Expr
	nextID  uint64
	created int
}

// nodeKey is the structural identity of an operator node: every field
// intern compares, with the arguments named by their ids. No node has
// more than three arguments, and ids start at 1, so a zero id marks an
// absent argument. Widths and Lo fit a byte (checkWidth bounds them
// by 64). Constants and named leaves have tables of their own.
type nodeKey struct {
	kind     Kind
	width    uint8
	idxWidth uint8
	lo       uint8
	args     [3]uint64
}

// namedKey is the identity of a KVar or KArrayVar leaf.
type namedKey struct {
	kind     Kind
	width    uint8
	idxWidth uint8
	name     string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		table: make(map[nodeKey]*Expr),
		named: make(map[namedKey]*Expr),
	}
}

// NumNodes returns the number of distinct nodes the builder has
// interned, a proxy for constraint state size (§5.3).
func (b *Builder) NumNodes() int { return b.created }

// intern returns the canonical operator node with e's kind and widths
// over args, creating it if needed. When every argument is a constant
// it returns the constant the node evaluates to instead (compute), so
// each operator's constant semantics are defined once, for the
// evaluator and the builder alike. Callers pass args separately from
// e so that the Args slice is allocated only for a new node.
func (b *Builder) intern(e Expr, args ...*Expr) *Expr {
	k := nodeKey{
		kind:     e.Kind,
		width:    uint8(e.Width),
		idxWidth: uint8(e.IdxWidth),
		lo:       uint8(e.Lo),
	}
	var vals [3]uint64
	folds := true
	for i, a := range args {
		k.args[i] = a.id
		vals[i] = a.Val
		folds = folds && a.IsConst()
	}
	if folds {
		if v, ok := compute(e.Kind, e.Width, args[0].Width, e.Lo, vals[0], vals[1], vals[2]); ok {
			return b.Const(v, e.Width)
		}
	}
	if n := b.table[k]; n != nil {
		return n
	}
	e.Args = make([]*Expr, len(args))
	copy(e.Args, args)
	n := b.newNode(e)
	b.table[k] = n
	return n
}

// internNamed returns the canonical leaf named e.Name.
func (b *Builder) internNamed(e Expr) *Expr {
	k := namedKey{kind: e.Kind, width: uint8(e.Width), idxWidth: uint8(e.IdxWidth), name: e.Name}
	if n := b.named[k]; n != nil {
		return n
	}
	n := b.newNode(e)
	b.named[k] = n
	return n
}

// newNode copies e into a node with the next id.
func (b *Builder) newNode(e Expr) *Expr {
	n := new(Expr)
	*n = e
	b.nextID++
	n.id = b.nextID
	b.created++
	return n
}

func checkWidth(w uint) {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("expr: width %d out of range [1,64]", w))
	}
}

// Const returns the w-bit constant v (truncated to w bits).
func (b *Builder) Const(v uint64, w uint) *Expr {
	checkWidth(w)
	v = Truncate(v, w)
	m := b.consts[w]
	if n := m[v]; n != nil {
		return n
	}
	if m == nil {
		m = make(map[uint64]*Expr)
		b.consts[w] = m
	}
	n := b.newNode(Expr{Kind: KConst, Width: w, Val: v})
	m[v] = n
	return n
}

// Bool returns the 1-bit constant for v.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.Const(1, 1)
	}
	return b.Const(0, 1)
}

// True returns the 1-bit constant 1.
func (b *Builder) True() *Expr { return b.Const(1, 1) }

// False returns the 1-bit constant 0.
func (b *Builder) False() *Expr { return b.Const(0, 1) }

// Var returns the named w-bit free variable.
func (b *Builder) Var(name string, w uint) *Expr {
	checkWidth(w)
	return b.internNamed(Expr{Kind: KVar, Width: w, Name: name})
}

// ArrayVar returns a named free array from idxW-bit indices to w-bit
// elements.
func (b *Builder) ArrayVar(name string, idxW, w uint) *Expr {
	checkWidth(w)
	checkWidth(idxW)
	return b.internNamed(Expr{Kind: KArrayVar, Width: w, IdxWidth: idxW, Name: name})
}

// ConstArray returns an array whose every element equals elem.
func (b *Builder) ConstArray(elem *Expr, idxW uint) *Expr {
	checkWidth(idxW)
	return b.intern(Expr{Kind: KConstArray, Width: elem.Width, IdxWidth: idxW}, elem)
}

func binWidthCheck(op Kind, x, y *Expr) {
	if x.Width != y.Width || x.IsArray() || y.IsArray() {
		panic(fmt.Sprintf("expr: %s operand sort mismatch: %d vs %d", op, x.Width, y.Width))
	}
}

// commutative normalization: constants go on the right, otherwise
// operands are ordered by id, so a+b and b+a intern to the same node.
// Keeping constants out of the id ordering makes the canonical form
// independent of node creation order: a constant's id depends on when
// it was first interned, which varies between otherwise identical
// symbolic runs (e.g. full vs slice-pruned shepherding).
func orderComm(x, y *Expr) (*Expr, *Expr) {
	if x.IsConst() && !y.IsConst() {
		return y, x
	}
	if y.IsConst() && !x.IsConst() {
		return x, y
	}
	if x.id > y.id {
		return y, x
	}
	return x, y
}

// Add returns x+y.
func (b *Builder) Add(x, y *Expr) *Expr {
	binWidthCheck(KAdd, x, y)
	if x.IsConst() && x.Val == 0 {
		return y
	}
	if y.IsConst() && y.Val == 0 {
		return x
	}
	// (a + c1) + c2 => a + (c1+c2)
	if y.IsConst() && x.Kind == KAdd && x.Args[1].IsConst() {
		return b.Add(x.Args[0], b.Const(x.Args[1].Val+y.Val, x.Width))
	}
	x, y = orderComm(x, y)
	// keep constants on the right for the fold above
	if x.IsConst() {
		x, y = y, x
	}
	return b.intern(Expr{Kind: KAdd, Width: x.Width}, x, y)
}

// Sub returns x-y.
func (b *Builder) Sub(x, y *Expr) *Expr {
	binWidthCheck(KSub, x, y)
	if y.IsConst() && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, x.Width)
	}
	return b.intern(Expr{Kind: KSub, Width: x.Width}, x, y)
}

// Mul returns x*y.
func (b *Builder) Mul(x, y *Expr) *Expr {
	binWidthCheck(KMul, x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		switch y.Val {
		case 0:
			return b.Const(0, x.Width)
		case 1:
			return x
		}
	}
	x, y = orderComm(x, y)
	return b.intern(Expr{Kind: KMul, Width: x.Width}, x, y)
}

// UDiv returns the unsigned quotient x/y, with x/0 = all-ones
// (SMT-LIB semantics).
func (b *Builder) UDiv(x, y *Expr) *Expr {
	binWidthCheck(KUDiv, x, y)
	if y.IsConst() && y.Val == 1 {
		return x
	}
	return b.intern(Expr{Kind: KUDiv, Width: x.Width}, x, y)
}

// URem returns the unsigned remainder, with x%0 = x (SMT-LIB).
func (b *Builder) URem(x, y *Expr) *Expr {
	binWidthCheck(KURem, x, y)
	if y.IsConst() && y.Val == 1 {
		return b.Const(0, x.Width)
	}
	return b.intern(Expr{Kind: KURem, Width: x.Width}, x, y)
}

// SDiv returns the signed quotient (truncated), with x/0 defined as in
// SMT-LIB (-1 for non-negative x, 1 for negative x).
func (b *Builder) SDiv(x, y *Expr) *Expr {
	binWidthCheck(KSDiv, x, y)
	return b.intern(Expr{Kind: KSDiv, Width: x.Width}, x, y)
}

// SRem returns the signed remainder (sign of dividend), x%0 = x.
func (b *Builder) SRem(x, y *Expr) *Expr {
	binWidthCheck(KSRem, x, y)
	return b.intern(Expr{Kind: KSRem, Width: x.Width}, x, y)
}

// And returns the bitwise conjunction.
func (b *Builder) And(x, y *Expr) *Expr {
	binWidthCheck(KAnd, x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		if y.Val == 0 {
			return b.Const(0, x.Width)
		}
		if y.Val == mask(x.Width) {
			return x
		}
	}
	if x == y {
		return x
	}
	x, y = orderComm(x, y)
	return b.intern(Expr{Kind: KAnd, Width: x.Width}, x, y)
}

// Or returns the bitwise disjunction.
func (b *Builder) Or(x, y *Expr) *Expr {
	binWidthCheck(KOr, x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		if y.Val == 0 {
			return x
		}
		if y.Val == mask(x.Width) {
			return b.Const(mask(x.Width), x.Width)
		}
	}
	if x == y {
		return x
	}
	x, y = orderComm(x, y)
	return b.intern(Expr{Kind: KOr, Width: x.Width}, x, y)
}

// Xor returns the bitwise exclusive or.
func (b *Builder) Xor(x, y *Expr) *Expr {
	binWidthCheck(KXor, x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() && y.Val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, x.Width)
	}
	x, y = orderComm(x, y)
	return b.intern(Expr{Kind: KXor, Width: x.Width}, x, y)
}

// Not returns the bitwise complement.
func (b *Builder) Not(x *Expr) *Expr {
	if x.Kind == KNot {
		return x.Args[0]
	}
	return b.intern(Expr{Kind: KNot, Width: x.Width}, x)
}

// Neg returns the two's-complement negation.
func (b *Builder) Neg(x *Expr) *Expr {
	if x.Kind == KNeg {
		return x.Args[0]
	}
	return b.intern(Expr{Kind: KNeg, Width: x.Width}, x)
}

// Shl returns x shifted left by y; shifts ≥ width yield zero.
func (b *Builder) Shl(x, y *Expr) *Expr {
	binWidthCheck(KShl, x, y)
	if y.IsConst() {
		if y.Val >= uint64(x.Width) {
			return b.Const(0, x.Width)
		}
		if y.Val == 0 {
			return x
		}
	}
	return b.intern(Expr{Kind: KShl, Width: x.Width}, x, y)
}

// LShr returns the logical right shift.
func (b *Builder) LShr(x, y *Expr) *Expr {
	binWidthCheck(KLShr, x, y)
	if y.IsConst() {
		if y.Val >= uint64(x.Width) {
			return b.Const(0, x.Width)
		}
		if y.Val == 0 {
			return x
		}
	}
	return b.intern(Expr{Kind: KLShr, Width: x.Width}, x, y)
}

// AShr returns the arithmetic right shift.
func (b *Builder) AShr(x, y *Expr) *Expr {
	binWidthCheck(KAShr, x, y)
	if y.IsConst() && y.Val == 0 {
		return x
	}
	return b.intern(Expr{Kind: KAShr, Width: x.Width}, x, y)
}

// Eq returns the 1-bit equality x == y. Arrays may not be compared.
func (b *Builder) Eq(x, y *Expr) *Expr {
	binWidthCheck(KEq, x, y)
	if x == y {
		return b.True()
	}
	// Boolean equality with a constant simplifies to the operand or
	// its negation.
	if x.Width == 1 {
		if y.IsConst() {
			if y.Val == 1 {
				return x
			}
			return b.BoolNot(x)
		}
		if x.IsConst() {
			if x.Val == 1 {
				return y
			}
			return b.BoolNot(y)
		}
	}
	x, y = orderComm(x, y)
	return b.intern(Expr{Kind: KEq, Width: 1}, x, y)
}

// Ne returns the 1-bit disequality.
func (b *Builder) Ne(x, y *Expr) *Expr { return b.BoolNot(b.Eq(x, y)) }

// Ult returns the 1-bit unsigned less-than.
func (b *Builder) Ult(x, y *Expr) *Expr {
	binWidthCheck(KUlt, x, y)
	if x == y {
		return b.False()
	}
	if y.IsConst() && y.Val == 0 {
		return b.False()
	}
	return b.intern(Expr{Kind: KUlt, Width: 1}, x, y)
}

// Ule returns the 1-bit unsigned less-or-equal.
func (b *Builder) Ule(x, y *Expr) *Expr {
	binWidthCheck(KUle, x, y)
	if x == y {
		return b.True()
	}
	if x.IsConst() && x.Val == 0 {
		return b.True()
	}
	return b.intern(Expr{Kind: KUle, Width: 1}, x, y)
}

// Slt returns the 1-bit signed less-than.
func (b *Builder) Slt(x, y *Expr) *Expr {
	binWidthCheck(KSlt, x, y)
	if x == y {
		return b.False()
	}
	return b.intern(Expr{Kind: KSlt, Width: 1}, x, y)
}

// Sle returns the 1-bit signed less-or-equal.
func (b *Builder) Sle(x, y *Expr) *Expr {
	binWidthCheck(KSle, x, y)
	if x == y {
		return b.True()
	}
	return b.intern(Expr{Kind: KSle, Width: 1}, x, y)
}

// Ugt, Uge, Sgt are the flipped comparison helpers.
func (b *Builder) Ugt(x, y *Expr) *Expr { return b.Ult(y, x) }
func (b *Builder) Uge(x, y *Expr) *Expr { return b.Ule(y, x) }
func (b *Builder) Sgt(x, y *Expr) *Expr { return b.Slt(y, x) }

// BoolAnd returns the 1-bit conjunction.
func (b *Builder) BoolAnd(x, y *Expr) *Expr {
	if x.Width != 1 || y.Width != 1 {
		panic("expr: BoolAnd on non-boolean")
	}
	return b.And(x, y)
}

// BoolOr returns the 1-bit disjunction.
func (b *Builder) BoolOr(x, y *Expr) *Expr {
	if x.Width != 1 || y.Width != 1 {
		panic("expr: BoolOr on non-boolean")
	}
	return b.Or(x, y)
}

// BoolNot returns the 1-bit negation.
func (b *Builder) BoolNot(x *Expr) *Expr {
	if x.Width != 1 {
		panic("expr: BoolNot on non-boolean")
	}
	return b.Not(x)
}

// Implies returns (not x) or y.
func (b *Builder) Implies(x, y *Expr) *Expr { return b.BoolOr(b.BoolNot(x), y) }

// Ite returns if cond then x else y.
func (b *Builder) Ite(cond, x, y *Expr) *Expr {
	if cond.Width != 1 {
		panic("expr: Ite condition must be boolean")
	}
	if x.Width != y.Width || x.IsArray() != y.IsArray() {
		panic("expr: Ite branch sort mismatch")
	}
	if cond.IsTrue() {
		return x
	}
	if cond.IsFalse() {
		return y
	}
	if x == y {
		return x
	}
	// Boolean ite folds to connectives, which bit-blast compactly.
	if x.Width == 1 && !x.IsArray() {
		return b.BoolOr(b.BoolAnd(cond, x), b.BoolAnd(b.BoolNot(cond), y))
	}
	return b.intern(Expr{Kind: KIte, Width: x.Width, IdxWidth: x.IdxWidth}, cond, x, y)
}

// Concat returns hi ∘ lo, the (hi.Width+lo.Width)-bit concatenation.
func (b *Builder) Concat(hi, lo *Expr) *Expr {
	w := hi.Width + lo.Width
	checkWidth(w)
	return b.intern(Expr{Kind: KConcat, Width: w}, hi, lo)
}

// Extract returns bits [lo, lo+w) of x.
func (b *Builder) Extract(x *Expr, lo, w uint) *Expr {
	checkWidth(w)
	if lo+w > x.Width {
		panic(fmt.Sprintf("expr: extract [%d,%d) beyond width %d", lo, lo+w, x.Width))
	}
	if lo == 0 && w == x.Width {
		return x
	}
	if x.Kind == KExtract {
		return b.Extract(x.Args[0], x.Lo+lo, w)
	}
	if x.Kind == KConcat {
		lw := x.Args[1].Width
		if lo+w <= lw {
			return b.Extract(x.Args[1], lo, w)
		}
		if lo >= lw {
			return b.Extract(x.Args[0], lo-lw, w)
		}
	}
	if x.Kind == KZExt && lo+w <= x.Args[0].Width {
		return b.Extract(x.Args[0], lo, w)
	}
	return b.intern(Expr{Kind: KExtract, Width: w, Lo: lo}, x)
}

// ZExt zero-extends x to w bits.
func (b *Builder) ZExt(x *Expr, w uint) *Expr {
	checkWidth(w)
	if w == x.Width {
		return x
	}
	if w < x.Width {
		panic("expr: ZExt to narrower width")
	}
	if x.Kind == KZExt {
		return b.ZExt(x.Args[0], w)
	}
	return b.intern(Expr{Kind: KZExt, Width: w}, x)
}

// SExt sign-extends x to w bits.
func (b *Builder) SExt(x *Expr, w uint) *Expr {
	checkWidth(w)
	if w == x.Width {
		return x
	}
	if w < x.Width {
		panic("expr: SExt to narrower width")
	}
	return b.intern(Expr{Kind: KSExt, Width: w}, x)
}

// Select returns array[idx].
func (b *Builder) Select(arr, idx *Expr) *Expr {
	if !arr.IsArray() {
		panic("expr: Select on non-array")
	}
	if idx.Width != arr.IdxWidth {
		panic("expr: Select index width mismatch")
	}
	// Forward reads through stores when the comparison is decidable
	// syntactically.
	cur := arr
	for {
		switch cur.Kind {
		case KStore:
			si := cur.Args[1]
			if si == idx {
				return cur.Args[2]
			}
			if si.IsConst() && idx.IsConst() {
				// Distinct constants: skip this store.
				cur = cur.Args[0]
				continue
			}
			// Unknown aliasing: stop.
		case KConstArray:
			return cur.Args[0]
		}
		break
	}
	return b.intern(Expr{Kind: KSelect, Width: arr.Width}, cur, idx)
}

// Store returns arr with idx mapped to val.
func (b *Builder) Store(arr, idx, val *Expr) *Expr {
	if !arr.IsArray() {
		panic("expr: Store on non-array")
	}
	if idx.Width != arr.IdxWidth || val.Width != arr.Width {
		panic("expr: Store sort mismatch")
	}
	// Store-over-store at the same index overwrites.
	if arr.Kind == KStore && arr.Args[1] == idx {
		return b.Store(arr.Args[0], idx, val)
	}
	return b.intern(Expr{Kind: KStore, Width: arr.Width, IdxWidth: arr.IdxWidth}, arr, idx, val)
}

// Apply builds a kind-k operator node over args through the kind's own
// builder method, so every simplification applies. w and lo are read
// only by the kinds whose result shape args do not fix: KExtract (width
// and low bit), KZExt and KSExt (width). Leaves and array kinds have
// no operator builder; Apply panics on them.
func (b *Builder) Apply(k Kind, w, lo uint, args ...*Expr) *Expr {
	switch k {
	case KAdd:
		return b.Add(args[0], args[1])
	case KSub:
		return b.Sub(args[0], args[1])
	case KMul:
		return b.Mul(args[0], args[1])
	case KUDiv:
		return b.UDiv(args[0], args[1])
	case KURem:
		return b.URem(args[0], args[1])
	case KSDiv:
		return b.SDiv(args[0], args[1])
	case KSRem:
		return b.SRem(args[0], args[1])
	case KAnd:
		return b.And(args[0], args[1])
	case KOr:
		return b.Or(args[0], args[1])
	case KXor:
		return b.Xor(args[0], args[1])
	case KNot:
		return b.Not(args[0])
	case KNeg:
		return b.Neg(args[0])
	case KShl:
		return b.Shl(args[0], args[1])
	case KLShr:
		return b.LShr(args[0], args[1])
	case KAShr:
		return b.AShr(args[0], args[1])
	case KEq:
		return b.Eq(args[0], args[1])
	case KUlt:
		return b.Ult(args[0], args[1])
	case KUle:
		return b.Ule(args[0], args[1])
	case KSlt:
		return b.Slt(args[0], args[1])
	case KSle:
		return b.Sle(args[0], args[1])
	case KIte:
		return b.Ite(args[0], args[1], args[2])
	case KConcat:
		return b.Concat(args[0], args[1])
	case KExtract:
		return b.Extract(args[0], lo, w)
	case KZExt:
		return b.ZExt(args[0], w)
	case KSExt:
		return b.SExt(args[0], w)
	}
	panic("expr: Apply of " + k.String())
}
