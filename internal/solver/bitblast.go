package solver

import (
	"fmt"

	"execrecon/internal/expr"
)

// blaster lowers pure bitvector expressions to CNF via a Tseitin
// transformation, producing one SAT literal per bit.
//
// Its memo outlives a query: a Solver keeps one blaster, and rewind
// forgets the nodes blasted after a mark, so a query that extends the
// snapshot's constraints finds exactly the memo a fresh blast of them
// would have built.
type blaster struct {
	s      *sat
	budget *Budget

	litTrue  lit
	litFalse lit

	bits [][]lit      // indexed by Expr.ID(); nil until blasted
	done []*expr.Expr // nodes with bits set, in blast order

	// viaAddClause sends every gate clause through addClause; tests
	// set it to check that gateClause's shortcut builds the same
	// clause database.
	viaAddClause bool

	err error
}

// restart empties the memo and blasts the constant-true literal into
// s, which reset has just emptied.
func (b *blaster) restart(s *sat, budget *Budget) {
	b.rewind(0)
	b.s, b.budget, b.err = s, budget, nil
	tv := s.newVar()
	b.litTrue = mkLit(tv, false)
	b.litFalse = b.litTrue.negate()
	if !s.addClause([]lit{b.litTrue}) {
		b.err = fmt.Errorf("solver: inconsistent true literal")
	}
}

// rewind forgets every node blasted after the first mark.
func (b *blaster) rewind(mark int) {
	for _, e := range b.done[mark:] {
		b.bits[e.ID()] = nil
	}
	b.done = b.done[:mark]
}

// memo records e's bits.
func (b *blaster) memo(e *expr.Expr, bs []lit) {
	if n := int(e.ID()) + 1; n > len(b.bits) {
		b.bits = append(b.bits, make([][]lit, n-len(b.bits))...)
	}
	b.bits[e.ID()] = bs
	b.done = append(b.done, e)
}

func (b *blaster) constLit(v bool) lit {
	if v {
		return b.litTrue
	}
	return b.litFalse
}

func (b *blaster) isConstLit(l lit) (bool, bool) {
	if l == b.litTrue {
		return true, true
	}
	if l == b.litFalse {
		return false, true
	}
	return false, false
}

func (b *blaster) freshLit() lit { return mkLit(b.s.newVar(), false) }

func (b *blaster) spend(n int64) bool {
	if !b.budget.spend(n) {
		b.err = errBudget
		return false
	}
	return true
}

// gateClause installs one Tseitin clause of a gate whose output
// literal is fresh. The gates exclude x == y and x == ¬y and the
// output's variable is new, so the clause holds no duplicate and is no
// tautology; when every literal is also unassigned, addClause's
// level-0 filter keeps it whole, and the clause goes straight to the
// arena. A clause with an assigned literal takes the filtering path.
func (b *blaster) gateClause(lits ...lit) {
	for _, l := range lits {
		if b.viaAddClause || b.s.value(l) != tUndef {
			b.s.addClause(lits)
			return
		}
	}
	b.s.newClause(lits, false)
	b.s.problems++
}

// gateAnd returns a literal equivalent to x ∧ y.
func (b *blaster) gateAnd(x, y lit) lit {
	if v, ok := b.isConstLit(x); ok {
		if v {
			return y
		}
		return b.litFalse
	}
	if v, ok := b.isConstLit(y); ok {
		if v {
			return x
		}
		return b.litFalse
	}
	if x == y {
		return x
	}
	if x == y.negate() {
		return b.litFalse
	}
	if !b.spend(1) {
		return b.litFalse
	}
	o := b.freshLit()
	b.gateClause(x.negate(), y.negate(), o)
	b.gateClause(x, o.negate())
	b.gateClause(y, o.negate())
	return o
}

func (b *blaster) gateOr(x, y lit) lit {
	return b.gateAnd(x.negate(), y.negate()).negate()
}

// gateXor returns a literal equivalent to x ⊕ y.
func (b *blaster) gateXor(x, y lit) lit {
	if v, ok := b.isConstLit(x); ok {
		if v {
			return y.negate()
		}
		return y
	}
	if v, ok := b.isConstLit(y); ok {
		if v {
			return x.negate()
		}
		return x
	}
	if x == y {
		return b.litFalse
	}
	if x == y.negate() {
		return b.litTrue
	}
	if !b.spend(1) {
		return b.litFalse
	}
	o := b.freshLit()
	b.gateClause(x.negate(), y.negate(), o.negate())
	b.gateClause(x, y, o.negate())
	b.gateClause(x.negate(), y, o)
	b.gateClause(x, y.negate(), o)
	return o
}

// gateMux returns c ? x : y.
func (b *blaster) gateMux(c, x, y lit) lit {
	if v, ok := b.isConstLit(c); ok {
		if v {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.gateOr(b.gateAnd(c, x), b.gateAnd(c.negate(), y))
}

// fullAdder returns (sum, carry).
func (b *blaster) fullAdder(x, y, cin lit) (lit, lit) {
	s1 := b.gateXor(x, y)
	sum := b.gateXor(s1, cin)
	c1 := b.gateAnd(x, y)
	c2 := b.gateAnd(s1, cin)
	return sum, b.gateOr(c1, c2)
}

// addBits returns x + y (+1 if cin) over equal-length bit slices.
func (b *blaster) addBits(x, y []lit, cin lit) []lit {
	out := make([]lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func (b *blaster) negBits(x []lit) []lit {
	inv := make([]lit, len(x))
	for i, l := range x {
		inv[i] = l.negate()
	}
	zero := make([]lit, len(x))
	for i := range zero {
		zero[i] = b.litFalse
	}
	return b.addBits(inv, zero, b.litTrue)
}

// ultBits returns the literal for unsigned x < y.
func (b *blaster) ultBits(x, y []lit) lit {
	// lt_i = (¬x_i ∧ y_i) ∨ ((x_i ≡ y_i) ∧ lt_{i-1}), msb last.
	lt := b.litFalse
	for i := 0; i < len(x); i++ {
		eqi := b.gateXor(x[i], y[i]).negate()
		lt = b.gateOr(b.gateAnd(x[i].negate(), y[i]), b.gateAnd(eqi, lt))
	}
	return lt
}

func (b *blaster) eqBits(x, y []lit) lit {
	acc := b.litTrue
	for i := range x {
		acc = b.gateAnd(acc, b.gateXor(x[i], y[i]).negate())
	}
	return acc
}

func (b *blaster) orAll(ls []lit) lit {
	acc := b.litFalse
	for _, l := range ls {
		acc = b.gateOr(acc, l)
	}
	return acc
}

func (b *blaster) muxBits(c lit, x, y []lit) []lit {
	out := make([]lit, len(x))
	for i := range x {
		out[i] = b.gateMux(c, x[i], y[i])
	}
	return out
}

// dummy returns a placeholder bit slice used once an error is
// recorded, so partially-blasted parents never index nil slices.
func (b *blaster) dummy(w int) []lit {
	out := make([]lit, w)
	for i := range out {
		out[i] = b.litFalse
	}
	return out
}

// blast returns the bit literals (LSB first) for a pure bitvector
// expression.
func (b *blaster) blast(e *expr.Expr) []lit {
	w := int(e.Width)
	if b.err != nil {
		return b.dummy(w)
	}
	if id := e.ID(); id < uint64(len(b.bits)) && b.bits[id] != nil {
		return b.bits[id]
	}
	if !b.spend(1) {
		return b.dummy(w)
	}
	var out []lit
	switch e.Kind {
	case expr.KConst:
		out = make([]lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.constLit(e.Val>>uint(i)&1 == 1)
		}
	case expr.KVar:
		out = make([]lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.freshLit()
		}
	case expr.KAdd:
		out = b.addBits(b.blast(e.Args[0]), b.blast(e.Args[1]), b.litFalse)
	case expr.KSub:
		y := b.blast(e.Args[1])
		inv := make([]lit, len(y))
		for i, l := range y {
			inv[i] = l.negate()
		}
		out = b.addBits(b.blast(e.Args[0]), inv, b.litTrue)
	case expr.KNeg:
		out = b.negBits(b.blast(e.Args[0]))
	case expr.KMul:
		x, y := b.blast(e.Args[0]), b.blast(e.Args[1])
		acc := make([]lit, w)
		for i := range acc {
			acc[i] = b.litFalse
		}
		for i := 0; i < w; i++ {
			// partial product: (x << i) & y_i
			pp := make([]lit, w)
			for j := 0; j < w; j++ {
				if j < i {
					pp[j] = b.litFalse
				} else {
					pp[j] = b.gateAnd(x[j-i], y[i])
				}
			}
			acc = b.addBits(acc, pp, b.litFalse)
		}
		out = acc
	case expr.KUDiv, expr.KURem, expr.KSDiv, expr.KSRem:
		out = b.blastDiv(e)
	case expr.KAnd, expr.KOr, expr.KXor:
		x, y := b.blast(e.Args[0]), b.blast(e.Args[1])
		out = make([]lit, w)
		for i := 0; i < w; i++ {
			switch e.Kind {
			case expr.KAnd:
				out[i] = b.gateAnd(x[i], y[i])
			case expr.KOr:
				out[i] = b.gateOr(x[i], y[i])
			default:
				out[i] = b.gateXor(x[i], y[i])
			}
		}
	case expr.KNot:
		x := b.blast(e.Args[0])
		out = make([]lit, w)
		for i := range x {
			out[i] = x[i].negate()
		}
	case expr.KShl, expr.KLShr, expr.KAShr:
		out = b.blastShift(e)
	case expr.KEq:
		out = []lit{b.eqBits(b.blast(e.Args[0]), b.blast(e.Args[1]))}
	case expr.KUlt:
		out = []lit{b.ultBits(b.blast(e.Args[0]), b.blast(e.Args[1]))}
	case expr.KUle:
		out = []lit{b.ultBits(b.blast(e.Args[1]), b.blast(e.Args[0])).negate()}
	case expr.KSlt, expr.KSle:
		x, y := b.blast(e.Args[0]), b.blast(e.Args[1])
		// Flip sign bits to map signed order onto unsigned order.
		xf := append([]lit{}, x...)
		yf := append([]lit{}, y...)
		xf[len(xf)-1] = x[len(x)-1].negate()
		yf[len(yf)-1] = y[len(y)-1].negate()
		if e.Kind == expr.KSlt {
			out = []lit{b.ultBits(xf, yf)}
		} else {
			out = []lit{b.ultBits(yf, xf).negate()}
		}
	case expr.KIte:
		c := b.blast(e.Args[0])
		out = b.muxBits(c[0], b.blast(e.Args[1]), b.blast(e.Args[2]))
	case expr.KConcat:
		hi, lo := b.blast(e.Args[0]), b.blast(e.Args[1])
		out = append(append([]lit{}, lo...), hi...)
	case expr.KExtract:
		x := b.blast(e.Args[0])
		out = append([]lit{}, x[e.Lo:e.Lo+e.Width]...)
	case expr.KZExt:
		x := b.blast(e.Args[0])
		out = append([]lit{}, x...)
		for len(out) < w {
			out = append(out, b.litFalse)
		}
	case expr.KSExt:
		x := b.blast(e.Args[0])
		out = append([]lit{}, x...)
		sign := x[len(x)-1]
		for len(out) < w {
			out = append(out, sign)
		}
	default:
		b.err = fmt.Errorf("solver: cannot bit-blast %s", e.Kind)
		return b.dummy(w)
	}
	if b.err != nil {
		return b.dummy(w)
	}
	b.memo(e, out)
	return out
}

// blastShift lowers shifts with a barrel shifter.
func (b *blaster) blastShift(e *expr.Expr) []lit {
	w := int(e.Width)
	x := b.blast(e.Args[0])
	sh := b.blast(e.Args[1])
	if b.err != nil {
		return b.dummy(w)
	}
	cur := append([]lit{}, x...)
	fill := b.litFalse
	if e.Kind == expr.KAShr {
		fill = x[w-1]
	}
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	for k := 0; k < stages; k++ {
		amt := 1 << uint(k)
		shifted := make([]lit, w)
		for i := 0; i < w; i++ {
			switch e.Kind {
			case expr.KShl:
				if i >= amt {
					shifted[i] = cur[i-amt]
				} else {
					shifted[i] = b.litFalse
				}
			default: // LShr, AShr
				if i+amt < w {
					shifted[i] = cur[i+amt]
				} else {
					shifted[i] = fill
				}
			}
		}
		cur = b.muxBits(sh[k], shifted, cur)
	}
	// If any shift bit at position >= stages is set, the shift
	// amount is >= w.
	var high []lit
	for i := stages; i < len(sh); i++ {
		high = append(high, sh[i])
	}
	if len(high) > 0 {
		over := b.orAll(high)
		full := make([]lit, w)
		for i := range full {
			full[i] = fill
		}
		cur = b.muxBits(over, full, cur)
	}
	return cur
}

// blastDiv lowers division and remainder with a restoring long
// division circuit, with SMT-LIB semantics for zero divisors.
func (b *blaster) blastDiv(e *expr.Expr) []lit {
	w := int(e.Width)
	x := b.blast(e.Args[0])
	y := b.blast(e.Args[1])
	if b.err != nil {
		return b.dummy(w)
	}
	signed := e.Kind == expr.KSDiv || e.Kind == expr.KSRem
	xs, ys := x, y
	var sx, sy lit
	if signed {
		sx, sy = x[w-1], y[w-1]
		xs = b.muxBits(sx, b.negBits(x), x)
		ys = b.muxBits(sy, b.negBits(y), y)
	}
	// Restoring division on the (possibly absolute) values.
	rem := make([]lit, w)
	for i := range rem {
		rem[i] = b.litFalse
	}
	quo := make([]lit, w)
	for i := w - 1; i >= 0; i-- {
		// rem = (rem << 1) | x_i
		rem = append([]lit{xs[i]}, rem[:w-1]...)
		geq := b.ultBits(rem, ys).negate()
		inv := make([]lit, w)
		for j, l := range ys {
			inv[j] = l.negate()
		}
		sub := b.addBits(rem, inv, b.litTrue)
		rem = b.muxBits(geq, sub, rem)
		quo[i] = geq
	}
	var out []lit
	switch e.Kind {
	case expr.KUDiv, expr.KSDiv:
		out = quo
		if signed {
			neg := b.gateXor(sx, sy)
			out = b.muxBits(neg, b.negBits(quo), quo)
		}
	default:
		out = rem
		if signed {
			out = b.muxBits(sx, b.negBits(rem), rem)
		}
	}
	// Zero divisor. SMT-LIB: udiv x 0 = all ones, urem x 0 = x,
	// sdiv x 0 = (x >= 0 ? -1 : 1), srem x 0 = x.
	yZero := b.eqBits(y, b.constBits(0, w))
	var zv []lit
	switch e.Kind {
	case expr.KUDiv:
		zv = b.constBits(^uint64(0), w)
	case expr.KURem, expr.KSRem:
		zv = x
	case expr.KSDiv:
		zv = b.muxBits(x[w-1], b.constBits(1, w), b.constBits(^uint64(0), w))
	}
	return b.muxBits(yZero, zv, out)
}

func (b *blaster) constBits(v uint64, w int) []lit {
	out := make([]lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.constLit(v>>uint(i)&1 == 1)
	}
	return out
}

// assert adds the constraint that boolean expression e is true.
func (b *blaster) assert(e *expr.Expr) {
	bs := b.blast(e)
	if b.err != nil {
		return
	}
	if len(bs) != 1 {
		b.err = fmt.Errorf("solver: asserting non-boolean of width %d", len(bs))
		return
	}
	// A clause system that fails at level 0 marks the SAT core
	// failed, and its solve reports unsat.
	b.s.addClause([]lit{bs[0]})
}

// modelValue reads back the model value of bit literals bs.
func (b *blaster) modelValue(bs []lit) uint64 {
	var v uint64
	for i, l := range bs {
		// isConstLit compares against the signed litTrue/litFalse
		// literals, so its answer already folds in l's sign — only
		// model-read bits still need the flip.
		bit, isC := b.isConstLit(l)
		if !isC {
			bit = b.s.modelValue(l.vindex())
			if l.sign() {
				bit = !bit
			}
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}
