package absint

import "execrecon/internal/expr"

// This file is the solver-facing half of the abstract interpreter: it
// evaluates a constraint set over the expr DAG in the interval +
// known-bits domain, refines per-variable facts from the constraints
// themselves, and tries to discharge the query without bit-blasting.
//
// Soundness contract:
//
//   - Unsat verdicts are proven by over-approximation: the refined
//     environment contains every model of the conjunction, so if some
//     constraint cannot evaluate to true under it, no model exists.
//   - Sat verdicts are only ever produced by guess-and-check — a
//     candidate assignment drawn from the refined intervals and
//     validated concretely with Assignment.Satisfies. An unvalidated
//     guess never escapes.
//   - Vars facts are query-refined: they hold only for models of this
//     constraint set and must not leak into other queries.
//
// Division follows the expr layer's total SMT-LIB semantics (udiv by
// zero yields all-ones, urem by zero yields the dividend, …), which
// differ from the VM's fail-on-zero-divisor semantics used by the
// IR-level transfer functions in ops.go.

// QueryOptions tunes AnalyzeQuery.
type QueryOptions struct {
	// MaxRounds bounds constraint-refinement iterations (default 3).
	MaxRounds int
	// WantModel enables the guess-and-check Sat attempt.
	WantModel bool
}

func (o QueryOptions) withDefaults() QueryOptions {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 3
	}
	return o
}

// Verdict is the abstract answer for a constraint set.
type Verdict uint8

// Verdicts. Unknown means the abstraction could not decide; Sat and
// Unsat are definitive (Sat is concretely validated, Unsat proven).
const (
	VerdictUnknown Verdict = iota
	VerdictSat
	VerdictUnsat
)

func (v Verdict) String() string {
	switch v {
	case VerdictSat:
		return "sat"
	case VerdictUnsat:
		return "unsat"
	}
	return "unknown"
}

// QueryResult is the outcome of AnalyzeQuery.
type QueryResult struct {
	Verdict Verdict
	// Model is a concretely validated satisfying assignment; non-nil
	// exactly when Verdict is VerdictSat.
	Model *expr.Assignment
	// Vars maps variable names to query-refined facts (normalised to
	// the variable's width). Valid only for this constraint set.
	Vars map[string]Val
}

// maxModelVars bounds the guess-and-check attempt: with more distinct
// variables the chance of a blind hit is negligible and enumerating
// candidates only burns time.
const maxModelVars = 32

// AnalyzeQuery evaluates the conjunction of cs in the abstract domain.
func AnalyzeQuery(cs []*expr.Expr, opt QueryOptions) *QueryResult {
	opt = opt.withDefaults()
	res := &QueryResult{Verdict: VerdictUnknown}
	q := &qstate{
		env:  make(map[string]Val),
		memo: make(map[*expr.Expr]Val),
	}

	// Universal pass: facts valid for every assignment.
	for _, c := range cs {
		v := q.eval(c)
		if !v.IsBottom() && v.Hi == 0 {
			res.Verdict = VerdictUnsat // constraint is false outright
			return res
		}
	}

	// Refinement rounds: push constraint truth back into variables.
	for r := 0; r < opt.MaxRounds && !q.bottom; r++ {
		changed := false
		for _, c := range cs {
			if q.refine(c, true) {
				changed = true
			}
			if q.bottom {
				break
			}
		}
		if !changed {
			break
		}
		q.memo = make(map[*expr.Expr]Val) // env changed; memo is stale
	}

	if q.bottom {
		res.Verdict = VerdictUnsat
		return res
	}
	for _, c := range cs {
		v := q.eval(c)
		if v.IsBottom() || v.Hi == 0 {
			res.Verdict = VerdictUnsat
			return res
		}
	}

	res.Vars = q.env
	if opt.WantModel {
		if asn := q.tryModel(cs); asn != nil {
			res.Verdict = VerdictSat
			res.Model = asn
		}
	}
	return res
}

// qstate is the per-query evaluation state.
type qstate struct {
	env    map[string]Val     // variable name -> refined fact
	memo   map[*expr.Expr]Val // node -> value under env (per round)
	bottom bool               // refinement derived a contradiction
}

func (q *qstate) varVal(e *expr.Expr) Val {
	if v, ok := q.env[e.Name]; ok {
		return v
	}
	return Top(e.Width)
}

// setVar meets v into the variable's fact, reporting change and
// recording a contradiction when the meet is empty.
func (q *qstate) setVar(e *expr.Expr, v Val) bool {
	old := q.varVal(e)
	nv := old.Meet(v, e.Width)
	if nv.IsBottom() {
		q.bottom = true
	}
	if nv == old {
		return false
	}
	q.env[e.Name] = nv
	return true
}

// eval computes the abstract value of e under the current environment.
// Results are memoised per refinement round (the DAG is shared).
func (q *qstate) eval(e *expr.Expr) Val {
	if v, ok := q.memo[e]; ok {
		return v
	}
	v := q.evalRaw(e)
	q.memo[e] = v
	return v
}

func (q *qstate) evalRaw(e *expr.Expr) Val {
	w := e.Width
	if e.IsArray() {
		return Top(w) // array-sorted; only reachable via guards below
	}
	switch e.Kind {
	case expr.KConst:
		return ConstV(e.Val, w)
	case expr.KVar:
		return q.varVal(e)
	case expr.KSelect:
		return Top(w) // memory contents are opaque to the domain
	case expr.KNot:
		return notVal(q.eval(e.Args[0]), w)
	case expr.KNeg:
		return SubV(ConstV(0, w), q.eval(e.Args[0]), w)
	case expr.KIte:
		if e.Args[1].IsArray() {
			return Top(w)
		}
		c := q.eval(e.Args[0])
		if c.IsBottom() {
			return Bottom()
		}
		if c.Lo >= 1 {
			return q.eval(e.Args[1])
		}
		if c.Hi == 0 {
			return q.eval(e.Args[2])
		}
		return q.eval(e.Args[1]).Join(q.eval(e.Args[2]), w)
	case expr.KConcat:
		loW := e.Args[1].Width
		hi := q.eval(e.Args[0])
		lo := q.eval(e.Args[1]).TruncTo(loW)
		sh := ShlV(hi, ConstV(uint64(loW), 64), w)
		return OrV(sh, lo, w)
	case expr.KExtract:
		v := q.eval(e.Args[0])
		v = LShrV(v, ConstV(uint64(e.Lo), 64), e.Args[0].Width)
		return v.TruncTo(w)
	case expr.KZExt:
		v := q.eval(e.Args[0])
		if v.IsBottom() {
			return v
		}
		return norm(v, w) // high bits become known-zero
	case expr.KSExt:
		return q.eval(e.Args[0]).SextFrom(e.Args[0].Width).TruncTo(w)
	}

	// Remaining kinds are binary over equal-width operands.
	if len(e.Args) != 2 {
		return Top(w)
	}
	if e.Args[0].IsArray() || e.Args[1].IsArray() {
		if e.Kind == expr.KEq {
			return boolTop()
		}
		return Top(w)
	}
	aw := e.Args[0].Width
	a, b := q.eval(e.Args[0]), q.eval(e.Args[1])
	switch e.Kind {
	case expr.KAdd:
		return AddV(a, b, w)
	case expr.KSub:
		return SubV(a, b, w)
	case expr.KMul:
		return MulV(a, b, w)
	case expr.KUDiv:
		return qUDiv(a, b, w)
	case expr.KURem:
		return qURem(a, b, w)
	case expr.KSDiv:
		return qSDiv(a, b, w)
	case expr.KSRem:
		return qSRem(a, b, w)
	case expr.KAnd:
		return AndV(a, b, w)
	case expr.KOr:
		return OrV(a, b, w)
	case expr.KXor:
		return XorV(a, b, w)
	case expr.KShl:
		return ShlV(a, b, w)
	case expr.KLShr:
		return LShrV(a, b, w)
	case expr.KAShr:
		return qAShr(a, b, w)
	case expr.KEq:
		return EqV(a, b, aw)
	case expr.KUlt:
		return UltV(a, b, aw)
	case expr.KUle:
		return UleV(a, b, aw)
	case expr.KSlt:
		return SltV(a, b, aw)
	case expr.KSle:
		return SleV(a, b, aw)
	}
	return Top(w)
}

// qUDiv is KUDiv with SMT-LIB total semantics: x udiv 0 = all-ones.
// UDivV models only the nonzero-divisor behaviour (its result is
// Bottom when the divisor must be zero), so the zero case joins in.
func qUDiv(a, b Val, w uint) Val {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	res := UDivV(a, b, w)
	if b.Contains(0) {
		res = ConstV(mask(w), w).Join(res, w)
	}
	return res
}

// qURem is KURem with total semantics: x urem 0 = x.
func qURem(a, b Val, w uint) Val {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	res := URemV(a, b, w)
	if b.Contains(0) {
		res = a.Join(res, w)
	}
	return res
}

// qSDiv is KSDiv with total semantics: x sdiv 0 = all-ones when x is
// non-negative, 1 when negative (SMT-LIB bvsdiv over bvudiv).
func qSDiv(a, b Val, w uint) Val {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if ca, aok := a.IsConst(); aok {
		if cb, bok := b.IsConst(); bok {
			xa, xb := expr.SignExtendValue(ca, w), expr.SignExtendValue(cb, w)
			switch {
			case xb == 0:
				if xa >= 0 {
					return ConstV(mask(w), w)
				}
				return ConstV(1, w)
			case xb == -1 && xa == -1<<63:
				return ConstV(ca, w)
			default:
				return ConstV(uint64(xa/xb)&mask(w), w)
			}
		}
	}
	res := SDivV(a, b, w)
	if b.Contains(0) {
		lo, hi := signedBounds(a, w)
		var z Val
		switch {
		case lo >= 0:
			z = ConstV(mask(w), w)
		case hi < 0:
			z = ConstV(1, w)
		default:
			z = ConstV(mask(w), w).Join(ConstV(1, w), w)
		}
		res = z.Join(res, w)
	}
	return res
}

// qSRem is KSRem with total semantics: x srem 0 = x, x srem -1 = 0.
func qSRem(a, b Val, w uint) Val {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if ca, aok := a.IsConst(); aok {
		if cb, bok := b.IsConst(); bok {
			xa, xb := expr.SignExtendValue(ca, w), expr.SignExtendValue(cb, w)
			switch {
			case xb == 0:
				return ConstV(ca, w)
			case xb == -1:
				return ConstV(0, w)
			default:
				return ConstV(uint64(xa%xb)&mask(w), w)
			}
		}
	}
	res := SRemV(a, b, w)
	if b.Contains(0) {
		res = a.Join(res, w)
	}
	return res
}

// qAShr is KAShr with expr semantics: shifts of w or more sign-fill
// (the shift clamps to w-1) instead of the VM's modular behaviour.
func qAShr(a, b Val, w uint) Val {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if ca, aok := a.IsConst(); aok {
		if cb, bok := b.IsConst(); bok {
			sh := cb
			if sh >= uint64(w) {
				sh = uint64(w) - 1
			}
			return ConstV(uint64(expr.SignExtendValue(ca, w)>>sh)&mask(w), w)
		}
	}
	if lo, _ := signedBounds(a, w); lo >= 0 {
		// Non-negative operand: sign fill is zero fill, and a clamped
		// shift only yields values LShrV's range already covers.
		return LShrV(a, b, w)
	}
	return Top(w)
}

// refine narrows variable facts so that e evaluates to want, reporting
// whether any fact changed. Only sound narrowings are applied: every
// model making e equal want stays inside the refined environment.
func (q *qstate) refine(e *expr.Expr, want bool) bool {
	if e.IsArray() || q.bottom {
		return false
	}
	switch e.Kind {
	case expr.KNot:
		if e.Width == 1 {
			return q.refine(e.Args[0], !want)
		}
	case expr.KAnd:
		if e.Width == 1 && want {
			c1 := q.refine(e.Args[0], true)
			c2 := q.refine(e.Args[1], true)
			return c1 || c2
		}
	case expr.KOr:
		if e.Width == 1 && !want {
			c1 := q.refine(e.Args[0], false)
			c2 := q.refine(e.Args[1], false)
			return c1 || c2
		}
	case expr.KEq:
		if e.Args[0].IsArray() {
			return false
		}
		a, b := e.Args[0], e.Args[1]
		va, vb := q.eval(a), q.eval(b)
		w := a.Width
		if want {
			m := va.Meet(vb, w)
			c1 := q.assignBack(a, m)
			c2 := q.assignBack(b, m)
			return c1 || c2
		}
		if c, ok := vb.IsConst(); ok {
			return q.assignBack(a, excludeConst(va, c, w))
		}
		if c, ok := va.IsConst(); ok {
			return q.assignBack(b, excludeConst(vb, c, w))
		}
	case expr.KUlt, expr.KUle, expr.KSlt, expr.KSle:
		return q.refineOrder(e, want)
	case expr.KVar:
		if e.Width == 1 {
			if want {
				return q.setVar(e, ConstV(1, 1))
			}
			return q.setVar(e, ConstV(0, 1))
		}
	}
	return false
}

// refineOrder narrows both sides of a comparison. Signed comparisons
// refine only when both operands provably sit in the non-negative
// half, where signed and unsigned order coincide.
func (q *qstate) refineOrder(e *expr.Expr, want bool) bool {
	a, b := e.Args[0], e.Args[1]
	w := a.Width
	va, vb := q.eval(a).demote().TruncTo(w), q.eval(b).demote().TruncTo(w)
	if va.IsBottom() || vb.IsBottom() {
		return false
	}
	kind := e.Kind
	if kind == expr.KSlt || kind == expr.KSle {
		if !signedNonNeg(va, w) || !signedNonNeg(vb, w) {
			return q.refineSignedOneSided(e, want, va, vb)
		}
		if kind == expr.KSlt {
			kind = expr.KUlt
		} else {
			kind = expr.KUle
		}
	}
	m := mask(w)
	var ra, rb Val
	switch {
	case kind == expr.KUlt && want: // a < b
		if vb.Hi == 0 {
			q.bottom = true
			return false
		}
		ra, rb = Range(0, vb.Hi-1, w), rangeFrom(va.Lo+1, m, w)
	case kind == expr.KUlt && !want: // a >= b
		ra, rb = Range(vb.Lo, m, w), Range(0, va.Hi, w)
	case kind == expr.KUle && want: // a <= b
		ra, rb = Range(0, vb.Hi, w), Range(va.Lo, m, w)
	default: // a > b
		if va.Hi == 0 {
			q.bottom = true
			return false
		}
		ra, rb = rangeFrom(vb.Lo+1, m, w), Range(0, va.Hi-1, w)
	}
	c1 := q.assignBack(a, ra)
	c2 := q.assignBack(b, rb)
	return c1 || c2
}

// refineSignedOneSided handles signed comparisons where only one side
// is provably non-negative: the constraint then forces the other side
// into the non-negative half too, where signed order is unsigned
// order. E.g. slt 0 x (true) pins x to [1, 2^(w-1)-1] even though x
// itself started Top. The side that stays possibly-negative cannot be
// refined (its signed range is not an unsigned interval), but a later
// fixpoint round sees the newly non-negative value and takes the
// precise two-sided path.
func (q *qstate) refineSignedOneSided(e *expr.Expr, want bool, va, vb Val) bool {
	a, b := e.Args[0], e.Args[1]
	w := a.Width
	smax := mask(w) >> 1
	lt := e.Kind == expr.KSlt
	switch {
	case lt && want: // a < b signed
		if signedNonNeg(va, w) { // b > a >= 0
			if va.Lo == smax {
				q.bottom = true
				return false
			}
			return q.assignBack(b, Range(va.Lo+1, smax, w))
		}
	case lt && !want: // a >= b signed
		if signedNonNeg(vb, w) { // a >= b >= 0
			return q.assignBack(a, Range(vb.Lo, smax, w))
		}
	case !lt && want: // a <= b signed
		if signedNonNeg(va, w) { // b >= a >= 0
			return q.assignBack(b, Range(va.Lo, smax, w))
		}
	default: // a > b signed
		if signedNonNeg(vb, w) { // a > b >= 0
			if vb.Lo == smax {
				q.bottom = true
				return false
			}
			return q.assignBack(a, Range(vb.Lo+1, smax, w))
		}
	}
	return false
}

// rangeFrom is Range that tolerates lo having wrapped past the mask
// (lo > hi means the bound is vacuous -> Top).
func rangeFrom(lo, hi uint64, w uint) Val {
	if lo > hi {
		return Top(w)
	}
	return Range(lo, hi, w)
}

// assignBack meets fact v into the variables under e, inverting the
// few syntactic shapes that can be inverted exactly: zext, add/sub
// with a constant, and and-with-constant-mask. Reports change.
func (q *qstate) assignBack(e *expr.Expr, v Val) bool {
	if v.IsBottom() {
		q.bottom = true
		return false
	}
	// A 1-bit composite pinned to a constant is a boolean fact about
	// its operands: re-enter refine with the forced truth value. This
	// unlocks the engine's dominant query shape, eq(zext(pred), 0).
	if e.Width == 1 && e.Kind != expr.KVar && e.Kind != expr.KConst {
		if c, ok := v.IsConst(); ok {
			return q.refine(e, c == 1)
		}
	}
	switch e.Kind {
	case expr.KVar:
		return q.setVar(e, v)
	case expr.KZExt:
		x := e.Args[0]
		if x.IsArray() {
			return false
		}
		// value(e) == value(x); x just cannot exceed its own width.
		return q.assignBack(x, v.Meet(Top(x.Width), x.Width))
	case expr.KAdd:
		// x + c == v  =>  x == v - c (modular; SubV over-approximates)
		if c, ok := constSide(e.Args[1]); ok {
			return q.assignBack(e.Args[0], SubV(v, ConstV(c, e.Width), e.Width))
		}
		if c, ok := constSide(e.Args[0]); ok {
			return q.assignBack(e.Args[1], SubV(v, ConstV(c, e.Width), e.Width))
		}
	case expr.KSub:
		// x - c == v  =>  x == v + c
		if c, ok := constSide(e.Args[1]); ok {
			return q.assignBack(e.Args[0], AddV(v, ConstV(c, e.Width), e.Width))
		}
	case expr.KAnd:
		// x & c == const  =>  the bits selected by c are known in x.
		cv, okc := constSide(e.Args[1])
		t := e.Args[0]
		if !okc {
			cv, okc = constSide(e.Args[0])
			t = e.Args[1]
		}
		if okc {
			if bitsv, ok := v.IsConst(); ok && bitsv&^cv == 0 {
				known := norm(Val{Lo: 0, Hi: mask(e.Width), Mask: cv, Bits: bitsv}, e.Width)
				return q.assignBack(t, known)
			}
		}
	}
	return false
}

func constSide(e *expr.Expr) (uint64, bool) {
	if e.Kind == expr.KConst {
		return e.Val, true
	}
	return 0, false
}

// tryModel attempts a satisfying assignment by sampling corner points
// of the refined intervals and validating concretely. Array variables
// are left unassigned (Assignment.Eval defaults them to all-zero).
func (q *qstate) tryModel(cs []*expr.Expr) *expr.Assignment {
	var vars []*expr.Expr
	seen := make(map[string]bool)
	for _, c := range cs {
		for _, v := range expr.VarsOf(c) {
			if v.Kind != expr.KVar || seen[v.Name] {
				continue
			}
			seen[v.Name] = true
			vars = append(vars, v)
		}
	}
	if len(vars) > maxModelVars {
		return nil
	}
	cands := make([][]uint64, len(vars))
	for i, v := range vars {
		cands[i] = candidatePoints(q.varVal(v))
		if len(cands[i]) == 0 {
			return nil
		}
	}
	// Three probes: all-low, all-high, all-middle corner points.
	for probe := 0; probe < 3; probe++ {
		asn := expr.NewAssignment()
		for i, v := range vars {
			pts := cands[i]
			k := 0
			switch probe {
			case 1:
				k = len(pts) - 1
			case 2:
				k = len(pts) / 2
			}
			asn.Vars[v.Name] = pts[k]
		}
		if ok, err := asn.Satisfies(cs); err == nil && ok {
			return asn
		}
	}
	return nil
}

// candidatePoints lists plausible concrete values of v, deduplicated,
// each verified to lie inside v.
func candidatePoints(v Val) []uint64 {
	if v.IsBottom() {
		return nil
	}
	v = v.demote()
	var out []uint64
	add := func(x uint64) {
		if !v.Contains(x) {
			return
		}
		for _, y := range out {
			if y == x {
				return
			}
		}
		out = append(out, x)
	}
	add(v.Lo&^v.Mask | v.Bits)
	add(v.Lo)
	add(v.Bits)
	add(v.Hi&^v.Mask | v.Bits)
	add(v.Hi)
	return out
}
