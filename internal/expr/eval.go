package expr

import "fmt"

// Assignment maps variable names to concrete values: bitvector
// variables to uint64 values (truncated to their width) and array
// variables to index→value maps with a default.
type Assignment struct {
	Vars   map[string]uint64
	Arrays map[string]*ArrayValue
}

// ArrayValue is a concrete array: explicit entries over a default.
type ArrayValue struct {
	Elems   map[uint64]uint64
	Default uint64
}

// Get returns the value at index i.
func (a *ArrayValue) Get(i uint64) uint64 {
	if v, ok := a.Elems[i]; ok {
		return v
	}
	return a.Default
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{Vars: make(map[string]uint64), Arrays: make(map[string]*ArrayValue)}
}

// evalCtx carries the per-evaluation memo tables. Expression nodes
// are interned DAGs with heavy sharing (a symbolic store chain's path
// constraint references the same subterms thousands of times), so
// un-memoized recursion is exponential; the memo makes one evaluation
// linear in distinct nodes. Keys are node pointers — valid for the
// lifetime of one evaluation regardless of which builder interned
// them.
type evalCtx struct {
	asn   *Assignment
	memo  map[*Expr]uint64
	amemo map[*Expr]*ArrayValue
}

// evalArray evaluates an array-sorted expression to a concrete
// ArrayValue.
func (ctx *evalCtx) evalArray(e *Expr) (*ArrayValue, error) {
	if av, ok := ctx.amemo[e]; ok {
		return av, nil
	}
	av, err := ctx.evalArrayUncached(e)
	if err != nil {
		return nil, err
	}
	if ctx.amemo == nil {
		ctx.amemo = make(map[*Expr]*ArrayValue)
	}
	ctx.amemo[e] = av
	return av, nil
}

func (ctx *evalCtx) evalArrayUncached(e *Expr) (*ArrayValue, error) {
	switch e.Kind {
	case KArrayVar:
		if av, ok := ctx.asn.Arrays[e.Name]; ok {
			return av, nil
		}
		// Unassigned arrays default to all-zero.
		return &ArrayValue{Elems: map[uint64]uint64{}}, nil
	case KConstArray:
		d, err := ctx.eval(e.Args[0])
		if err != nil {
			return nil, err
		}
		return &ArrayValue{Elems: map[uint64]uint64{}, Default: d}, nil
	case KStore:
		base, err := ctx.evalArray(e.Args[0])
		if err != nil {
			return nil, err
		}
		idx, err := ctx.eval(e.Args[1])
		if err != nil {
			return nil, err
		}
		val, err := ctx.eval(e.Args[2])
		if err != nil {
			return nil, err
		}
		elems := make(map[uint64]uint64, len(base.Elems)+1)
		for k, v := range base.Elems {
			elems[k] = v
		}
		elems[idx] = val
		return &ArrayValue{Elems: elems, Default: base.Default}, nil
	case KIte:
		c, err := ctx.eval(e.Args[0])
		if err != nil {
			return nil, err
		}
		if c != 0 {
			return ctx.evalArray(e.Args[1])
		}
		return ctx.evalArray(e.Args[2])
	}
	return nil, fmt.Errorf("expr: evalArray on %s", e.Kind)
}

// Eval evaluates a bitvector expression under the assignment,
// returning the value truncated to the expression's width. Unassigned
// variables evaluate to zero.
func (asn *Assignment) Eval(e *Expr) (uint64, error) {
	// Leaves skip the memo allocation entirely.
	switch e.Kind {
	case KConst:
		return e.Val, nil
	case KVar:
		return Truncate(asn.Vars[e.Name], e.Width), nil
	}
	ctx := &evalCtx{asn: asn, memo: make(map[*Expr]uint64)}
	return ctx.eval(e)
}

func (ctx *evalCtx) eval(e *Expr) (uint64, error) {
	switch e.Kind {
	case KConst:
		return e.Val, nil
	case KVar:
		return Truncate(ctx.asn.Vars[e.Name], e.Width), nil
	}
	if v, ok := ctx.memo[e]; ok {
		return v, nil
	}
	v, err := ctx.evalUncached(e)
	if err != nil {
		return 0, err
	}
	ctx.memo[e] = v
	return v, nil
}

func (ctx *evalCtx) evalUncached(e *Expr) (uint64, error) {
	if e.Kind == KSelect {
		arr, err := ctx.evalArray(e.Args[0])
		if err != nil {
			return 0, err
		}
		idx, err := ctx.eval(e.Args[1])
		if err != nil {
			return 0, err
		}
		return Truncate(arr.Get(idx), e.Width), nil
	}
	// Evaluate bitvector operands.
	var a, c, d uint64
	var err error
	if len(e.Args) > 0 && !e.Args[0].IsArray() {
		if a, err = ctx.eval(e.Args[0]); err != nil {
			return 0, err
		}
	}
	if len(e.Args) > 1 && !e.Args[1].IsArray() {
		if c, err = ctx.eval(e.Args[1]); err != nil {
			return 0, err
		}
	}
	if len(e.Args) > 2 && !e.Args[2].IsArray() {
		if d, err = ctx.eval(e.Args[2]); err != nil {
			return 0, err
		}
	}
	switch e.Kind {
	case KEq:
		if e.Args[0].IsArray() {
			return 0, fmt.Errorf("expr: array equality not supported")
		}
	case KIte:
		if e.Args[1].IsArray() {
			return 0, fmt.Errorf("expr: Eval of array-sorted ite")
		}
	}
	var aw uint
	if len(e.Args) > 0 {
		aw = e.Args[0].Width
	}
	if v, ok := compute(e.Kind, e.Width, aw, e.Lo, a, c, d); ok {
		return v, nil
	}
	return 0, fmt.Errorf("expr: Eval of %s", e.Kind)
}

// compute returns the value of a kind-k node whose operands have the
// values a, c and d, each within its operand's width. It is the one
// definition of what every operator computes: the evaluator checks
// solver models with it, the Builder folds constant operands through
// it, and symex's native ALU reaches it through BinOp. w is the node's
// width, aw its first operand's width and lo an extract's low bit.
// Division by zero follows SMT-LIB. ok is false for leaves and the
// array kinds, which are not operators over bitvector values.
func compute(k Kind, w, aw, lo uint, a, c, d uint64) (v uint64, ok bool) {
	switch k {
	case KAdd:
		return Truncate(a+c, w), true
	case KSub:
		return Truncate(a-c, w), true
	case KMul:
		return Truncate(a*c, w), true
	case KUDiv:
		if c == 0 {
			return mask(w), true
		}
		return Truncate(a/c, w), true
	case KURem:
		if c == 0 {
			return a, true
		}
		return Truncate(a%c, w), true
	case KSDiv:
		xa, xc := SignExtendValue(a, aw), SignExtendValue(c, aw)
		if xc == 0 {
			if xa >= 0 {
				return mask(w), true
			}
			return 1, true
		}
		if xc == -1 && xa == -9223372036854775808 {
			return a, true // MIN/-1 wraps to MIN in two's complement
		}
		return Truncate(uint64(xa/xc), w), true
	case KSRem:
		xa, xc := SignExtendValue(a, aw), SignExtendValue(c, aw)
		if xc == 0 {
			return a, true
		}
		if xc == -1 {
			return 0, true
		}
		return Truncate(uint64(xa%xc), w), true
	case KAnd:
		return a & c, true
	case KOr:
		return a | c, true
	case KXor:
		return a ^ c, true
	case KNot:
		return Truncate(^a, w), true
	case KNeg:
		return Truncate(-a, w), true
	case KShl:
		if c >= uint64(w) {
			return 0, true
		}
		return Truncate(a<<c, w), true
	case KLShr:
		if c >= uint64(w) {
			return 0, true
		}
		return a >> c, true
	case KAShr:
		sh := c
		if sh >= uint64(w) {
			sh = uint64(w) - 1
		}
		return Truncate(uint64(SignExtendValue(a, aw)>>sh), w), true
	case KEq:
		return bit(a == c), true
	case KUlt:
		return bit(a < c), true
	case KUle:
		return bit(a <= c), true
	case KSlt:
		return bit(SignExtendValue(a, aw) < SignExtendValue(c, aw)), true
	case KSle:
		return bit(SignExtendValue(a, aw) <= SignExtendValue(c, aw)), true
	case KIte:
		if a != 0 {
			return c, true
		}
		return d, true
	case KConcat:
		return Truncate(a<<(w-aw)|Truncate(c, w-aw), w), true
	case KExtract:
		return Truncate(a>>lo, w), true
	case KZExt:
		return Truncate(a, aw), true
	case KSExt:
		return Truncate(uint64(SignExtendValue(a, aw)), w), true
	}
	return 0, false
}

// BinOp computes the binary operator k over the low w bits of a and c:
// the value the Builder folds k's constant operands to. For comparison
// kinds the result is 0 or 1.
func BinOp(k Kind, w uint, a, c uint64) uint64 {
	v, ok := compute(k, w, w, 0, Truncate(a, w), Truncate(c, w), 0)
	if !ok {
		panic("expr: BinOp of " + k.String())
	}
	return v
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// MustEval evaluates e and panics on structural errors; intended for
// tests and for verification of solver models.
func (asn *Assignment) MustEval(e *Expr) uint64 {
	v, err := asn.Eval(e)
	if err != nil {
		panic(err)
	}
	return v
}

// Satisfies reports whether every constraint in cs evaluates to true.
// One memo spans the whole set, so shared subterms across constraints
// are evaluated once.
func (asn *Assignment) Satisfies(cs []*Expr) (bool, error) {
	ctx := &evalCtx{asn: asn, memo: make(map[*Expr]uint64)}
	for _, c := range cs {
		v, err := ctx.eval(c)
		if err != nil {
			return false, err
		}
		if v == 0 {
			return false, nil
		}
	}
	return true, nil
}

// Vars returns the distinct KVar and KArrayVar leaves in e.
func VarsOf(e *Expr) []*Expr {
	var vars []*Expr
	Walk(e, func(x *Expr) {
		if x.Kind == KVar || x.Kind == KArrayVar {
			vars = append(vars, x)
		}
	})
	return vars
}
