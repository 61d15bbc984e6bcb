// Package expr implements a hash-consed expression DAG over fixed-width
// bitvectors and arrays, the term language shared by the shepherded
// symbolic executor (internal/symex), the constraint solver
// (internal/solver), and the constraint-graph analysis (internal/cgraph).
//
// Booleans are represented as bitvectors of width 1, which keeps the
// node vocabulary small and mirrors the encoding used by bit-blasting
// SMT solvers such as STP, whose internal structure inspired the
// constraint graph of the paper (§3.2).
//
// All nodes are created through a Builder, which interns structurally
// identical nodes and applies local simplification rules at build time.
// Node identity (pointer equality) therefore coincides with structural
// equality for nodes produced by the same Builder.
//
// What each operator computes is defined once, by compute in eval.go.
// The evaluator checks solver models with it, the Builder folds every
// operator whose operands are all constants through it, and symex's
// native ALU for slice-pruned steps reaches it through BinOp, so a
// value the engine computes natively is the value the builder would
// have folded. internal/vm's EvalBin is kept apart on purpose: the VM
// is the production machine and the final verification re-run, so it
// stays an independent implementation, and a symex test cross-checks
// the two (they differ only on zero divisors, where the VM faults and
// expr follows SMT-LIB).
package expr

import (
	"fmt"
	"strings"
)

// Kind enumerates expression node kinds.
type Kind uint8

// Node kinds. Arithmetic and comparison kinds operate on bitvectors of
// equal width; comparison kinds yield width-1 results.
const (
	KInvalid Kind = iota

	// Leaves.
	KConst    // constant bitvector, value in Val
	KVar      // free bitvector variable (symbolic input)
	KArrayVar // free array variable (symbolic memory object)

	// Bitvector arithmetic.
	KAdd
	KSub
	KMul
	KUDiv
	KURem
	KSDiv
	KSRem

	// Bitwise.
	KAnd
	KOr
	KXor
	KNot
	KNeg
	KShl
	KLShr
	KAShr

	// Comparisons (result width 1).
	KEq
	KUlt
	KUle
	KSlt
	KSle

	// Structure.
	KIte     // Args[0] cond (w1), Args[1], Args[2]
	KConcat  // Args[0] high bits, Args[1] low bits
	KExtract // bits [Lo, Lo+Width) of Args[0]
	KZExt
	KSExt

	// Arrays. Array values map IdxWidth-bit indices to Width-bit
	// elements.
	KSelect     // Args[0] array, Args[1] index
	KStore      // Args[0] array, Args[1] index, Args[2] value
	KConstArray // array with every element equal to Args[0]
)

var kindNames = map[Kind]string{
	KConst: "const", KVar: "var", KArrayVar: "arrayvar",
	KAdd: "add", KSub: "sub", KMul: "mul", KUDiv: "udiv", KURem: "urem",
	KSDiv: "sdiv", KSRem: "srem",
	KAnd: "and", KOr: "or", KXor: "xor", KNot: "not", KNeg: "neg",
	KShl: "shl", KLShr: "lshr", KAShr: "ashr",
	KEq: "eq", KUlt: "ult", KUle: "ule", KSlt: "slt", KSle: "sle",
	KIte: "ite", KConcat: "concat", KExtract: "extract",
	KZExt: "zext", KSExt: "sext",
	KSelect: "select", KStore: "store", KConstArray: "constarray",
}

// String returns the lower-case mnemonic of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Expr is an immutable expression node. Do not construct directly; use
// a Builder.
type Expr struct {
	Kind Kind
	// Width is the bitvector width of the node's value, or the
	// element width for array-sorted nodes. Widths are limited to
	// 1..64.
	Width uint
	// IdxWidth is the index width for array-sorted nodes, zero
	// otherwise.
	IdxWidth uint
	// Val holds the constant value for KConst (truncated to Width
	// bits).
	Val uint64
	// Name identifies KVar and KArrayVar leaves.
	Name string
	// Lo is the low bit position for KExtract.
	Lo uint
	// Args are the operand nodes.
	Args []*Expr

	id uint64
}

// ID returns a builder-unique identifier, useful as a map key where
// pointer identity is inconvenient.
func (e *Expr) ID() uint64 { return e.id }

// IsArray reports whether the node denotes an array value.
func (e *Expr) IsArray() bool {
	switch e.Kind {
	case KArrayVar, KStore, KConstArray:
		return true
	}
	return false
}

// IsConst reports whether the node is a constant bitvector.
func (e *Expr) IsConst() bool { return e.Kind == KConst }

// IsBool reports whether the node is a 1-bit (boolean) value.
func (e *Expr) IsBool() bool { return !e.IsArray() && e.Width == 1 }

// IsTrue reports whether e is the 1-bit constant 1.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 1 }

// IsFalse reports whether e is the 1-bit constant 0.
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.Width == 1 && e.Val == 0 }

// mask returns the w-bit mask.
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// Truncate truncates v to w bits.
func Truncate(v uint64, w uint) uint64 { return v & mask(w) }

// SignExtendValue sign-extends the w-bit value v to 64 bits.
func SignExtendValue(v uint64, w uint) int64 {
	v = Truncate(v, w)
	if w == 64 || v&(1<<(w-1)) == 0 {
		return int64(v)
	}
	return int64(v | ^mask(w))
}

// String renders the expression as an s-expression, with sharing not
// shown (subtrees may repeat).
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

func (e *Expr) write(b *strings.Builder, depth int) {
	if depth > 12 {
		b.WriteString("...")
		return
	}
	switch e.Kind {
	case KConst:
		fmt.Fprintf(b, "%d:%d", e.Val, e.Width)
	case KVar:
		fmt.Fprintf(b, "%s:%d", e.Name, e.Width)
	case KArrayVar:
		fmt.Fprintf(b, "%s:[%d=>%d]", e.Name, e.IdxWidth, e.Width)
	case KExtract:
		fmt.Fprintf(b, "(extract %d+%d ", e.Lo, e.Width)
		e.Args[0].write(b, depth+1)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.Kind.String())
		for _, a := range e.Args {
			b.WriteByte(' ')
			a.write(b, depth+1)
		}
		b.WriteByte(')')
	}
}

// Size returns the number of distinct nodes reachable from e.
func (e *Expr) Size() int {
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	var n int
	walk = func(x *Expr) {
		if seen[x] {
			return
		}
		seen[x] = true
		n++
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(e)
	return n
}

// Walk calls fn for every distinct node reachable from e, parents
// before children.
func Walk(e *Expr, fn func(*Expr)) { WalkAll([]*Expr{e}, fn) }

// WalkAll calls fn once for every distinct node reachable from any of
// roots, parents before children: subterms shared between roots are
// visited once.
func WalkAll(roots []*Expr, fn func(*Expr)) {
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	walk = func(x *Expr) {
		if seen[x] {
			return
		}
		seen[x] = true
		fn(x)
		for _, a := range x.Args {
			walk(a)
		}
	}
	for _, e := range roots {
		walk(e)
	}
}
