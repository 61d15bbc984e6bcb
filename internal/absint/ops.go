package absint

import (
	"math/bits"

	"execrecon/internal/ir"
	"execrecon/internal/vm"
)

// Transfer functions for the w-bit IR operations. Operands are first
// masked to w bits (mirroring the VM's msk) by the callers; each
// function returns the w-bit result abstraction. Every function must
// over-approximate vm.EvalBin — that contract is fuzzed by
// FuzzAbsintSoundness and TestOpsDifferential.

// addKnownBits runs a bitwise ripple-carry over the known bits of a
// and b with known carry-in, returning the known mask/bits of a+b.
func addKnownBits(a, b Val, cin uint64, cinKnown bool, w uint) (uint64, uint64) {
	var rm, rb uint64
	carry, carryKnown := cin, cinKnown
	for i := uint(0); i < w; i++ {
		bit := uint64(1) << i
		aK, bK := a.Mask&bit != 0, b.Mask&bit != 0
		av, bv := uint64(0), uint64(0)
		if a.Bits&bit != 0 {
			av = 1
		}
		if b.Bits&bit != 0 {
			bv = 1
		}
		if aK && bK && carryKnown {
			s := av + bv + carry
			if s&1 == 1 {
				rb |= bit
			}
			rm |= bit
			carry = s >> 1
			continue
		}
		// Result bit unknown; the carry out is still known when
		// the known addend bits force it regardless of the rest.
		switch {
		case aK && bK && av+bv == 2:
			carry, carryKnown = 1, true
		case aK && bK && av+bv == 0:
			carry, carryKnown = 0, true
		default:
			carryKnown = false
		}
	}
	return rm, rb
}

func notVal(v Val, w uint) Val {
	m := mask(w)
	return Val{Lo: (m - v.Hi) & m, Hi: (m - v.Lo) & m, Mask: v.Mask & m, Bits: ^v.Bits & v.Mask & m}
}

// AddV abstracts w-bit wrapping addition.
func AddV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	if (a.PKind != PtrNone) != (b.PKind != PtrNone) && w == 64 {
		// Pointer + offset: stay in the offset domain when the
		// addition provably cannot carry into the object id.
		p, o := a, b
		if b.PKind != PtrNone {
			p, o = b, a
		}
		if o.Hi <= mask(32) && p.Hi+o.Hi <= mask(32) {
			r := AddV(stripPtr(p), o, 32)
			r.PKind, r.PIdx = p.PKind, p.PIdx
			return r
		}
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	m := mask(w)
	lo, hi := uint64(0), m
	s1, c1 := bits.Add64(a.Lo, b.Lo, 0)
	s2, c2 := bits.Add64(a.Hi, b.Hi, 0)
	if w == 64 {
		if c1 == c2 { // both wrap, or neither: order preserved
			lo, hi = s1, s2
		}
	} else {
		switch {
		case s2 <= m: // no wrap anywhere
			lo, hi = s1, s2
		case s1 > m: // every sum wraps exactly once
			lo, hi = s1-m-1, s2-m-1
		}
	}
	km, kb := addKnownBits(a, b, 0, true, w)
	return norm(Val{Lo: lo, Hi: hi, Mask: km, Bits: kb}, w)
}

// SubV abstracts w-bit wrapping subtraction.
func SubV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	if a.PKind != PtrNone && b.PKind == PtrNone && w == 64 && b.Hi <= a.Lo {
		r := SubV(stripPtr(a), b, 32)
		r.PKind, r.PIdx = a.PKind, a.PIdx
		return r
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	m := mask(w)
	lo, hi := uint64(0), m
	switch {
	case a.Lo >= b.Hi: // never borrows
		lo, hi = a.Lo-b.Hi, a.Hi-b.Lo
	case a.Hi < b.Lo: // always borrows exactly once
		lo, hi = (a.Lo-b.Hi)&m, (a.Hi-b.Lo)&m
	}
	// a-b == a + ^b + 1 over w bits.
	nb := notVal(b, w)
	km, kb := addKnownBits(a, nb, 1, true, w)
	return norm(Val{Lo: lo, Hi: hi, Mask: km, Bits: kb}, w)
}

func knownZeroLow(v Val) uint {
	kz := v.Mask &^ v.Bits // known-zero bit positions
	return uint(bits.TrailingZeros64(^kz))
}

// MulV abstracts w-bit wrapping multiplication.
func MulV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	m := mask(w)
	lo, hi := uint64(0), m
	if hiP, loP := bits.Mul64(a.Hi, b.Hi); hiP == 0 && loP <= m {
		lo, hi = a.Lo*b.Lo, loP
	}
	// The product has at least tz(a)+tz(b) trailing zero bits.
	tz := knownZeroLow(a) + knownZeroLow(b)
	if tz > w {
		tz = w
	}
	km := mask(tz)
	return norm(Val{Lo: lo, Hi: hi, Mask: km, Bits: 0}, w)
}

// UDivV abstracts w-bit unsigned division. The VM fails the run on a
// zero divisor, so the continuation sees a divisor >= 1; a divisor
// that must be zero makes the continuation unreachable.
func UDivV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if b.Hi == 0 {
		return Bottom()
	}
	bLo := max64(b.Lo, 1)
	return norm(Val{Lo: a.Lo / b.Hi, Hi: a.Hi / bLo, Mask: 0}, w)
}

// URemV abstracts w-bit unsigned remainder (zero divisor fails).
func URemV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if b.Hi == 0 {
		return Bottom()
	}
	bLo := max64(b.Lo, 1)
	if a.Hi < bLo { // identity: a < b for every pair
		return norm(Val{Lo: a.Lo, Hi: a.Hi, Mask: 0}, w)
	}
	return norm(Val{Lo: 0, Hi: min64(a.Hi, b.Hi-1), Mask: 0}, w)
}

// signedNonNeg reports whether every value is in [0, 2^(w-1)-1].
func signedNonNeg(v Val, w uint) bool {
	if w >= 64 {
		return v.Hi <= mask(63)
	}
	return v.Hi < uint64(1)<<(w-1)
}

// SDivV abstracts w-bit signed division (zero divisor fails; the
// MIN/-1 case wraps like the VM).
func SDivV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 && bv != 0 {
			if r, ok3 := vm.EvalBin(ir.OpSDiv, ir.Width(w), av, bv); ok3 {
				return ConstV(r, w)
			}
		}
	}
	if b.Hi == 0 {
		return Bottom()
	}
	if signedNonNeg(a, w) && signedNonNeg(b, w) {
		return UDivV(a, b, w)
	}
	return Top(w)
}

// SRemV abstracts w-bit signed remainder.
func SRemV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 && bv != 0 {
			if r, ok3 := vm.EvalBin(ir.OpSRem, ir.Width(w), av, bv); ok3 {
				return ConstV(r, w)
			}
		}
	}
	if b.Hi == 0 {
		return Bottom()
	}
	if signedNonNeg(a, w) && signedNonNeg(b, w) {
		return URemV(a, b, w)
	}
	return Top(w)
}

// AndV abstracts bitwise and.
func AndV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	k1 := a.Bits & b.Bits
	kz := (a.Mask &^ a.Bits) | (b.Mask &^ b.Bits)
	return norm(Val{Lo: 0, Hi: min64(a.Hi, b.Hi), Mask: k1 | kz, Bits: k1}, w)
}

func lenBound(h uint64) uint64 {
	k := bits.Len64(h)
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << k) - 1
}

// OrV abstracts bitwise or.
func OrV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	k1 := a.Bits | b.Bits
	kz := (a.Mask &^ a.Bits) & (b.Mask &^ b.Bits)
	return norm(Val{
		Lo: max64(a.Lo, b.Lo), Hi: lenBound(a.Hi | b.Hi),
		Mask: k1 | kz, Bits: k1,
	}, w)
}

// XorV abstracts bitwise xor.
func XorV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	known := a.Mask & b.Mask
	return norm(Val{
		Lo: 0, Hi: lenBound(a.Hi | b.Hi),
		Mask: known, Bits: (a.Bits ^ b.Bits) & known,
	}, w)
}

// ShlV abstracts w-bit left shift (shift >= w yields 0, like the VM).
func ShlV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote()
	m := mask(w)
	if s, ok := b.IsConst(); ok {
		if s >= uint64(w) {
			return ConstV(0, w)
		}
		v := Val{Mask: (a.Mask << s) | mask(uint(s)), Bits: a.Bits << s}
		if a.Hi <= m>>s {
			v.Lo, v.Hi = a.Lo<<s, a.Hi<<s
		} else {
			v.Lo, v.Hi = 0, m
		}
		return norm(v, w)
	}
	if b.Lo >= uint64(w) {
		return ConstV(0, w)
	}
	// At least b.Lo low bits are zero (also true of the 0 result
	// when the shift saturates).
	return norm(Val{Lo: 0, Hi: m, Mask: mask(uint(b.Lo))}, w)
}

// LShrV abstracts w-bit logical right shift.
func LShrV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote()
	if s, ok := b.IsConst(); ok {
		if s >= uint64(w) {
			return ConstV(0, w)
		}
		return norm(Val{
			Lo: a.Lo >> s, Hi: a.Hi >> s,
			Mask: (a.Mask >> s) | ^(mask(w) >> s), Bits: a.Bits >> s,
		}, w)
	}
	lo := uint64(0)
	if b.Hi < uint64(w) {
		lo = a.Lo >> b.Hi
	}
	return norm(Val{Lo: lo, Hi: a.Hi, Mask: 0}, w)
}

// AShrV abstracts w-bit arithmetic right shift (the VM clamps the
// shift amount to w-1).
func AShrV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote()
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			if r, ok3 := vm.EvalBin(ir.OpAShr, ir.Width(w), av, bv); ok3 {
				return ConstV(r, w)
			}
		}
	}
	if signedNonNeg(a, w) {
		return LShrV(a, b, w)
	}
	return Top(w)
}

func boolTop() Val { return Val{Lo: 0, Hi: 1, Mask: ^uint64(1)} }

func boolVal(mustT, mustF bool) Val {
	switch {
	case mustT:
		return ConstV(1, 1)
	case mustF:
		return ConstV(0, 1)
	}
	return boolTop()
}

// EqV abstracts equality of two w-bit values.
func EqV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	av, aok := a.demote().TruncTo(w).IsConst()
	bv, bok := b.demote().TruncTo(w).IsConst()
	mustT := aok && bok && av == bv
	mustF := a.Meet(b, w).IsBottom()
	return boolVal(mustT, mustF)
}

// NeV abstracts disequality.
func NeV(a, b Val, w uint) Val {
	v := EqV(a, b, w)
	if v.bot {
		return v
	}
	if c, ok := v.IsConst(); ok {
		return ConstV(1-c, 1)
	}
	return v
}

// UltV abstracts unsigned less-than.
func UltV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	return boolVal(a.Hi < b.Lo, a.Lo >= b.Hi)
}

// UleV abstracts unsigned less-or-equal.
func UleV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	a, b = a.demote().TruncTo(w), b.demote().TruncTo(w)
	return boolVal(a.Hi <= b.Lo, a.Lo > b.Hi)
}

// signedBounds returns [smin,smax] of the w-bit values as int64.
func signedBounds(v Val, w uint) (int64, int64) {
	sext := func(x uint64) int64 {
		if w >= 64 {
			return int64(x)
		}
		sign := uint64(1) << (w - 1)
		if x&sign != 0 {
			return int64(x | ^mask(w))
		}
		return int64(x)
	}
	if w >= 64 {
		if int64(v.Lo) <= int64(v.Hi) { // same sign region in two's complement order
			return int64(v.Lo), int64(v.Hi)
		}
		return -1 << 63, 1<<63 - 1
	}
	sign := uint64(1) << (w - 1)
	if v.Hi < sign || v.Lo >= sign { // does not straddle the sign boundary
		return sext(v.Lo), sext(v.Hi)
	}
	return sext(sign), sext(sign - 1)
}

// SltV abstracts signed less-than at width w.
func SltV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	alo, ahi := signedBounds(a.demote().TruncTo(w), w)
	blo, bhi := signedBounds(b.demote().TruncTo(w), w)
	return boolVal(ahi < blo, alo >= bhi)
}

// SleV abstracts signed less-or-equal at width w.
func SleV(a, b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	alo, ahi := signedBounds(a.demote().TruncTo(w), w)
	blo, bhi := signedBounds(b.demote().TruncTo(w), w)
	return boolVal(ahi <= blo, alo > bhi)
}

// BinV dispatches an IR binary op at width w; both operands are
// masked to w first, mirroring the VM.
func BinV(op ir.Op, w uint, a, b Val) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	ta, tb := a, b
	if op != ir.OpAdd && op != ir.OpSub {
		// Add/Sub keep pointer provenance; everything else works
		// on the masked packed value.
		ta, tb = a.demote().TruncTo(w), b.demote().TruncTo(w)
	}
	// Constant folding via the VM's own semantics — except for
	// pointer add/sub, where folding to the packed constant would be
	// numerically exact but destroy the provenance the bounds rules
	// depend on.
	ptrArith := (op == ir.OpAdd || op == ir.OpSub) &&
		(a.PKind != PtrNone || b.PKind != PtrNone)
	if !ptrArith {
		if av, ok := ta.demote().TruncTo(w).IsConst(); ok {
			if bv, ok2 := tb.demote().TruncTo(w).IsConst(); ok2 {
				if r, ok3 := vm.EvalBin(op, ir.Width(w), av, bv); ok3 {
					return ConstV(r, w)
				}
				return Bottom() // the VM fails this op for every input
			}
		}
	}
	switch op {
	case ir.OpAdd:
		return AddV(a.TruncTo(w), b.TruncTo(w), w)
	case ir.OpSub:
		return SubV(a.TruncTo(w), b.TruncTo(w), w)
	case ir.OpMul:
		return MulV(ta, tb, w)
	case ir.OpUDiv:
		return UDivV(ta, tb, w)
	case ir.OpURem:
		return URemV(ta, tb, w)
	case ir.OpSDiv:
		return SDivV(ta, tb, w)
	case ir.OpSRem:
		return SRemV(ta, tb, w)
	case ir.OpAnd:
		return AndV(ta, tb, w)
	case ir.OpOr:
		return OrV(ta, tb, w)
	case ir.OpXor:
		return XorV(ta, tb, w)
	case ir.OpShl:
		return ShlV(ta, tb, w)
	case ir.OpLShr:
		return LShrV(ta, tb, w)
	case ir.OpAShr:
		return AShrV(ta, tb, w)
	case ir.OpEq:
		return EqV(ta, tb, w)
	case ir.OpNe:
		return NeV(ta, tb, w)
	case ir.OpUlt:
		return UltV(ta, tb, w)
	case ir.OpUle:
		return UleV(ta, tb, w)
	case ir.OpSlt:
		return SltV(ta, tb, w)
	case ir.OpSle:
		return SleV(ta, tb, w)
	}
	return Top(w)
}
