// Package absint is a fixpoint abstract interpreter over the minc IR.
// It computes, for every register value, an unsigned interval [Lo,Hi]
// combined with a known-bits mask (value&Mask == Bits), plus pointer
// provenance for packed addresses.
// The domains over-approximate the concrete VM semantics (vm.EvalBin
// and the opcode semantics in vm/exec.go), which is the soundness
// contract checked end-to-end by FuzzAbsintSoundness: no concrete
// execution ever escapes the computed facts.
//
// The facts have one consumer: provable lint (Lint), which reports
// code that must fail on every execution reaching it. The compiler
// (minc.CompileWithLint) and the er.Lint/LintProvable API run it; no
// reconstruction path does.
package absint

import (
	"fmt"
	"math/bits"
)

// PtrKind tags pointer provenance for packed obj<<32|off addresses.
type PtrKind uint8

const (
	// PtrNone means the Val is a plain value: Lo/Hi/Mask/Bits
	// describe the full 64-bit register content.
	PtrNone PtrKind = iota
	// PtrFrame is a frame pointer of function PIdx (module func
	// index); the object id is dynamic, the interval describes the
	// 32-bit offset.
	PtrFrame
	// PtrGlobal is a pointer into global PIdx; the object id is
	// gi+1 exactly.
	PtrGlobal
	// PtrHeap is a malloc result; the object id is dynamic.
	PtrHeap
)

// Val is one abstract value. For PtrNone the interval and known bits
// constrain the full 64-bit value. For pointer kinds they constrain
// the low-32-bit offset only; Full() recovers the packed-value view.
type Val struct {
	Lo, Hi     uint64
	Mask, Bits uint64 // invariant: Bits &^ Mask == 0
	PKind      PtrKind
	PIdx       int32
	bot        bool
}

func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Bottom is the empty abstraction (unreachable / contradictory).
func Bottom() Val { return Val{bot: true} }

// IsBottom reports whether v denotes no values.
func (v Val) IsBottom() bool { return v.bot }

// Top is the full w-bit range with nothing known.
func Top(w uint) Val { return Val{Lo: 0, Hi: mask(w), Mask: ^mask(w)} }

// ConstV abstracts the single value c (truncated to w bits).
func ConstV(c uint64, w uint) Val {
	c &= mask(w)
	return Val{Lo: c, Hi: c, Mask: ^uint64(0), Bits: c}
}

// Range is the interval [lo,hi] within w bits.
func Range(lo, hi uint64, w uint) Val {
	return norm(Val{Lo: lo, Hi: hi, Mask: ^mask(w)}, w)
}

// IsConst reports the single concrete value when the abstraction
// pins one.
func (v Val) IsConst() (uint64, bool) {
	if v.bot || v.PKind != PtrNone {
		return 0, false
	}
	if v.Lo == v.Hi {
		return v.Lo, true
	}
	return 0, false
}

// Contains reports whether concrete value x is inside the
// abstraction. Pointer Vals are checked through their packed view.
func (v Val) Contains(x uint64) bool {
	if v.bot {
		return false
	}
	if v.PKind != PtrNone {
		v = v.Full()
	}
	return v.Lo <= x && x <= v.Hi && x&v.Mask == v.Bits
}

const objShift = 32

// Full converts a pointer Val to its packed obj<<32|off view.
func (v Val) Full() Val {
	if v.bot || v.PKind == PtrNone {
		return v
	}
	offMask := v.Mask & mask(32)
	offBits := v.Bits & mask(32)
	switch v.PKind {
	case PtrGlobal:
		obj := uint64(v.PIdx+1) << objShift
		return norm(Val{
			Lo: obj | v.Lo, Hi: obj | v.Hi,
			Mask: offMask | ^mask(32), Bits: offBits | obj,
		}, 64)
	default: // PtrFrame, PtrHeap: object id dynamic, >= 1
		return norm(Val{
			Lo: 1<<objShift | v.Lo, Hi: uint64(0xffffffff)<<objShift | v.Hi,
			Mask: offMask, Bits: offBits,
		}, 64)
	}
}

// norm tightens the interval from the known bits and vice versa, and
// canonicalizes contradictions to Bottom. w bounds the value width.
func norm(v Val, w uint) Val {
	m := mask(w)
	if v.bot {
		return Bottom()
	}
	v.Bits &= v.Mask
	// Everything above the width is known zero.
	v.Mask |= ^m
	v.Bits &= m
	if v.Hi > m {
		v.Hi = m
	}
	if v.Lo > v.Hi {
		return Bottom()
	}
	// Bits -> interval: the least value matching the pattern is
	// Bits (unknowns 0), the greatest sets all unknowns.
	if lo2 := v.Bits; lo2 > v.Lo {
		v.Lo = lo2
	}
	if hi2 := v.Bits | (^v.Mask & m); hi2 < v.Hi {
		v.Hi = hi2
	}
	if v.Lo > v.Hi {
		return Bottom()
	}
	// Interval -> bits: the common leading bits of Lo and Hi are
	// pinned for every value in between.
	if x := v.Lo ^ v.Hi; x == 0 {
		v.Mask = ^uint64(0)
		v.Bits = v.Lo
	} else {
		k := uint(64 - bits.LeadingZeros64(x)) // low k bits may vary
		if k < 64 {
			hm := ^uint64(0) << k
			if hm&^v.Mask != 0 {
				v.Mask |= hm
				v.Bits |= v.Lo & hm
			}
		}
	}
	return v
}

// demote strips pointer provenance, widening to the packed view.
func (v Val) demote() Val { return v.Full() }

// Join is the least upper bound: every value in either side is in
// the result.
func (a Val) Join(b Val, w uint) Val {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	if a.PKind != PtrNone || b.PKind != PtrNone {
		if a.PKind == b.PKind && a.PIdx == b.PIdx && a.PKind != PtrNone {
			j := joinPlain(stripPtr(a), stripPtr(b), 32)
			j.PKind, j.PIdx = a.PKind, a.PIdx
			return j
		}
		a, b = a.demote(), b.demote()
	}
	return joinPlain(a, b, w)
}

func stripPtr(v Val) Val {
	v.PKind, v.PIdx = PtrNone, 0
	return v
}

func joinPlain(a, b Val, w uint) Val {
	m := a.Mask & b.Mask &^ (a.Bits ^ b.Bits)
	return norm(Val{
		Lo: min64(a.Lo, b.Lo), Hi: max64(a.Hi, b.Hi),
		Mask: m, Bits: a.Bits & m,
	}, w)
}

// Meet is the greatest lower bound: values in both sides.
func (a Val) Meet(b Val, w uint) Val {
	if a.bot || b.bot {
		return Bottom()
	}
	if a.PKind != PtrNone || b.PKind != PtrNone {
		if a.PKind == b.PKind && a.PIdx == b.PIdx && a.PKind != PtrNone {
			mt := meetPlain(stripPtr(a), stripPtr(b), 32)
			if mt.bot {
				return Bottom()
			}
			mt.PKind, mt.PIdx = a.PKind, a.PIdx
			return mt
		}
		// Mixed: keep provenance when the other side adds nothing
		// over the packed view (e.g. a != 0 refinement).
		if a.PKind != PtrNone && b.PKind == PtrNone {
			if af := a.Full(); meetPlain(af, b, w) == af {
				return a
			}
		}
		if b.PKind != PtrNone && a.PKind == PtrNone {
			if bf := b.Full(); meetPlain(bf, a, w) == bf {
				return b
			}
		}
		a, b = a.demote(), b.demote()
	}
	return meetPlain(a, b, w)
}

func meetPlain(a, b Val, w uint) Val {
	if (a.Mask&b.Mask)&(a.Bits^b.Bits) != 0 {
		return Bottom()
	}
	return norm(Val{
		Lo: max64(a.Lo, b.Lo), Hi: min64(a.Hi, b.Hi),
		Mask: a.Mask | b.Mask, Bits: a.Bits | b.Bits,
	}, w)
}

// Widen extrapolates from old toward next so that fixpoint iteration
// terminates: unstable bounds jump to 0 / the next 2^k-1 boundary,
// and only the agreeing known bits survive.
func (old Val) Widen(next Val, w uint) Val {
	if old.bot {
		return next
	}
	if next.bot {
		return old
	}
	if old.PKind != PtrNone || next.PKind != PtrNone {
		if old.PKind == next.PKind && old.PIdx == next.PIdx && old.PKind != PtrNone {
			wd := stripPtr(old).Widen(stripPtr(next), 32)
			wd.PKind, wd.PIdx = old.PKind, old.PIdx
			return wd
		}
		old, next = old.demote(), next.demote()
	}
	lo, hi := old.Lo, old.Hi
	if next.Lo < lo {
		lo = 0
	}
	if next.Hi > hi {
		k := bits.Len64(next.Hi)
		if k >= 64 {
			hi = ^uint64(0)
		} else {
			hi = (uint64(1) << k) - 1
		}
	}
	m := old.Mask & next.Mask &^ (old.Bits ^ next.Bits)
	return norm(Val{Lo: lo, Hi: hi, Mask: m, Bits: old.Bits & m}, w)
}

// TruncTo masks the value to w bits (the VM's msk applied to every
// operand and result).
func (v Val) TruncTo(w uint) Val {
	if v.bot {
		return Bottom()
	}
	if v.PKind != PtrNone {
		if w >= 64 {
			return v
		}
		v = v.demote()
	}
	m := mask(w)
	if v.Hi <= m {
		return norm(v, w)
	}
	// High bits drop: if the chopped bits were all pinned the low
	// part keeps its interval shape, else fall to the bit pattern.
	if v.Mask|m == ^uint64(0) && v.Lo&^m == v.Hi&^m {
		return norm(Val{Lo: v.Lo & m, Hi: v.Hi & m, Mask: v.Mask, Bits: v.Bits & m}, w)
	}
	return norm(Val{Lo: 0, Hi: m, Mask: v.Mask & m, Bits: v.Bits & m}, w)
}

// SextFrom sign-extends the low w bits to the full 64-bit value
// (OpSext semantics: the register holds the full extension).
func (v Val) SextFrom(w uint) Val {
	if v.bot {
		return Bottom()
	}
	t := v.TruncTo(w)
	if w >= 64 || t.bot {
		return t
	}
	sign := uint64(1) << (w - 1)
	hm := ^mask(w)
	neg := func(x Val) Val {
		return norm(Val{Lo: x.Lo | hm, Hi: x.Hi | hm, Mask: x.Mask | hm, Bits: x.Bits | hm}, 64)
	}
	if t.Mask&sign != 0 {
		if t.Bits&sign == 0 {
			return t // non-negative: zero extension
		}
		return neg(t)
	}
	lo := meetPlain(t, Val{Lo: 0, Hi: sign - 1, Mask: ^mask(w)}, w)
	hi := meetPlain(t, Val{Lo: sign, Hi: mask(w), Mask: ^mask(w)}, w)
	if hi.bot {
		return lo
	}
	if lo.bot {
		return neg(hi)
	}
	return joinPlain(lo, neg(hi), 64)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func (v Val) String() string {
	if v.bot {
		return "⊥"
	}
	p := ""
	switch v.PKind {
	case PtrFrame:
		p = fmt.Sprintf("frame(%d)+", v.PIdx)
	case PtrGlobal:
		p = fmt.Sprintf("global(%d)+", v.PIdx)
	case PtrHeap:
		p = "heap+"
	}
	return fmt.Sprintf("%s[%#x,%#x]&%#x=%#x", p, v.Lo, v.Hi, v.Mask, v.Bits)
}
