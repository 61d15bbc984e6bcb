package dataflow

import "execrecon/internal/ir"

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) get(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }

// or sets s |= t, reporting whether s changed.
func (s bitset) or(t bitset) bool {
	changed := false
	for i, w := range t {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// andInto sets s &= t.
func (s bitset) andInto(t bitset) {
	for i := range s {
		s[i] &= t[i]
	}
}

func (s bitset) copyFrom(t bitset) { copy(s, t) }

func (s bitset) equal(t bitset) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// readsOf appends the register operands read by in.
func readsOf(in *ir.Instr, out []int) []int {
	if in.A.K == ir.ArgReg {
		out = append(out, in.A.Reg)
	}
	if in.B.K == ir.ArgReg {
		out = append(out, in.B.Reg)
	}
	for _, a := range in.Args {
		if a.K == ir.ArgReg {
			out = append(out, a.Reg)
		}
	}
	return out
}

// WritesReg reports whether in defines its Dst register.
func WritesReg(in *ir.Instr) bool { return writesReg(in) }

// writesReg reports whether in writes its Dst register.
func writesReg(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpAbort, ir.OpAssert,
		ir.OpOutput, ir.OpPtWrite, ir.OpFree, ir.OpJoin, ir.OpLock,
		ir.OpUnlock, ir.OpYield, ir.OpInvalid:
		return false
	}
	return true
}
