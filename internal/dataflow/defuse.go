package dataflow

import "execrecon/internal/ir"

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) get(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) clear(i int)    { s[i/64] &^= 1 << (uint(i) % 64) }

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

// Def is one register definition site.
type Def struct {
	Blk, Idx int // block index, instruction index within the block
	Reg      int
	Instr    *ir.Instr
}

// DefUse carries the per-function value-flow analyses: reaching
// definitions (per block-entry def sets plus on-demand per-use
// queries) and def-use chains.
type DefUse struct {
	CFG *CFG

	// Defs enumerates every register definition in the function, in
	// (block, instruction) order over reachable blocks.
	Defs []Def
	// DefsOfReg maps a register to the indices (into Defs) of its
	// definitions.
	DefsOfReg [][]int

	// ReachIn[b] is the set of definitions (bits over Defs) reaching
	// the entry of reachable block b.
	ReachIn []bitset

	defAt map[[2]int]int // (blk, idx) -> def index
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

// BuildDefUse computes reaching definitions over c.
func BuildDefUse(c *CFG) *DefUse {
	f := c.F
	d := &DefUse{CFG: c, defAt: make(map[[2]int]int)}
	d.DefsOfReg = make([][]int, f.NumRegs)
	for _, bi := range c.RPO {
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			if !writesReg(in) {
				continue
			}
			di := len(d.Defs)
			d.Defs = append(d.Defs, Def{Blk: bi, Idx: ii, Reg: in.Dst, Instr: in})
			d.DefsOfReg[in.Dst] = append(d.DefsOfReg[in.Dst], di)
			d.defAt[[2]int{bi, ii}] = di
		}
	}
	nd := len(d.Defs)
	nb := len(f.Blocks)

	// Per-block gen/kill for reaching definitions.
	gen := make([]bitset, nb)
	kill := make([]bitset, nb)
	out := make([]bitset, nb)
	d.ReachIn = make([]bitset, nb)
	for _, bi := range c.RPO {
		gen[bi], kill[bi] = newBitset(nd), newBitset(nd)
		out[bi], d.ReachIn[bi] = newBitset(nd), newBitset(nd)
		for ii := range f.Blocks[bi].Instrs {
			di, ok := d.defAt[[2]int{bi, ii}]
			if !ok {
				continue
			}
			reg := d.Defs[di].Reg
			for _, o := range d.DefsOfReg[reg] {
				gen[bi].clear(o)
				kill[bi].set(o)
			}
			gen[bi].set(di)
		}
	}
	tmp := newBitset(nd)
	for changed := true; changed; {
		changed = false
		for _, bi := range c.RPO {
			in := d.ReachIn[bi]
			for i := range in {
				in[i] = 0
			}
			for _, p := range c.Preds[bi] {
				in.or(out[p])
			}
			tmp.copyFrom(in)
			for i := range tmp {
				tmp[i] = (tmp[i] &^ kill[bi][i]) | gen[bi][i]
			}
			if !tmp.equal(out[bi]) {
				out[bi].copyFrom(tmp)
				changed = true
			}
		}
	}

	return d
}

// ReachingDefs returns the definitions of reg that reach the use at
// instruction (blk, idx) — the def-use chain endpoint query. The
// result indexes into Defs.
func (d *DefUse) ReachingDefs(blk, idx, reg int) []int {
	if !d.CFG.Reachable[blk] {
		return nil
	}
	// Walk the block from its entry: the last def of reg before idx
	// (if any) is the only one; otherwise the block-entry set applies.
	last := -1
	for ii := 0; ii < idx; ii++ {
		if di, ok := d.defAt[[2]int{blk, ii}]; ok && d.Defs[di].Reg == reg {
			last = di
		}
	}
	if last >= 0 {
		return []int{last}
	}
	var out []int
	for _, di := range d.DefsOfReg[reg] {
		if d.ReachIn[blk].get(di) {
			out = append(out, di)
		}
	}
	return out
}
