package dataflow

import (
	"fmt"
	"sort"

	"execrecon/internal/ir"
)

// Lint rule identifiers.
const (
	RuleMaybeUndef  = "maybe-undef"       // register read before any assignment on some path
	RuleUnreachable = "unreachable-block" // block not reachable from the entry
	RuleDeadStore   = "dead-store"        // pure register definition never read
	RuleWidthMix    = "width-mismatch"    // defs of differing widths from different blocks reach one use
)

// Finding is one lint diagnostic.
type Finding struct {
	Rule string
	Func string
	Blk  int   // block index
	ID   int32 // instruction ID (0 for block-level findings)
	Line int32 // source line, if known
	Msg  string
}

func (f Finding) String() string {
	loc := fmt.Sprintf("%s/b%d", f.Func, f.Blk)
	if f.Line > 0 {
		loc = fmt.Sprintf("%s:%d (%s)", f.Func, f.Line, loc)
	}
	return fmt.Sprintf("%s: %s: %s", f.Rule, loc, f.Msg)
}

// Lint runs every rule over every function of mod. Findings are
// ordered by function, then block, then rule. The maybe-undef and
// unreachable-block rules flag violated compiler invariants; the
// dead-store and width-mismatch rules flag suspicious-but-legal IR.
func Lint(mod *ir.Module) []Finding {
	var out []Finding
	for _, f := range mod.Funcs {
		out = append(out, LintFunc(f)...)
	}
	return out
}

// LintFunc runs every rule over one function.
func LintFunc(f *ir.Func) []Finding {
	c := BuildCFG(f)
	d := BuildDefUse(c)
	var out []Finding
	out = append(out, lintUnreachable(c)...)
	out = append(out, lintMaybeUndef(c)...)
	out = append(out, lintDeadStores(d)...)
	out = append(out, lintWidthMix(d)...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Blk != out[j].Blk {
			return out[i].Blk < out[j].Blk
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func lintUnreachable(c *CFG) []Finding {
	var out []Finding
	for bi, b := range c.F.Blocks {
		if !c.Reachable[bi] {
			out = append(out, Finding{
				Rule: RuleUnreachable, Func: c.F.Name, Blk: bi,
				Line: b.Instrs[0].Line,
				Msg:  fmt.Sprintf("block b%d is unreachable from the entry", bi),
			})
		}
	}
	return out
}

// lintMaybeUndef runs a forward definite-assignment analysis: a
// register read that some path reaches without any prior assignment is
// flagged. Parameters are assigned on entry.
func lintMaybeUndef(c *CFG) []Finding {
	f := c.F
	nr := f.NumRegs
	nb := len(f.Blocks)
	in := make([]bitset, nb)
	outB := make([]bitset, nb)
	for _, bi := range c.RPO {
		in[bi], outB[bi] = newBitset(nr), newBitset(nr)
		in[bi].fill() // top for the intersection meet
		outB[bi].fill()
	}
	if len(c.RPO) > 0 {
		entry := c.RPO[0]
		for i := range in[entry] {
			in[entry][i] = 0
		}
		for r := 0; r < f.NParams && r < nr; r++ {
			in[entry].set(r)
		}
	}
	tmp := newBitset(nr)
	for changed := true; changed; {
		changed = false
		for _, bi := range c.RPO {
			if len(c.Preds[bi]) > 0 {
				in[bi].fill()
				for _, p := range c.Preds[bi] {
					in[bi].andInto(outB[p])
				}
				if bi == c.RPO[0] {
					// A loop back to the entry still guarantees params.
					for r := 0; r < f.NParams && r < nr; r++ {
						in[bi].set(r)
					}
				}
			}
			tmp.copyFrom(in[bi])
			for ii := range f.Blocks[bi].Instrs {
				inr := &f.Blocks[bi].Instrs[ii]
				if writesReg(inr) {
					tmp.set(inr.Dst)
				}
			}
			if !tmp.equal(outB[bi]) {
				outB[bi].copyFrom(tmp)
				changed = true
			}
		}
	}
	var out []Finding
	var reads []int
	cur := newBitset(nr)
	for _, bi := range c.RPO {
		cur.copyFrom(in[bi])
		for ii := range f.Blocks[bi].Instrs {
			inr := &f.Blocks[bi].Instrs[ii]
			reads = readsOf(inr, reads[:0])
			for _, r := range reads {
				if !cur.get(r) {
					out = append(out, Finding{
						Rule: RuleMaybeUndef, Func: f.Name, Blk: bi,
						ID: inr.ID, Line: inr.Line,
						Msg: fmt.Sprintf("r%d may be read before assignment at %q", r, inr),
					})
				}
			}
			if writesReg(inr) {
				cur.set(inr.Dst)
			}
		}
	}
	return out
}

// lintDeadStores flags pure register definitions whose value no
// execution can observe. Constant materialisations (OpConst, and
// OpMov from an immediate — the zero-init idiom) are exempt: frontends
// emit them defensively and they cost nothing.
func lintDeadStores(d *DefUse) []Finding {
	f := d.CFG.F
	var out []Finding
	var reads []int
	live := newBitset(f.NumRegs)
	for _, bi := range d.CFG.RPO {
		live.copyFrom(d.LiveOut[bi])
		blk := f.Blocks[bi]
		for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
			in := &blk.Instrs[ii]
			if writesReg(in) {
				if !live.get(in.Dst) && pureOp(in.Op) &&
					in.Op != ir.OpConst &&
					!(in.Op == ir.OpMov && in.A.K == ir.ArgImm) {
					out = append(out, Finding{
						Rule: RuleDeadStore, Func: f.Name, Blk: bi,
						ID: in.ID, Line: in.Line,
						Msg: fmt.Sprintf("value of %q is never read", in),
					})
				}
				live.clear(in.Dst)
			}
			reads = readsOf(in, reads[:0])
			for _, r := range reads {
				live.set(r)
			}
		}
	}
	return out
}

// widthBearing reports whether op materialises a value whose
// significant width is the instruction's W field. Comparisons (always
// 0/1), widening conversions (always a full 64-bit result), and
// address producers are excluded.
func widthBearing(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpLoad, ir.OpInput, ir.OpTrunc,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem,
		ir.OpSDiv, ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr:
		return true
	}
	return false
}

// lintWidthMix flags uses reached, from at least two different blocks,
// by width-bearing definitions of differing widths: the use sees a
// value whose significant width depends on the path taken, which is
// almost always a frontend conversion bug. Explicit width conversions
// at the use site are exempt — normalising mixed widths is their job.
func lintWidthMix(d *DefUse) []Finding {
	f := d.CFG.F
	var out []Finding
	var reads []int
	seen := make(map[[2]int32]bool) // (use ID, reg) already reported
	for _, bi := range d.CFG.RPO {
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			switch in.Op {
			case ir.OpZext, ir.OpSext, ir.OpTrunc, ir.OpMov:
				continue // conversions normalise width by design
			}
			reads = readsOf(in, reads[:0])
			for _, r := range reads {
				k := [2]int32{in.ID, int32(r)}
				if seen[k] {
					continue
				}
				defs := d.ReachingDefs(bi, ii, r)
				var w ir.Width
				var wBlk int
				mixed := false
				for _, di := range defs {
					def := d.Defs[di]
					if !widthBearing(def.Instr.Op) {
						continue
					}
					if w == 0 {
						w, wBlk = def.Instr.W, def.Blk
					} else if def.Instr.W != w && def.Blk != wBlk {
						mixed = true
					}
				}
				if mixed {
					seen[k] = true
					out = append(out, Finding{
						Rule: RuleWidthMix, Func: f.Name, Blk: bi,
						ID: in.ID, Line: in.Line,
						Msg: fmt.Sprintf("r%d reaches %q with differing widths from different blocks", r, in),
					})
				}
			}
		}
	}
	return out
}
