package dataflow

import (
	"fmt"
	"sort"

	"execrecon/internal/ir"
)

// Lint rule identifiers: the codegen invariants minc.Compile enforces.
const (
	RuleMaybeUndef  = "maybe-undef"       // register read before any assignment on some path
	RuleUnreachable = "unreachable-block" // block not reachable from the entry
)

// Finding is one violated invariant.
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

// LintFunc checks both rules over one function. Findings are ordered
// by block, then instruction; minc.Compile fails on the first.
func LintFunc(f *ir.Func) []Finding {
	c := BuildCFG(f)
	out := append(lintUnreachable(c), lintMaybeUndef(c)...)
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
