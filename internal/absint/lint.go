package absint

import (
	"fmt"
	"math/bits"

	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
)

// Lint runs the provable-lint rules over mod using a whole-module
// fixpoint with every function rooted (so findings hold regardless
// of entry point). Error-level rules (dataflow.ErrorLevel) flag
// instructions that fail on every execution reaching them; the
// always-branch rule is advisory.
func Lint(mod *ir.Module) []dataflow.Finding {
	mf := AnalyzeModule(mod, "")
	var out []dataflow.Finding
	for _, f := range mf.Mod.Funcs {
		ff := mf.Funcs[f.Name]
		if ff == nil || !ff.Reached || ff.In == nil {
			continue
		}
		out = append(out, lintFunc(mf, ff)...)
	}
	return out
}

func lintFunc(mf *ModuleFacts, ff *FuncFacts) []dataflow.Finding {
	f := ff.F
	var out []dataflow.Finding
	add := func(rule string, blk int, in *ir.Instr, msg string) {
		out = append(out, dataflow.Finding{
			Rule: rule, Func: f.Name, Blk: blk, ID: in.ID, Line: in.Line, Msg: msg,
		})
	}
	for b := range f.Blocks {
		if ff.In[b] == nil {
			continue // unreachable under the abstraction
		}
		env := copyEnv(ff.In[b])
		blk := f.Blocks[b]
		argVal := func(arg ir.Arg) Val {
			if arg.K == ir.ArgImm {
				return ConstV(arg.Imm, 64)
			}
			return env[arg.Reg]
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			w := uint(in.W)
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				addr := argVal(in.A)
				nb := int64(in.W.Bytes())
				if size, offLo, _, ok := accessBounds(mf.Mod, addr); ok && !addr.IsBottom() {
					if int64(offLo)+nb > size {
						add(dataflow.RuleProvableOOB, b, in, fmt.Sprintf(
							"%d-byte access at offset >= %d of a %d-byte object on every execution reaching it",
							nb, offLo, size))
					}
				}
			case ir.OpAdd, ir.OpSub, ir.OpMul:
				if ov, msg := provableWrap(in.Op, w, argVal(in.A), argVal(in.B), in); ov {
					add(dataflow.RuleProvableOverflow, b, in, msg)
				}
			case ir.OpCondBr:
				// Only computed conditions: a literal constant
				// condition (while(1), if(0)) is intentional.
				if in.A.K == ir.ArgReg && in.Blk != in.Blk2 {
					c := env[in.A.Reg]
					if !c.IsBottom() {
						cd := c.demote()
						if cd.Lo >= 1 {
							add(dataflow.RuleAlwaysBranch, b, in, "branch condition is nonzero on every execution: always taken")
						} else if cd.Hi == 0 {
							add(dataflow.RuleAlwaysBranch, b, in, "branch condition is zero on every execution: never taken")
						}
					}
				}
			}
			// Advance the environment with the same transfer the
			// fixpoint used, so later checks see refined values; a
			// proven-dead continuation ends the block's findings.
			if stepLintEnv(mf, ff, env, blk, ii) {
				break
			}
		}
	}
	return out
}

// stepLintEnv applies one instruction's transfer to env in place,
// reporting true when the continuation is unreachable.
func stepLintEnv(mf *ModuleFacts, ff *FuncFacts, env []Val, blk *ir.Block, ii int) bool {
	in := &blk.Instrs[ii]
	w := uint(in.W)
	argVal := func(arg ir.Arg) Val {
		if arg.K == ir.ArgImm {
			return ConstV(arg.Imm, 64)
		}
		return env[arg.Reg]
	}
	set := func(v Val) {
		if in.Dst >= 0 && in.Dst < len(env) {
			env[in.Dst] = v
		}
	}
	switch in.Op {
	case ir.OpConst:
		set(ConstV(in.A.Imm, w))
	case ir.OpMov, ir.OpZext, ir.OpTrunc:
		set(argVal(in.A).TruncTo(w))
	case ir.OpSext:
		set(argVal(in.A).SextFrom(w))
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
		v := BinV(in.Op, w, argVal(in.A), argVal(in.B))
		set(v)
		return v.IsBottom()
	case ir.OpLoad:
		set(Top(w))
	case ir.OpFrame:
		off := uint64(uint32(in.A.Imm))
		if ff.F.FrameSize > 0 {
			v := ConstV(off, 32)
			v.PKind, v.PIdx = PtrFrame, int32(ff.Index)
			set(v)
		} else {
			set(ConstV(off, 64))
		}
	case ir.OpGlobal:
		v := ConstV(0, 32)
		v.PKind, v.PIdx = PtrGlobal, int32(in.A.Imm)
		set(v)
	case ir.OpMalloc:
		v := ConstV(0, 32)
		v.PKind = PtrHeap
		set(v)
	case ir.OpFuncAddr:
		set(ConstV(uint64(int64(mf.Mod.FuncIndex(in.Tag))), 64))
	case ir.OpCall:
		rv := Top(64)
		if cf := mf.Funcs[in.Tag]; cf != nil {
			rv = cf.Ret
		}
		set(rv)
		return rv.IsBottom()
	case ir.OpICall, ir.OpSpawn:
		set(Top(64))
	case ir.OpInput:
		set(Top(w))
	case ir.OpAssert:
		c := argVal(in.A)
		if !c.IsBottom() && c.demote().Hi == 0 {
			return true
		}
		if in.A.K == ir.ArgReg {
			refineTruth(env, blk, ii, in.A.Reg, true)
			if env[in.A.Reg].IsBottom() {
				return true
			}
		}
	case ir.OpAbort:
		return true
	}
	return false
}

// accessBounds resolves the object size and offset bounds of a
// provenance-tagged address (frames of the owning function, globals;
// heap objects have dynamic sizes and are never flagged).
func accessBounds(mod *ir.Module, addr Val) (size int64, offLo, offHi uint64, ok bool) {
	switch addr.PKind {
	case PtrFrame:
		idx := int(addr.PIdx)
		if idx < 0 || idx >= len(mod.Funcs) {
			return 0, 0, 0, false
		}
		return mod.Funcs[idx].FrameSize, addr.Lo, addr.Hi, true
	case PtrGlobal:
		gi := int(addr.PIdx)
		if gi < 0 || gi >= len(mod.Globals) {
			return 0, 0, 0, false
		}
		return mod.Globals[gi].Size, addr.Lo, addr.Hi, true
	}
	return 0, 0, 0, false
}

// provableWrap reports whether the w-bit add/sub/mul wraps for every
// operand valuation. The negation idiom 0-x is exempt.
func provableWrap(op ir.Op, w uint, a, b Val, in *ir.Instr) (bool, string) {
	if a.IsBottom() || b.IsBottom() {
		return false, ""
	}
	// Pointer arithmetic with intact provenance never wraps the
	// packed representation in a way worth flagging.
	if a.PKind != PtrNone || b.PKind != PtrNone {
		return false, ""
	}
	a, b = a.TruncTo(w), b.TruncTo(w)
	m := mask(w)
	switch op {
	case ir.OpAdd:
		sum := a.Lo + b.Lo
		if (w >= 64 && sum < a.Lo) || (w < 64 && sum > m) {
			return true, fmt.Sprintf("%d-bit add wraps for every operand value (min operands %d + %d)", w, a.Lo, b.Lo)
		}
	case ir.OpSub:
		if in.A.K == ir.ArgImm && in.A.Imm == 0 {
			return false, "" // negation idiom
		}
		if a.Hi < b.Lo {
			return true, fmt.Sprintf("%d-bit subtract wraps for every operand value (max %d - min %d)", w, a.Hi, b.Lo)
		}
	case ir.OpMul:
		if a.Lo == 0 || b.Lo == 0 {
			return false, ""
		}
		hiP, loP := bits.Mul64(a.Lo, b.Lo)
		if hiP != 0 || loP > m {
			return true, fmt.Sprintf("%d-bit multiply wraps for every operand value (min operands %d * %d)", w, a.Lo, b.Lo)
		}
	}
	return false, ""
}
