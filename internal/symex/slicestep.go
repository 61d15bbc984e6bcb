package symex

import (
	"execrecon/internal/dataflow"
	"execrecon/internal/expr"
	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// This file is the slice-pruned stepping mode (Options.Slice): the
// static backward failure slice (internal/dataflow) proves most traced
// instructions unable to influence any failure condition, so the
// engine executes them natively instead of building expressions.
//
// Soundness contract (argued in DESIGN.md "Static analysis"): the path
// constraint gathered by a pruned run is identical to the full run's.
// The induction invariant is that every register in the slice holds
// the same expression as in the full run; registers handled natively
// hold a concrete value v exactly when the full run holds the constant
// expression for v. That holds by construction: the native ALU
// (evalBin) and the builder's constant folds both compute through
// expr's one definition of each operator, reached through the same
// binKinds table, and the native path falls back to the full symbolic
// one whenever an operand turns out not to be constant at runtime.

// cval reads an operand as a native concrete value, reporting whether
// one is available. Mirrors reg(): immediates and never-written
// registers are concrete; interned constant expressions are unwrapped.
func (e *Engine) cval(f *sframe, a ir.Arg) (uint64, bool) {
	if a.K == ir.ArgImm {
		return a.Imm, true
	}
	v := f.regs[a.Reg]
	if v == nil {
		if f.conc[a.Reg] {
			return f.cvals[a.Reg], true
		}
		return 0, true // mirrors reg()'s nil -> const 0
	}
	if v.IsConst() {
		return v.Val, true
	}
	return 0, false
}

// setConc records a natively computed register value.
func (e *Engine) setConc(f *sframe, r int, v uint64) {
	f.regs[r] = nil
	f.conc[r] = true
	f.cvals[r] = v
}

// setSkip leaves a register undefined: the slice proves no constraint
// can ever observe it.
func (e *Engine) setSkip(f *sframe, r int) {
	f.regs[r] = nil
	f.conc[r] = false
}

// fastStep handles one instruction in the pruned mode m. It returns
// handled=false to defer to the full symbolic path — either because
// the instruction is ModeSym, or because a statically untainted
// operand turned out not to be concrete at runtime.
func (e *Engine) fastStep(t *sthread, f *sframe, in *ir.Instr, m dataflow.Mode) (bool, error) {
	switch m {
	case dataflow.ModeSym:
		return false, nil

	case dataflow.ModeSkip:
		e.setSkip(f, in.Dst)
		f.ii++
		e.concSteps++
		return true, nil

	case dataflow.ModeLoadNoVal:
		cheap, err := e.loadMemNoVal(t, f, in)
		if err != nil {
			return true, err
		}
		e.setSkip(f, in.Dst)
		f.ii++
		if cheap {
			e.concSteps++
		} else {
			e.symSteps++
		}
		return true, nil
	}

	// ModeConc.
	w := uint(in.W)
	switch in.Op {
	case ir.OpBr:
		f.blk, f.ii = in.Blk, 0
		e.concSteps++
		return true, nil

	case ir.OpOutput, ir.OpYield:
		f.ii++
		e.concSteps++
		return true, nil

	case ir.OpCondBr:
		// Same event consumption and divergence semantics as the full
		// path; the symbolic sub-path is kept for the (statically
		// untainted, dynamically non-constant) fallback.
		ev, err := e.nextEvent(pt.EvTNT, "TNT (conditional branch)")
		if err != nil {
			return true, err
		}
		if v, ok := e.cval(f, in.A); ok {
			if (v != 0) != ev.Taken {
				return true, &divergeError{reason: "concrete branch contradicts trace"}
			}
			e.concSteps++
		} else {
			c := e.ne0(e.reg(f, in.A))
			if ev.Taken {
				e.pc = append(e.pc, c)
			} else {
				e.pc = append(e.pc, e.b.BoolNot(c))
			}
			e.symSteps++
		}
		if ev.Taken {
			f.blk = in.Blk
		} else {
			f.blk = in.Blk2
		}
		f.ii = 0
		return true, nil

	case ir.OpAssert:
		if v, ok := e.cval(f, in.A); ok {
			if v == 0 {
				return true, &divergeError{reason: "concrete assertion failure off the failure point"}
			}
			e.concSteps++
		} else {
			e.pc = append(e.pc, e.ne0(e.reg(f, in.A)))
			e.symSteps++
		}
		f.ii++
		return true, nil

	case ir.OpConst:
		e.setConc(f, in.Dst, expr.Truncate(in.A.Imm, w))

	case ir.OpFrame:
		e.setConc(f, in.Dst, vm.PackAddr(f.frameObj, uint32(in.A.Imm)))

	case ir.OpGlobal:
		e.setConc(f, in.Dst, vm.PackAddr(vm.GlobalObject(int(in.A.Imm)), 0))

	case ir.OpFuncAddr:
		e.setConc(f, in.Dst, uint64(e.mod.FuncIndex(in.Tag)))

	case ir.OpMov, ir.OpZext, ir.OpTrunc:
		x, ok := e.cval(f, in.A)
		if !ok {
			return false, nil
		}
		e.setConc(f, in.Dst, expr.Truncate(x, w))

	case ir.OpSext:
		x, ok := e.cval(f, in.A)
		if !ok {
			return false, nil
		}
		e.setConc(f, in.Dst, uint64(expr.SignExtendValue(x, w)))

	case ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
		x, okx := e.cval(f, in.A)
		y, oky := e.cval(f, in.B)
		if !okx || !oky {
			return false, nil
		}
		e.setConc(f, in.Dst, evalBin(in.Op, w, x, y))

	default:
		// Division and every stateful op are never assigned ModeConc.
		return false, nil
	}
	f.ii++
	e.concSteps++
	return true, nil
}
