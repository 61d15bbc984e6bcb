package dataflow

import "execrecon/internal/ir"

// Mode is the statically assigned execution mode of one instruction
// under slice-pruned shepherded symbolic execution.
type Mode uint8

// Execution modes. The soundness contract (see DESIGN.md "Static
// analysis") is that a slice-pruned run accumulates exactly the path
// constraint of the full run: ModeSym instructions execute the
// unmodified symbolic path; ModeConc instructions would have produced
// constant expressions in the full run, so evaluating them natively
// changes nothing; ModeSkip instructions produce values no constraint
// can ever read; ModeLoadNoVal loads perform the full address
// resolution, object check, and bounds constraints of a symbolic load
// but skip materialising the loaded value.
const (
	ModeSym Mode = iota
	ModeConc
	ModeSkip
	ModeLoadNoVal
)

func (m Mode) String() string {
	switch m {
	case ModeSym:
		return "sym"
	case ModeConc:
		return "conc"
	case ModeSkip:
		return "skip"
	case ModeLoadNoVal:
		return "loadnv"
	}
	return "mode?"
}

// FuncAnalysis carries the per-function results of Analyze.
type FuncAnalysis struct {
	F   *ir.Func
	CFG *CFG

	// Needed[r] reports that register r is in the backward failure
	// slice: its exact value may flow into a path constraint, a memory
	// address, an allocation size, a control-flow decision, or a
	// recorded data value. Unneeded registers may be left undefined by
	// the pruned executor.
	Needed []bool

	// Tainted[r] reports that r may be input-derived (see Taint).
	Tainted []bool

	// Modes[blk][ii] is the statically assigned execution mode.
	Modes [][]Mode

	// Static mode counts over reachable blocks.
	NInstrs, NSym, NConc, NSkip, NLoadNoVal int
}

// Mode returns the execution mode of instruction (blk, ii).
func (fa *FuncAnalysis) Mode(blk, ii int) Mode { return fa.Modes[blk][ii] }

// Analysis is the module-wide static analysis consumed by
// internal/symex (slice-pruned stepping).
type Analysis struct {
	Mod   *ir.Module
	Taint *Taint
	Funcs []*FuncAnalysis

	byName map[string]*FuncAnalysis
	byFunc map[*ir.Func]*FuncAnalysis
}

// Func returns the analysis of the named function, or nil.
func (a *Analysis) Func(name string) *FuncAnalysis { return a.byName[name] }

// ByFunc returns the analysis of f, matching by identity first and by
// name as a fallback (instrumented clones share names, not pointers).
// A name match whose block/instruction shape disagrees with f — a
// stale analysis of a differently instrumented module — returns nil
// rather than a misaligned mode table.
func (a *Analysis) ByFunc(f *ir.Func) *FuncAnalysis {
	if fa, ok := a.byFunc[f]; ok {
		return fa
	}
	fa := a.byName[f.Name]
	if fa == nil || !fa.matches(f) {
		return nil
	}
	return fa
}

// matches reports whether fa's mode table lines up with f's shape.
func (fa *FuncAnalysis) matches(f *ir.Func) bool {
	if fa.F == f {
		return true
	}
	if len(fa.Modes) != len(f.Blocks) {
		return false
	}
	for i, b := range f.Blocks {
		if len(fa.Modes[i]) != len(b.Instrs) {
			return false
		}
	}
	return true
}

// pureOp reports whether op is a register-to-register computation with
// no side effects, no constraints, and no trace events — the ops the
// pruned executor may evaluate natively or skip outright.
func pureOp(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpZext, ir.OpSext, ir.OpTrunc,
		ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle,
		ir.OpFrame, ir.OpGlobal, ir.OpFuncAddr:
		return true
	}
	return false
}

// Analyze builds the static analysis reproduction reads: control-flow
// graphs with reachability, input taint, and the backward failure
// slice with its per-instruction execution modes.
func Analyze(mod *ir.Module) *Analysis {
	a := &Analysis{
		Mod:    mod,
		Taint:  BuildTaint(mod),
		byName: make(map[string]*FuncAnalysis, len(mod.Funcs)),
		byFunc: make(map[*ir.Func]*FuncAnalysis, len(mod.Funcs)),
	}
	for fi, f := range mod.Funcs {
		fa := &FuncAnalysis{
			F:       f,
			CFG:     BuildCFG(f),
			Needed:  make([]bool, f.NumRegs),
			Tainted: a.Taint.RegTaint[fi],
			Modes:   make([][]Mode, len(f.Blocks)),
		}
		for bi, b := range f.Blocks {
			fa.Modes[bi] = make([]Mode, len(b.Instrs))
		}
		a.Funcs = append(a.Funcs, fa)
		a.byName[f.Name] = fa
		a.byFunc[f] = fa
	}
	a.computeNeeded()
	a.assignModes()
	return a
}

// computeNeeded runs the interprocedural backward-slice fixpoint.
//
// Roots (R1) are the operands whose exact value the shepherded
// executor must materialise regardless of pruning: every potential
// failure site (assert conditions, load/store addresses and stored
// values, division operands, allocation sizes, free/join/lock
// operands), every control decision (condbr conditions, indirect call
// targets), and every recorded value (ptwrite). Neededness then
// propagates (R2) from a needed register to the operands of all its
// defining instructions, (R3) from a needed callee parameter to the
// argument registers of every call site, and (R4) from a needed
// call-site destination to the callee's return operands.
func (a *Analysis) computeNeeded() {
	mod := a.Mod
	retNeeded := make([]bool, len(mod.Funcs))
	need := func(fi int, args ...ir.Arg) bool {
		ch := false
		for _, arg := range args {
			if arg.K == ir.ArgReg && !a.Funcs[fi].Needed[arg.Reg] {
				a.Funcs[fi].Needed[arg.Reg] = true
				ch = true
			}
		}
		return ch
	}
	for changed := true; changed; {
		changed = false
		for fi, f := range mod.Funcs {
			fa := a.Funcs[fi]
			for _, b := range f.Blocks {
				for ii := range b.Instrs {
					in := &b.Instrs[ii]
					switch in.Op {
					// R1: roots.
					case ir.OpCondBr, ir.OpAssert, ir.OpMalloc, ir.OpFree,
						ir.OpJoin, ir.OpLock, ir.OpUnlock, ir.OpPtWrite,
						ir.OpLoad:
						changed = need(fi, in.A) || changed
					case ir.OpStore:
						changed = need(fi, in.A, in.B) || changed
					case ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem:
						changed = need(fi, in.A, in.B) || changed
						// R2 for the destination's own operands is
						// covered above: both operands are roots.
					case ir.OpCall:
						gi := mod.FuncIndex(in.Tag)
						if gi < 0 {
							break
						}
						// R3: needed callee params pull call args.
						for i, arg := range in.Args {
							if i < mod.Funcs[gi].NParams && a.Funcs[gi].Needed[i] {
								changed = need(fi, arg) || changed
							}
						}
						// R4: needed dst pulls callee returns.
						if fa.Needed[in.Dst] && !retNeeded[gi] {
							retNeeded[gi] = true
							changed = true
						}
					case ir.OpICall:
						changed = need(fi, in.A) || changed
						for _, gi := range a.Taint.AddrTaken {
							for i, arg := range in.Args {
								if i < mod.Funcs[gi].NParams && a.Funcs[gi].Needed[i] {
									changed = need(fi, arg) || changed
								}
							}
							if fa.Needed[in.Dst] && !retNeeded[gi] {
								retNeeded[gi] = true
								changed = true
							}
						}
					case ir.OpSpawn:
						if gi := mod.FuncIndex(in.Tag); gi >= 0 &&
							mod.Funcs[gi].NParams > 0 && a.Funcs[gi].Needed[0] {
							changed = need(fi, in.A) || changed
						}
					case ir.OpRet:
						if retNeeded[fi] {
							changed = need(fi, in.A) || changed
						}
					}
					// R2: a needed destination needs its operands.
					if writesReg(in) && fa.Needed[in.Dst] {
						switch in.Op {
						case ir.OpCall, ir.OpICall, ir.OpSpawn, ir.OpInput,
							ir.OpMalloc, ir.OpLoad:
							// Calls propagate via R3/R4; inputs have no
							// operands; malloc/load operands are roots.
						default:
							changed = need(fi, in.A, in.B) || changed
						}
					}
				}
			}
		}
	}
}

// assignModes fills the per-instruction mode tables from the needed
// and taint facts.
func (a *Analysis) assignModes() {
	for fi, f := range a.Mod.Funcs {
		fa := a.Funcs[fi]
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				m := ModeSym
				switch {
				case in.Op == ir.OpBr, in.Op == ir.OpOutput, in.Op == ir.OpYield:
					// No expression work in the full run either, but
					// the pruned stepper bypasses the dispatch and the
					// per-op bookkeeping.
					m = ModeConc
				case in.Op == ir.OpCondBr || in.Op == ir.OpAssert:
					if !a.Taint.Tainted(fi, in.A) {
						m = ModeConc
					}
				case in.Op == ir.OpLoad:
					if !fa.Needed[in.Dst] {
						m = ModeLoadNoVal
					}
				case pureOp(in.Op):
					switch {
					case !fa.Needed[in.Dst]:
						m = ModeSkip
					case !a.Taint.Tainted(fi, in.A) && !a.Taint.Tainted(fi, in.B):
						m = ModeConc
					}
				}
				fa.Modes[bi][ii] = m
				if !fa.CFG.Reachable[bi] {
					continue
				}
				fa.NInstrs++
				switch m {
				case ModeSym:
					fa.NSym++
				case ModeConc:
					fa.NConc++
				case ModeSkip:
					fa.NSkip++
				case ModeLoadNoVal:
					fa.NLoadNoVal++
				}
			}
		}
	}
}
