package absint

import (
	"sort"

	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
)

const (
	// widenAfter is the number of visits of a loop head before
	// widening kicks in. Lower converges faster but loses bound
	// precision inside loops.
	widenAfter = 8
	// maxFuncRuns caps interprocedural re-analyses per function
	// before the analyzer bails out to the sound one-pass Top
	// approximation.
	maxFuncRuns = 64
)

// FuncFacts is the per-function fixpoint result.
type FuncFacts struct {
	F     *ir.Func
	Index int
	CFG   *dataflow.CFG
	// Ret over-approximates every returned value (Bottom if the
	// function never returns).
	Ret Val
	// Defs maps instruction ID -> the abstract register value the
	// instruction writes. Call results are included; instructions
	// in unreachable code are absent.
	Defs map[int32]Val
	// In is the entry environment (one Val per register) of each
	// block; nil marks blocks the analysis proved unreachable.
	In [][]Val
	// Reached reports whether any root or call site reaches the
	// function at all.
	Reached bool
}

// ModuleFacts is the whole-module fixpoint result.
type ModuleFacts struct {
	Mod   *ir.Module
	Funcs map[string]*FuncFacts
}

// FactFor returns the abstract value of the register defined by
// instruction id in fn, if the analysis reached it.
func (mf *ModuleFacts) FactFor(fn string, id int32) (Val, bool) {
	ff := mf.Funcs[fn]
	if ff == nil || ff.Defs == nil {
		return Val{}, false
	}
	v, ok := ff.Defs[id]
	return v, ok
}

type fstate struct {
	ff         *FuncFacts
	params     []Val
	paramJoins int
	rooted     bool
	reached    bool
	ret        Val
	runs       int
	queued     bool
}

type analyzer struct {
	mod     *ir.Module
	states  []*fstate
	byName  map[string]*fstate
	callers map[string]map[string]bool
	queue   []*fstate
}

// AnalyzeModule runs the interprocedural fixpoint. Functions
// reachable from entry get parameter facts joined over their call
// sites; entry itself, address-taken functions, and functions
// matching an indirect-call arity are rooted with Top parameters.
// An empty entry roots every function (the mode used for lint, whose
// findings must hold for any entry point).
func AnalyzeModule(mod *ir.Module, entry string) *ModuleFacts {
	a := &analyzer{
		mod:     mod,
		byName:  make(map[string]*fstate, len(mod.Funcs)),
		callers: make(map[string]map[string]bool),
	}
	mf := &ModuleFacts{Mod: mod, Funcs: make(map[string]*FuncFacts, len(mod.Funcs))}

	// Collect indirect-call arities: the VM lets an icall reach any
	// function of matching arity, so those must stay Top-rooted.
	icallArity := map[int]bool{}
	addrTaken := map[string]bool{}
	for _, f := range mod.Funcs {
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[ii]
				switch in.Op {
				case ir.OpICall:
					icallArity[len(in.Args)] = true
				case ir.OpFuncAddr:
					addrTaken[in.Tag] = true
				}
			}
		}
	}

	for i, f := range mod.Funcs {
		ff := &FuncFacts{F: f, Index: i, CFG: dataflow.BuildCFG(f)}
		mf.Funcs[f.Name] = ff
		st := &fstate{ff: ff, ret: Bottom()}
		root := entry == "" || f.Name == entry || addrTaken[f.Name] || icallArity[f.NParams]
		if root {
			st.rooted, st.reached = true, true
			st.params = make([]Val, f.NParams)
			for p := range st.params {
				st.params[p] = Top(64)
			}
		}
		a.states = append(a.states, st)
		a.byName[f.Name] = st
	}
	for _, st := range a.states {
		if st.rooted {
			a.enqueue(st)
		}
	}

	total := 0
	budget := maxFuncRuns * (len(a.states) + 1)
	for len(a.queue) > 0 {
		st := a.queue[0]
		a.queue = a.queue[1:]
		st.queued = false
		total++
		if total > budget {
			a.bailout()
			break
		}
		a.runFunc(st)
	}

	for _, st := range a.states {
		st.ff.Ret = st.ret
		st.ff.Reached = st.reached
	}
	return mf
}

func (a *analyzer) enqueue(st *fstate) {
	if !st.queued {
		st.queued = true
		a.queue = append(a.queue, st)
	}
}

// bailout re-derives every reached function once with Top parameters
// and Top callee returns: a dependency-free sound approximation used
// only when the interprocedural budget is exhausted.
func (a *analyzer) bailout() {
	a.queue = nil
	for _, st := range a.states {
		if !st.reached {
			continue
		}
		st.queued = false
		st.params = make([]Val, st.ff.F.NParams)
		for p := range st.params {
			st.params[p] = Top(64)
		}
		st.ret = Top(64)
	}
	for _, st := range a.states {
		if st.reached {
			a.runFuncOnce(st, true)
		}
	}
}

func (a *analyzer) runFunc(st *fstate) {
	st.runs++
	if st.runs > maxFuncRuns {
		return // bounded by the global budget bailout
	}
	a.runFuncOnce(st, false)
}

func copyEnv(env []Val) []Val {
	out := make([]Val, len(env))
	copy(out, env)
	return out
}

func joinEnv(a, b []Val) []Val {
	out := make([]Val, len(a))
	for i := range a {
		out[i] = a[i].Join(b[i], 64)
	}
	return out
}

func widenEnv(old, next []Val) []Val {
	out := make([]Val, len(old))
	for i := range old {
		out[i] = old[i].Widen(next[i], 64)
	}
	return out
}

func envEq(a, b []Val) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (a *analyzer) entryEnv(st *fstate) []Val {
	f := st.ff.F
	env := make([]Val, f.NumRegs)
	for i := range env {
		env[i] = ConstV(0, 64) // vm frames zero-init registers
	}
	for p := 0; p < f.NParams && p < len(env); p++ {
		if st.params != nil && p < len(st.params) {
			env[p] = st.params[p]
		} else {
			env[p] = Top(64)
		}
	}
	return env
}

type edge struct {
	to  int
	env []Val
}

func (a *analyzer) runFuncOnce(st *fstate, topCallees bool) {
	f := st.ff.F
	cfg := st.ff.CFG
	n := len(f.Blocks)
	if n == 0 {
		return
	}
	in := make([][]Val, n)
	visits := make([]int, n)
	in[0] = a.entryEnv(st)
	inWL := make([]bool, n)
	wl := []int{0}
	inWL[0] = true
	pop := func() int {
		best := 0
		for i, b := range wl {
			if cfg.RPONum(b) >= 0 && cfg.RPONum(b) < cfg.RPONum(wl[best]) {
				best = i
			}
		}
		b := wl[best]
		wl = append(wl[:best], wl[best+1:]...)
		inWL[b] = false
		return b
	}

	steps, maxSteps := 0, 64*n+256
	for len(wl) > 0 {
		b := pop()
		if steps++; steps > maxSteps {
			// Per-function safety net: give up on precision, keep
			// soundness.
			for i := range in {
				if in[i] != nil || cfg.Reachable[i] {
					env := a.entryEnv(st)
					for r := range env {
						env[r] = Top(64)
					}
					in[i] = env
				}
			}
			break
		}
		edges, _ := a.execBlock(st, b, copyEnv(in[b]), topCallees, nil)
		for _, e := range edges {
			cur := in[e.to]
			var nw []Val
			if cur == nil {
				nw = e.env
			} else {
				nw = joinEnv(cur, e.env)
				if visits[e.to] >= widenAfter && cfg.RPONum(b) >= cfg.RPONum(e.to) {
					nw = widenEnv(cur, nw)
				}
				if envEq(cur, nw) {
					continue
				}
			}
			in[e.to] = nw
			visits[e.to]++
			if !inWL[e.to] {
				inWL[e.to] = true
				wl = append(wl, e.to)
			}
		}
	}

	// Final pass: record per-def facts and the return summary from
	// the stabilized entry environments.
	defs := make(map[int32]Val)
	ret := Bottom()
	order := make([]int, 0, n)
	for b := 0; b < n; b++ {
		if in[b] != nil {
			order = append(order, b)
		}
	}
	sort.Slice(order, func(i, j int) bool { return cfg.RPONum(order[i]) < cfg.RPONum(order[j]) })
	for _, b := range order {
		_, r := a.execBlock(st, b, copyEnv(in[b]), topCallees, defs)
		ret = ret.Join(r, 64)
	}
	st.ff.In = in
	st.ff.Defs = defs
	if ret != st.ret {
		st.ret = ret
		for name := range a.callers[f.Name] {
			if cs := a.byName[name]; cs != nil && !topCallees {
				a.enqueue(cs)
			}
		}
	}
}

// recordCall joins concrete call-site arguments into the callee's
// parameter facts, waking the callee (and transitively its callers)
// when they grow.
func (a *analyzer) recordCall(caller *fstate, callee string, args []Val) *fstate {
	st := a.byName[callee]
	if st == nil {
		return nil
	}
	if a.callers[callee] == nil {
		a.callers[callee] = make(map[string]bool)
	}
	a.callers[callee][caller.ff.F.Name] = true
	if st.rooted {
		if !st.reached {
			st.reached = true
			a.enqueue(st)
		}
		return st
	}
	changed := !st.reached
	st.reached = true
	if st.params == nil {
		st.params = make([]Val, st.ff.F.NParams)
		for i := range st.params {
			st.params[i] = Bottom()
		}
	}
	for i := range st.params {
		var av Val
		if i < len(args) {
			av = args[i]
		} else {
			av = ConstV(0, 64) // missing args read as zeroed registers
		}
		nv := st.params[i].Join(av, 64)
		if st.paramJoins > widenAfter*4 {
			nv = st.params[i].Widen(nv, 64)
		}
		if nv != st.params[i] {
			st.params[i] = nv
			changed = true
		}
	}
	if changed {
		st.paramJoins++
		a.enqueue(st)
	}
	return st
}

// execBlock interprets one block from env, returning the out-edges
// (with branch refinement applied) and the joined OpRet value. When
// defs is non-nil the computed per-instruction values are recorded.
func (a *analyzer) execBlock(st *fstate, b int, env []Val, topCallees bool, defs map[int32]Val) ([]edge, Val) {
	f := st.ff.F
	blk := f.Blocks[b]
	ret := Bottom()
	argVal := func(arg ir.Arg) Val {
		if arg.K == ir.ArgImm {
			return ConstV(arg.Imm, 64)
		}
		return env[arg.Reg]
	}
	set := func(in *ir.Instr, v Val) {
		if in.Dst >= 0 && in.Dst < len(env) {
			env[in.Dst] = v
		}
		if defs != nil {
			defs[in.ID] = v
		}
	}
	for ii := range blk.Instrs {
		in := &blk.Instrs[ii]
		w := uint(in.W)
		switch in.Op {
		case ir.OpConst:
			set(in, ConstV(in.A.Imm, w))
		case ir.OpMov:
			set(in, argVal(in.A).TruncTo(w))
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
			ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
			v := BinV(in.Op, w, argVal(in.A), argVal(in.B))
			set(in, v)
			if v.IsBottom() {
				return nil, ret // op fails on every input reaching it
			}
		case ir.OpZext, ir.OpTrunc:
			set(in, argVal(in.A).TruncTo(w))
		case ir.OpSext:
			set(in, argVal(in.A).SextFrom(w))
		case ir.OpLoad:
			if a.accessMustFail(st, argVal(in.A), int64(in.W.Bytes())) {
				return nil, ret
			}
			set(in, Top(w))
		case ir.OpStore:
			if a.accessMustFail(st, argVal(in.A), int64(in.W.Bytes())) {
				return nil, ret
			}
		case ir.OpFrame:
			off := uint64(uint32(in.A.Imm))
			if f.FrameSize > 0 {
				v := ConstV(off, 32)
				v.PKind, v.PIdx = PtrFrame, int32(st.ff.Index)
				set(in, v)
			} else {
				// No frame object: the packed address has object 0.
				set(in, ConstV(off, 64))
			}
		case ir.OpGlobal:
			v := ConstV(0, 32)
			v.PKind, v.PIdx = PtrGlobal, int32(in.A.Imm)
			set(in, v)
		case ir.OpMalloc:
			sz := argVal(in.A).demote()
			if sz.IsBottom() || sz.Lo > 1<<28 {
				return nil, ret // malloc always fails
			}
			v := ConstV(0, 32)
			v.PKind = PtrHeap
			set(in, v)
		case ir.OpFree:
			// No register effect; failure modes are input-dependent.
		case ir.OpFuncAddr:
			set(in, ConstV(uint64(int64(a.mod.FuncIndex(in.Tag))), 64))
		case ir.OpCall:
			args := make([]Val, len(in.Args))
			for i, arg := range in.Args {
				args[i] = argVal(arg)
			}
			cs := a.recordCall(st, in.Tag, args)
			rv := Top(64)
			if !topCallees && cs != nil {
				rv = cs.ret
			}
			set(in, rv)
			if rv.IsBottom() {
				return nil, ret // callee (so far) never returns
			}
		case ir.OpICall:
			// Any matching-arity function may run (all rooted Top);
			// the result is unconstrained.
			set(in, Top(64))
		case ir.OpInput:
			set(in, Top(w))
		case ir.OpSpawn:
			args := make([]Val, len(in.Args))
			for i, arg := range in.Args {
				args[i] = argVal(arg)
			}
			a.recordCall(st, in.Tag, args)
			set(in, Top(64))
		case ir.OpJoin, ir.OpLock, ir.OpUnlock, ir.OpYield, ir.OpOutput, ir.OpPtWrite:
			// No register effect.
		case ir.OpAssert:
			c := argVal(in.A)
			if !c.IsBottom() && c.demote().Hi == 0 {
				return nil, ret // assert fails on every execution
			}
			if in.A.K == ir.ArgReg {
				refineTruth(env, blk, ii, in.A.Reg, true)
				if env[in.A.Reg].IsBottom() {
					return nil, ret
				}
			}
		case ir.OpAbort:
			return nil, ret
		case ir.OpBr:
			return []edge{{to: in.Blk, env: env}}, ret
		case ir.OpCondBr:
			c := argVal(in.A)
			var out []edge
			mkEdge := func(to int, taken bool) {
				e := copyEnv(env)
				if in.A.K == ir.ArgReg {
					refineTruth(e, blk, ii, in.A.Reg, taken)
					if e[in.A.Reg].IsBottom() {
						return // edge infeasible
					}
				}
				out = append(out, edge{to: to, env: e})
			}
			cd := c.demote()
			if !cd.IsBottom() && cd.Lo >= 1 {
				mkEdge(in.Blk, true)
			} else if !cd.IsBottom() && cd.Hi == 0 {
				mkEdge(in.Blk2, false)
			} else {
				mkEdge(in.Blk, true)
				mkEdge(in.Blk2, false)
			}
			return out, ret
		case ir.OpRet:
			ret = ret.Join(argVal(in.A), 64)
			return nil, ret
		}
	}
	return nil, ret
}

// accessMustFail reports whether a load/store of nb bytes at addr is
// out of bounds for every value of addr (the provable-OOB condition).
func (a *analyzer) accessMustFail(st *fstate, addr Val, nb int64) bool {
	if addr.IsBottom() {
		return false
	}
	size, offLo, _, ok := accessBounds(a.mod, addr)
	return ok && int64(offLo)+nb > size
}

// refineTruth strengthens env given that register r is nonzero
// (truth) or zero (!truth), following r back to a defining
// comparison in the same block when the operands are unclobbered.
func refineTruth(env []Val, blk *ir.Block, upto int, r int, truth bool) {
	nz := Val{Lo: 1, Hi: ^uint64(0)}
	if truth {
		env[r] = env[r].Meet(nz, 64)
	} else {
		env[r] = env[r].Meet(ConstV(0, 64), 64)
	}
	if env[r].IsBottom() {
		return
	}
	// Find the defining comparison.
	di := -1
	for i := upto - 1; i >= 0; i-- {
		in := &blk.Instrs[i]
		if in.Dst == r && writesDst(in.Op) {
			di = i
			break
		}
	}
	if di < 0 {
		return
	}
	def := &blk.Instrs[di]
	switch def.Op {
	case ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
	default:
		return
	}
	// Operand registers must not be redefined between def and use.
	clobbered := func(arg ir.Arg) bool {
		if arg.K != ir.ArgReg {
			return false
		}
		for i := di + 1; i < upto; i++ {
			in := &blk.Instrs[i]
			if in.Dst == arg.Reg && writesDst(in.Op) {
				return true
			}
		}
		return false
	}
	if clobbered(def.A) || clobbered(def.B) {
		return
	}
	refineCmp(env, def, truth)
}

// writesDst reports whether the op defines Dst when executed.
func writesDst(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle,
		ir.OpZext, ir.OpSext, ir.OpTrunc,
		ir.OpLoad, ir.OpFrame, ir.OpGlobal, ir.OpMalloc, ir.OpFuncAddr,
		ir.OpCall, ir.OpICall, ir.OpInput, ir.OpSpawn:
		return true
	}
	return false
}

// refineCmp narrows the operand registers of comparison def given its
// result truth value. Registers are refined only when they already
// fit the comparison width (the VM masks operands before comparing,
// so a wider register cannot be constrained directly) and carry no
// pointer provenance.
func refineCmp(env []Val, def *ir.Instr, truth bool) {
	w := uint(def.W)
	m := mask(w)
	op := def.Op
	// Normalize Ne away.
	if op == ir.OpNe {
		op, truth = ir.OpEq, !truth
	}
	get := func(arg ir.Arg) (Val, bool) {
		if arg.K == ir.ArgImm {
			return ConstV(arg.Imm, w), false // constants are not refinable
		}
		v := env[arg.Reg]
		return v.TruncTo(w), v.PKind == PtrNone && !v.IsBottom() && v.Hi <= m
	}
	va, aOK := get(def.A)
	vb, bOK := get(def.B)
	apply := func(arg ir.Arg, ok bool, nv Val) {
		if ok && arg.K == ir.ArgReg {
			env[arg.Reg] = env[arg.Reg].Meet(nv, w)
		}
	}
	// Signed comparisons refine like unsigned when both sides are
	// provably in the non-negative half.
	if op == ir.OpSlt || op == ir.OpSle {
		if va.IsBottom() || vb.IsBottom() || !signedNonNeg(va, w) || !signedNonNeg(vb, w) {
			return
		}
		if op == ir.OpSlt {
			op = ir.OpUlt
		} else {
			op = ir.OpUle
		}
		// Additionally everything stays below the sign bit.
		half := Range(0, mask(w)>>1, w)
		apply(def.A, aOK, half)
		apply(def.B, bOK, half)
	}
	if va.IsBottom() || vb.IsBottom() {
		return
	}
	switch {
	case op == ir.OpEq && truth:
		nv := va.Meet(vb, w)
		apply(def.A, aOK, nv)
		apply(def.B, bOK, nv)
	case op == ir.OpEq && !truth:
		if c, ok := vb.IsConst(); ok && aOK {
			apply(def.A, aOK, excludeConst(env[def.A.Reg].TruncTo(w), c, w))
		}
		if c, ok := va.IsConst(); ok && bOK {
			apply(def.B, bOK, excludeConst(env[def.B.Reg].TruncTo(w), c, w))
		}
	case op == ir.OpUlt && truth: // a < b
		if vb.Hi == 0 {
			apply(def.A, aOK, Bottom())
			return
		}
		apply(def.A, aOK, Range(0, vb.Hi-1, w))
		apply(def.B, bOK, Range(va.Lo+1, m, w))
	case op == ir.OpUlt && !truth: // a >= b
		apply(def.A, aOK, Range(vb.Lo, m, w))
		apply(def.B, bOK, Range(0, va.Hi, w))
	case op == ir.OpUle && truth: // a <= b
		apply(def.A, aOK, Range(0, vb.Hi, w))
		apply(def.B, bOK, Range(va.Lo, m, w))
	case op == ir.OpUle && !truth: // a > b
		if va.Hi == 0 {
			apply(def.B, bOK, Bottom())
			return
		}
		apply(def.A, aOK, Range(vb.Lo+1, m, w))
		apply(def.B, bOK, Range(0, va.Hi-1, w))
	}
}

// excludeConst removes a single excluded value from an interval when
// it sits on an endpoint.
func excludeConst(v Val, c uint64, w uint) Val {
	if v.IsBottom() {
		return v
	}
	if v.Lo == c && v.Hi == c {
		return Bottom()
	}
	if v.Lo == c {
		return norm(Val{Lo: c + 1, Hi: v.Hi, Mask: v.Mask, Bits: v.Bits}, w)
	}
	if v.Hi == c {
		return norm(Val{Lo: v.Lo, Hi: c - 1, Mask: v.Mask, Bits: v.Bits}, w)
	}
	return v
}
