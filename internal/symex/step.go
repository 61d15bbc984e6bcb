package symex

import (
	"fmt"

	"execrecon/internal/expr"
	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// run is the shepherded main loop: execute the thread announced by
// the last chunk packet, switching whenever the next trace event is a
// chunk boundary, until the trace is consumed and the failure point is
// reached.
func (e *Engine) run(entry string) error {
	fn := e.mod.FuncByName(entry)
	if fn == nil {
		return fmt.Errorf("symex: no function %q", entry)
	}
	t0 := &sthread{id: 0}
	e.threads = append(e.threads, t0)
	e.pushFrame(t0, fn, nil, -1)

	// switchChunk consumes a chunk packet and selects its thread.
	cur := -1
	switchChunk := func() error {
		ev := e.cursor.Next()
		if ev.Tid >= len(e.threads) {
			return &divergeError{reason: fmt.Sprintf("chunk for unknown thread %d", ev.Tid)}
		}
		cur = ev.Tid
		return nil
	}
	if ev := e.cursor.Peek(); ev == nil || ev.Kind != pt.EvChunk {
		return &divergeError{reason: "trace does not begin with a chunk packet"}
	}
	if err := switchChunk(); err != nil {
		return err
	}
	// consumePGD consumes a pause marker that matches the thread's
	// instructions-since-last-event counter, then performs a chunk
	// switch if one follows. The count match locates the preemption
	// precisely even inside event-silent instruction stretches.
	consumePGD := func(t *sthread) error {
		ev := e.cursor.Peek()
		if ev == nil || ev.Kind != pt.EvPGD || ev.Count != t.sinceEvent {
			return nil
		}
		e.cursor.Next()
		if nx := e.cursor.Peek(); nx != nil && nx.Kind == pt.EvChunk {
			return switchChunk()
		}
		return nil
	}
	for {
		t := e.threads[cur]
		if t.state != sRunnable || len(t.stack) == 0 {
			// The current thread paused (blocked or finished): its
			// pause marker and the scheduler's successor follow.
			if len(t.stack) == 0 && t.state != sDone {
				t.state = sDone
				e.wakeJoiners(t.id)
			}
			if ev := e.cursor.Peek(); ev != nil && ev.Kind == pt.EvPGD && ev.Count == t.sinceEvent {
				e.cursor.Next()
			}
			ev := e.cursor.Peek()
			if ev == nil {
				// Trace exhausted with the current thread not
				// runnable: only consistent with scheduler-level
				// failures (deadlock/hang).
				if e.failure != nil && e.failure.Kind == vm.FailDeadlock {
					return e.finish()
				}
				return &divergeError{reason: "trace ended with current thread not runnable"}
			}
			if ev.Kind != pt.EvChunk {
				return &divergeError{reason: "non-chunk event while current thread not runnable"}
			}
			if err := switchChunk(); err != nil {
				return err
			}
			continue
		}
		done, err := e.stepOne(t)
		if err != nil {
			return err
		}
		if done {
			return e.finish()
		}
		if err := consumePGD(t); err != nil {
			return err
		}
		if e.instrs > e.opts.MaxInstrs {
			return fmt.Errorf("symex: instruction budget exhausted (%d)", e.instrs)
		}
	}
}

func (e *Engine) pushFrame(t *sthread, fn *ir.Func, args []*expr.Expr, retDst int) {
	f := &sframe{fn: fn, regs: make([]*expr.Expr, fn.NumRegs), retDst: retDst}
	copy(f.regs, args)
	if e.an != nil {
		if f.fa = e.an.ByFunc(fn); f.fa != nil {
			f.conc = make([]bool, fn.NumRegs)
			f.cvals = make([]uint64, fn.NumRegs)
		}
	}
	if fn.FrameSize > 0 {
		e.objs = append(e.objs, &sobj{
			label: "f:" + fn.Name,
			arr:   e.b.ConstArray(e.b.Const(0, 8), 32),
			size:  e.b.Const(uint64(fn.FrameSize), 64),
		})
		f.frameObj = uint32(len(e.objs) - 1)
	}
	t.stack = append(t.stack, f)
}

func (e *Engine) popFrame(t *sthread) {
	f := t.stack[len(t.stack)-1]
	if f.frameObj != 0 {
		e.objs[f.frameObj].freed = true
	}
	t.stack = t.stack[:len(t.stack)-1]
}

func (e *Engine) wakeJoiners(tid int) {
	for _, o := range e.threads {
		if o.state == sBlockedJoin && o.waitTid == tid {
			o.state = sRunnable
		}
	}
}

func (e *Engine) wakeLockers(mu uint64) {
	for _, o := range e.threads {
		if o.state == sBlockedLock && o.waitMu == mu {
			o.state = sRunnable
		}
	}
}

// reg reads an operand as a 64-bit expression. Registers computed
// natively by the slice-pruned fast path are materialised as constant
// expressions here, on first symbolic read.
func (e *Engine) reg(f *sframe, a ir.Arg) *expr.Expr {
	if a.K == ir.ArgImm {
		return e.b.Const(a.Imm, 64)
	}
	v := f.regs[a.Reg]
	if v == nil {
		if f.conc != nil && f.conc[a.Reg] {
			return e.b.Const(f.cvals[a.Reg], 64)
		}
		return e.b.Const(0, 64)
	}
	return v
}

// low truncates a 64-bit expression to width w.
func (e *Engine) low(v *expr.Expr, w ir.Width) *expr.Expr {
	return e.b.Extract(v, 0, uint(w))
}

// up zero-extends to 64 bits.
func (e *Engine) up(v *expr.Expr) *expr.Expr { return e.b.ZExt(v, 64) }

// ne0 builds the boolean "v != 0".
func (e *Engine) ne0(v *expr.Expr) *expr.Expr {
	return e.b.Ne(v, e.b.Const(0, v.Width))
}

func (e *Engine) nextEvent(kind pt.EventKind, what string) (*pt.Event, error) {
	ev := e.cursor.Next()
	if ev == nil {
		return nil, &divergeError{reason: "trace exhausted awaiting " + what}
	}
	if ev.Kind != kind {
		return nil, &divergeError{reason: fmt.Sprintf("expected %s event, got kind %d", what, ev.Kind)}
	}
	return ev, nil
}

// atFailurePoint reports whether instruction in of fn is the recorded
// failure site and the trace has been fully consumed.
func (e *Engine) atFailurePoint(fn *ir.Func, in *ir.Instr) bool {
	if e.failure == nil || e.cursor.Remaining() > 0 {
		return false
	}
	return e.failure.Func == fn.Name && e.failure.InstrID == in.ID
}

// stepOne executes one instruction of thread t. It returns done=true
// when the failure point has been reached and encoded.
func (e *Engine) stepOne(t *sthread) (bool, error) {
	f := t.stack[len(t.stack)-1]
	in := &f.fn.Blocks[f.blk].Instrs[f.ii]
	e.instrs++
	e.recordProgress()

	if e.atFailurePoint(f.fn, in) {
		return true, e.applyFailure(t, f, in)
	}

	// Mirror the VM's pause-marker counter.
	t.sinceEvent++
	switch in.Op {
	case ir.OpCondBr, ir.OpRet, ir.OpICall, ir.OpPtWrite:
		defer func() { t.sinceEvent = 0 }()
	}

	// Slice-pruned fast path: instructions statically proved outside
	// the backward failure slice execute natively or are skipped.
	if f.fa != nil {
		if handled, err := e.fastStep(t, f, in, f.fa.Mode(f.blk, f.ii)); handled {
			return false, err
		}
	}
	e.symSteps++

	b := e.b
	w := in.W
	adv := true
	switch in.Op {
	case ir.OpConst:
		f.regs[in.Dst] = b.Const(expr.Truncate(in.A.Imm, uint(w)), 64)
	case ir.OpMov, ir.OpZext, ir.OpTrunc:
		v := e.up(e.low(e.reg(f, in.A), w))
		f.regs[in.Dst] = v
		e.defineSite(f.fn, in, v, w)
	case ir.OpSext:
		v := b.SExt(e.low(e.reg(f, in.A), w), 64)
		f.regs[in.Dst] = v
		e.defineSite(f.fn, in, v, ir.W64)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
		va := e.low(e.reg(f, in.A), w)
		vb := e.low(e.reg(f, in.B), w)
		if in.Op == ir.OpUDiv || in.Op == ir.OpURem || in.Op == ir.OpSDiv || in.Op == ir.OpSRem {
			// The traced run did not fail here, so the divisor was
			// nonzero.
			if vb.IsConst() {
				if vb.Val == 0 {
					return false, &divergeError{reason: "constant zero divisor off the failure point"}
				}
			} else {
				e.pc = append(e.pc, b.Ne(vb, b.Const(0, uint(w))))
			}
		}
		v := e.binOp(in.Op, va, vb)
		f.regs[in.Dst] = v
		e.defineSite(f.fn, in, v, w)
	case ir.OpLoad:
		v, err := e.loadMem(t, f, in)
		if err != nil {
			return false, err
		}
		f.regs[in.Dst] = v
		e.defineSite(f.fn, in, v, w)
	case ir.OpStore:
		if err := e.storeMem(t, f, in); err != nil {
			return false, err
		}
	case ir.OpFrame:
		f.regs[in.Dst] = b.Const(vm.PackAddr(f.frameObj, uint32(in.A.Imm)), 64)
	case ir.OpGlobal:
		f.regs[in.Dst] = b.Const(vm.PackAddr(vm.GlobalObject(int(in.A.Imm)), 0), 64)
	case ir.OpMalloc:
		// The size stays symbolic; the traced run proves it passed
		// the allocator's limit check.
		size := e.reg(f, in.A)
		if size.IsConst() {
			if size.Val > 1<<28 {
				return false, &divergeError{reason: "oversized allocation off the failure point"}
			}
		} else {
			e.pc = append(e.pc, b.Ule(size, b.Const(1<<28, 64)))
		}
		e.objs = append(e.objs, &sobj{
			label: fmt.Sprintf("heap#%d", len(e.objs)),
			arr:   b.ConstArray(b.Const(0, 8), 32),
			size:  size,
			heap:  true,
		})
		f.regs[in.Dst] = b.Const(vm.PackAddr(uint32(len(e.objs)-1), 0), 64)
	case ir.OpFree:
		addr, err := e.concretize(e.reg(f, in.A), "freed address")
		if err != nil {
			return false, err
		}
		obj, off := vm.SplitAddr(addr)
		if obj == 0 || int(obj) >= len(e.objs) || off != 0 || !e.objs[obj].heap || e.objs[obj].freed {
			return false, &divergeError{reason: "invalid free off the failure point"}
		}
		e.objs[obj].freed = true
	case ir.OpFuncAddr:
		f.regs[in.Dst] = b.Const(uint64(e.mod.FuncIndex(in.Tag)), 64)
	case ir.OpBr:
		f.blk, f.ii = in.Blk, 0
		adv = false
	case ir.OpCondBr:
		ev, err := e.nextEvent(pt.EvTNT, "TNT (conditional branch)")
		if err != nil {
			return false, err
		}
		cond := e.reg(f, in.A)
		if cond.IsConst() {
			if (cond.Val != 0) != ev.Taken {
				return false, &divergeError{reason: "concrete branch contradicts trace"}
			}
		} else {
			c := e.ne0(cond)
			if ev.Taken {
				e.pc = append(e.pc, c)
			} else {
				e.pc = append(e.pc, b.BoolNot(c))
			}
		}
		if ev.Taken {
			f.blk = in.Blk
		} else {
			f.blk = in.Blk2
		}
		f.ii = 0
		adv = false
	case ir.OpCall:
		callee := e.mod.FuncByName(in.Tag)
		args := make([]*expr.Expr, len(in.Args))
		for i, a := range in.Args {
			args[i] = e.reg(f, a)
		}
		f.ii++ // return lands after the call
		e.pushFrame(t, callee, args, in.Dst)
		return false, nil
	case ir.OpICall:
		ev, err := e.nextEvent(pt.EvTIP, "TIP (indirect call)")
		if err != nil {
			return false, err
		}
		fp := e.reg(f, in.A)
		if fp.IsConst() {
			if fp.Val != ev.Target {
				return false, &divergeError{reason: "concrete indirect target contradicts trace"}
			}
		} else {
			e.pc = append(e.pc, b.Eq(fp, b.Const(ev.Target, 64)))
		}
		if ev.Target >= uint64(len(e.mod.Funcs)) {
			return false, &divergeError{reason: "indirect target out of range off the failure point"}
		}
		callee := e.mod.Funcs[ev.Target]
		args := make([]*expr.Expr, len(in.Args))
		for i, a := range in.Args {
			args[i] = e.reg(f, a)
		}
		f.ii++
		e.pushFrame(t, callee, args, in.Dst)
		return false, nil
	case ir.OpRet:
		if _, err := e.nextEvent(pt.EvTNT, "TNT (compressed ret)"); err != nil {
			return false, err
		}
		rv := e.reg(f, in.A)
		e.popFrame(t)
		if len(t.stack) == 0 {
			t.state = sDone
			e.wakeJoiners(t.id)
			return false, nil
		}
		cf := t.stack[len(t.stack)-1]
		if f.retDst >= 0 {
			cf.regs[f.retDst] = rv
		}
		return false, nil
	case ir.OpInput:
		e.inputSeq++
		name := fmt.Sprintf("in!%s!%d", in.Tag, e.inputSeq)
		v := e.b.Var(name, uint(w))
		e.inputs = append(e.inputs, InputRecord{Tag: in.Tag, Width: w, Var: name})
		f.regs[in.Dst] = e.up(v)
		e.defineSite(f.fn, in, e.up(v), w)
	case ir.OpAbort:
		return false, &divergeError{reason: "abort off the failure point"}
	case ir.OpAssert:
		cond := e.reg(f, in.A)
		if cond.IsConst() {
			if cond.Val == 0 {
				return false, &divergeError{reason: "concrete assertion failure off the failure point"}
			}
		} else {
			e.pc = append(e.pc, e.ne0(cond))
		}
	case ir.OpOutput:
		// Observable output adds no constraints.
	case ir.OpPtWrite:
		ev, err := e.nextEvent(pt.EvPTW, "PTW (recorded data value)")
		if err != nil {
			return false, err
		}
		if ev.Key != in.ID {
			return false, &divergeError{reason: fmt.Sprintf("PTW key %d at ptwrite %d", ev.Key, in.ID)}
		}
		cur := e.low(e.reg(f, in.A), w)
		cv := e.b.Const(ev.Value, uint(w))
		if cur.IsConst() {
			if cur.Val != cv.Val {
				return false, &divergeError{reason: "recorded value contradicts concrete state"}
			}
		} else {
			// Bind the symbolic value to the recorded one and
			// concretize the register — this is how recorded key
			// data values simplify all downstream constraints.
			e.pc = append(e.pc, e.b.Eq(cur, cv))
			if in.A.K == ir.ArgReg {
				f.regs[in.A.Reg] = e.b.Const(ev.Value, 64)
			}
		}
	case ir.OpSpawn:
		callee := e.mod.FuncByName(in.Tag)
		nt := &sthread{id: len(e.threads)}
		e.threads = append(e.threads, nt)
		args := make([]*expr.Expr, len(in.Args))
		for i, a := range in.Args {
			args[i] = e.reg(f, a)
		}
		e.pushFrame(nt, callee, args, -1)
		f.regs[in.Dst] = e.b.Const(uint64(nt.id), 64)
	case ir.OpJoin:
		tid, err := e.concretize(e.reg(f, in.A), "joined thread id")
		if err != nil {
			return false, err
		}
		if tid >= uint64(len(e.threads)) {
			return false, &divergeError{reason: "join of unknown thread"}
		}
		if e.threads[tid].state != sDone {
			t.state = sBlockedJoin
			t.waitTid = int(tid)
			return false, nil // do not advance; re-executed on wake
		}
	case ir.OpLock:
		mu, err := e.concretize(e.reg(f, in.A), "mutex id")
		if err != nil {
			return false, err
		}
		owner, held := e.mus[mu]
		if held && owner >= 0 {
			if owner == t.id {
				return false, &divergeError{reason: "recursive lock off the failure point"}
			}
			t.state = sBlockedLock
			t.waitMu = mu
			return false, nil
		}
		e.mus[mu] = t.id
	case ir.OpUnlock:
		mu, err := e.concretize(e.reg(f, in.A), "mutex id")
		if err != nil {
			return false, err
		}
		if owner, held := e.mus[mu]; !held || owner != t.id {
			return false, &divergeError{reason: "unlock of mutex not held"}
		}
		e.mus[mu] = -1
		e.wakeLockers(mu)
	case ir.OpYield:
		// Scheduling hint only.
	default:
		return false, fmt.Errorf("symex: unsupported op %s", in.Op)
	}
	if adv {
		f.ii++
	}
	return false, nil
}

// binKinds maps each binary IR op to the expression kind that defines
// it, for the symbolic path (binOp) and the native one (evalBin) alike.
// OpNe has no kind of its own: it is the negation of KEq.
var binKinds = [...]struct {
	kind expr.Kind
	neg  bool
}{
	ir.OpAdd: {kind: expr.KAdd}, ir.OpSub: {kind: expr.KSub}, ir.OpMul: {kind: expr.KMul},
	ir.OpUDiv: {kind: expr.KUDiv}, ir.OpURem: {kind: expr.KURem},
	ir.OpSDiv: {kind: expr.KSDiv}, ir.OpSRem: {kind: expr.KSRem},
	ir.OpAnd: {kind: expr.KAnd}, ir.OpOr: {kind: expr.KOr}, ir.OpXor: {kind: expr.KXor},
	ir.OpShl: {kind: expr.KShl}, ir.OpLShr: {kind: expr.KLShr}, ir.OpAShr: {kind: expr.KAShr},
	ir.OpEq: {kind: expr.KEq}, ir.OpNe: {kind: expr.KEq, neg: true},
	ir.OpUlt: {kind: expr.KUlt}, ir.OpUle: {kind: expr.KUle},
	ir.OpSlt: {kind: expr.KSlt}, ir.OpSle: {kind: expr.KSle},
}

// binOp builds the 64-bit result expression of a width-w operation.
func (e *Engine) binOp(op ir.Op, a, b2 *expr.Expr) *expr.Expr {
	bk := binKinds[op]
	r := e.b.Apply(bk.kind, 0, 0, a, b2)
	if bk.neg {
		r = e.b.BoolNot(r)
	}
	return e.up(r)
}

// evalBin natively computes a width-w binary operation over full-width
// register values, returning the zero-extended w-bit result: the value
// up(binOp(op, low(x), low(y))) folds to when both operands are
// constants, since both go through expr's one definition of the
// operator.
func evalBin(op ir.Op, w uint, x, y uint64) uint64 {
	bk := binKinds[op]
	v := expr.BinOp(bk.kind, w, x, y)
	if bk.neg {
		v ^= 1
	}
	return v
}
