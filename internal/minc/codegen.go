package minc

import (
	"fmt"

	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
)

// Compile parses, type-checks, and lowers a minc program to an ir
// module. The module is validated, and the codegen-invariant lint
// rules (maybe-undef, unreachable-block) are enforced, before it is
// returned: lowering zero-initializes every register local and prunes
// the dead blocks its statement emitter creates, so a violation is a
// compiler bug, not a property of the user program.
func Compile(name, src string) (*ir.Module, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{mod: &ir.Module{Name: name}, prog: prog}
	if err := c.run(); err != nil {
		return nil, err
	}
	if err := c.mod.Validate(); err != nil {
		return nil, fmt.Errorf("minc: internal error: %w", err)
	}
	for _, f := range c.mod.Funcs {
		if fs := dataflow.LintFunc(f); len(fs) > 0 {
			return nil, fmt.Errorf("minc: internal error: %s", fs[0])
		}
	}
	return c.mod, nil
}

// pruneUnreachable removes blocks no path from the entry reaches and
// renumbers the survivors. The statement emitter deliberately parks
// code that follows a terminator in fresh dead blocks (see emit);
// this pass drops them so the shipped module satisfies the
// unreachable-block lint invariant. Instruction IDs are untouched.
func pruneUnreachable(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	reach := make([]bool, len(f.Blocks))
	work := []int{0}
	reach[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		t := f.Blocks[b].Term()
		if t == nil {
			continue
		}
		visit := func(s int) {
			if s >= 0 && s < len(f.Blocks) && !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
		switch t.Op {
		case ir.OpBr:
			visit(t.Blk)
		case ir.OpCondBr:
			visit(t.Blk)
			visit(t.Blk2)
		}
	}
	remap := make([]int, len(f.Blocks))
	kept := f.Blocks[:0]
	for i, b := range f.Blocks {
		if !reach[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		b.Index = len(kept)
		kept = append(kept, b)
	}
	f.Blocks = kept
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		if t.Op == ir.OpBr || t.Op == ir.OpCondBr {
			t.Blk = remap[t.Blk]
			if t.Op == ir.OpCondBr {
				t.Blk2 = remap[t.Blk2]
			}
		}
	}
}

// symbol binds a name in scope.
type symbol struct {
	typ *Type
	// Exactly one of the following locations applies.
	reg      int   // register-allocated scalar local (reg >= 0)
	frameOff int64 // frame-allocated local (when reg < 0 and !isGlobal)
	isGlobal bool
	gidx     int // global index
	isParam  bool
}

type funcSig struct {
	params []*Type
	ret    *Type
}

type compiler struct {
	mod  *ir.Module
	prog *program

	sigs    map[string]*funcSig
	globals map[string]*symbol
	strLits map[string]int // string literal -> global index

	// Per-function state.
	fn         *ir.Func
	decl       *funcDecl
	scopes     []map[string]*symbol
	addrTaken  map[string]bool
	curBlk     int
	terminated bool
	breakTo    []int
	contTo     []int
	line       int32
}

func (c *compiler) run() error {
	c.sigs = make(map[string]*funcSig)
	c.globals = make(map[string]*symbol)
	c.strLits = make(map[string]int)

	for _, g := range c.prog.globals {
		if _, dup := c.globals[g.name]; dup {
			return errf(g.line, "duplicate global %q", g.name)
		}
		init := make([]byte, g.typ.Size())
		if g.hasInit {
			switch {
			case g.initStr != "":
				if g.typ.Kind != TyArray || g.typ.Elem.Width != ir.W8 {
					return errf(g.line, "string initializer requires char array")
				}
				if int64(len(g.initStr)) >= g.typ.Len {
					return errf(g.line, "string initializer too long")
				}
				copy(init, g.initStr)
			default:
				elem := g.typ
				if g.typ.Kind == TyArray {
					elem = g.typ.Elem
				}
				es := elem.Size()
				if int64(len(g.initVals))*es > g.typ.Size() {
					return errf(g.line, "too many initializers")
				}
				for i, v := range g.initVals {
					for b := int64(0); b < es; b++ {
						init[int64(i)*es+b] = byte(v >> (8 * uint(b)))
					}
				}
			}
		}
		gi := c.mod.AddGlobal(&ir.Global{Name: g.name, Size: g.typ.Size(), Init: init})
		c.globals[g.name] = &symbol{typ: g.typ, isGlobal: true, gidx: gi, reg: -1}
	}
	for _, f := range c.prog.funcs {
		if _, dup := c.sigs[f.name]; dup {
			return errf(f.line, "duplicate function %q", f.name)
		}
		sig := &funcSig{ret: f.ret}
		for _, pm := range f.params {
			if pm.typ.Kind == TyArray || pm.typ.Kind == TyVoid {
				return errf(f.line, "parameter %q must be scalar or pointer", pm.name)
			}
			sig.params = append(sig.params, pm.typ)
		}
		c.sigs[f.name] = sig
	}
	for _, f := range c.prog.funcs {
		if err := c.compileFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// Scope handling.

func (c *compiler) pushScope() { c.scopes = append(c.scopes, map[string]*symbol{}) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) lookup(name string) *symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := c.globals[name]; ok {
		return s
	}
	return nil
}

func (c *compiler) define(line int, name string, s *symbol) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(line, "redeclaration of %q", name)
	}
	top[name] = s
	return nil
}

// IR emission helpers.

func (c *compiler) newReg() int {
	r := c.fn.NumRegs
	c.fn.NumRegs++
	return r
}

func (c *compiler) newBlock() int {
	b := &ir.Block{Index: len(c.fn.Blocks)}
	c.fn.Blocks = append(c.fn.Blocks, b)
	return b.Index
}

// setBlock switches emission to block b.
func (c *compiler) setBlock(b int) {
	c.curBlk = b
	c.terminated = false
}

func (c *compiler) emit(in ir.Instr) *ir.Instr {
	if c.terminated {
		// Unreachable code after a terminator: emit into a fresh
		// dead block to keep blocks well-formed.
		c.setBlock(c.newBlock())
	}
	in.ID = c.fn.NewInstrID()
	in.Line = c.line
	blk := c.fn.Blocks[c.curBlk]
	blk.Instrs = append(blk.Instrs, in)
	if in.Op.IsTerminator() {
		c.terminated = true
	}
	return &blk.Instrs[len(blk.Instrs)-1]
}

// val is a typed rvalue: either an immediate or a register.
type val struct {
	arg ir.Arg
	typ *Type
}

func widthOf(t *Type) ir.Width {
	switch t.Kind {
	case TyInt:
		return t.Width
	case TyPtr, TyArray:
		return ir.W64
	}
	return ir.W64
}

// compileFunc lowers one function.
func (c *compiler) compileFunc(f *funcDecl) error {
	c.fn = &ir.Func{Name: f.name, NParams: len(f.params)}
	c.decl = f
	c.scopes = nil
	c.addrTaken = map[string]bool{}
	markAddrTaken(f.body, c.addrTaken)
	c.breakTo, c.contTo = nil, nil

	c.pushScope()
	for i, pm := range f.params {
		r := c.fn.NumRegs
		c.fn.NumRegs++
		sym := &symbol{typ: pm.typ, reg: r, isParam: true}
		if c.addrTaken[pm.name] {
			// Spill address-taken parameters to the frame.
			sym = &symbol{typ: pm.typ, reg: -1, frameOff: c.fn.FrameSize}
			c.fn.FrameSize += pm.typ.Size()
		}
		if err := c.define(f.line, pm.name, sym); err != nil {
			return err
		}
		_ = i
	}
	c.setBlock(c.newBlock())
	// Spill stores for address-taken params must come first.
	for i, pm := range f.params {
		sym := c.lookup(pm.name)
		if sym.reg < 0 {
			addr := c.newReg()
			c.emit(ir.Instr{Op: ir.OpFrame, Dst: addr, A: ir.Imm(uint64(sym.frameOff))})
			c.emit(ir.Instr{Op: ir.OpStore, W: widthOf(pm.typ), A: ir.Reg(addr), B: ir.Reg(i)})
		}
	}
	if err := c.stmts(f.body); err != nil {
		return err
	}
	if !c.terminated {
		c.emit(ir.Instr{Op: ir.OpRet, A: ir.Imm(0)})
	}
	c.popScope()
	pruneUnreachable(c.fn)
	// Frame instructions validate against FrameSize; functions with
	// no frame data keep FrameSize 0 and never emit OpFrame.
	c.mod.AddFunc(c.fn)
	return nil
}

// markAddrTaken records identifiers whose address is taken.
func markAddrTaken(stmts []statement, out map[string]bool) {
	var walkE func(e expression)
	walkE = func(e expression) {
		switch x := e.(type) {
		case *unaryExpr:
			if x.op == "&" {
				if id, ok := x.x.(*identExpr); ok {
					out[id.name] = true
				}
			}
			walkE(x.x)
		case *binaryExpr:
			walkE(x.x)
			walkE(x.y)
		case *indexExpr:
			walkE(x.x)
			walkE(x.idx)
		case *callExpr:
			for _, a := range x.args {
				walkE(a)
			}
		case *spawnExpr:
			for _, a := range x.args {
				walkE(a)
			}
		case *castExpr:
			walkE(x.x)
		}
	}
	var walkS func(ss []statement)
	walkS = func(ss []statement) {
		for _, s := range ss {
			switch st := s.(type) {
			case *declStmt:
				if st.init != nil {
					walkE(st.init)
				}
			case *assignStmt:
				walkE(st.lhs)
				walkE(st.rhs)
			case *ifStmt:
				walkE(st.cond)
				walkS(st.then)
				walkS(st.els)
			case *whileStmt:
				walkE(st.cond)
				walkS(st.body)
			case *forStmt:
				if st.init != nil {
					walkS([]statement{st.init})
				}
				if st.cond != nil {
					walkE(st.cond)
				}
				if st.post != nil {
					walkS([]statement{st.post})
				}
				walkS(st.body)
			case *returnStmt:
				if st.val != nil {
					walkE(st.val)
				}
			case *exprStmt:
				walkE(st.x)
			}
		}
	}
	walkS(stmts)
}

func (c *compiler) stmts(ss []statement) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range ss {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s statement) error {
	c.line = int32(s.stmtLine())
	switch st := s.(type) {
	case *declStmt:
		return c.declStmt(st)
	case *assignStmt:
		return c.assignStmt(st)
	case *ifStmt:
		return c.ifStmt(st)
	case *whileStmt:
		return c.whileStmt(st)
	case *forStmt:
		return c.forStmt(st)
	case *returnStmt:
		var v val
		if st.val != nil {
			var err error
			v, err = c.expr(st.val)
			if err != nil {
				return err
			}
			v = c.convert(v, c.decl.ret, st.stmtLine())
		} else {
			if c.decl.ret != TypeVoid && c.decl.ret.Kind != TyVoid {
				return errf(st.stmtLine(), "missing return value")
			}
			v = val{arg: ir.Imm(0), typ: TypeLong}
		}
		c.emit(ir.Instr{Op: ir.OpRet, A: v.arg})
		return nil
	case *breakStmt:
		if len(c.breakTo) == 0 {
			return errf(st.stmtLine(), "break outside loop")
		}
		c.emit(ir.Instr{Op: ir.OpBr, Blk: c.breakTo[len(c.breakTo)-1]})
		return nil
	case *continueStmt:
		if len(c.contTo) == 0 {
			return errf(st.stmtLine(), "continue outside loop")
		}
		c.emit(ir.Instr{Op: ir.OpBr, Blk: c.contTo[len(c.contTo)-1]})
		return nil
	case *exprStmt:
		_, err := c.expr(st.x)
		return err
	}
	return errf(s.stmtLine(), "unsupported statement")
}

func (c *compiler) declStmt(st *declStmt) error {
	if st.typ.Kind == TyVoid {
		return errf(st.stmtLine(), "void variable %q", st.name)
	}
	if st.typ.Kind == TyArray || c.addrTaken[st.name] {
		sym := &symbol{typ: st.typ, reg: -1, frameOff: c.fn.FrameSize}
		c.fn.FrameSize += st.typ.Size()
		if err := c.define(st.stmtLine(), st.name, sym); err != nil {
			return err
		}
		if st.init != nil {
			if st.typ.Kind == TyArray {
				return errf(st.stmtLine(), "array initializers are not supported for locals")
			}
			v, err := c.expr(st.init)
			if err != nil {
				return err
			}
			v = c.convert(v, st.typ, st.stmtLine())
			addr := c.newReg()
			c.emit(ir.Instr{Op: ir.OpFrame, Dst: addr, A: ir.Imm(uint64(sym.frameOff))})
			c.emit(ir.Instr{Op: ir.OpStore, W: widthOf(st.typ), A: ir.Reg(addr), B: v.arg})
		}
		return nil
	}
	r := c.newReg()
	sym := &symbol{typ: st.typ, reg: r}
	if err := c.define(st.stmtLine(), st.name, sym); err != nil {
		return err
	}
	var v val
	if st.init != nil {
		var err error
		v, err = c.expr(st.init)
		if err != nil {
			return err
		}
		v = c.convert(v, st.typ, st.stmtLine())
	} else {
		v = val{arg: ir.Imm(0), typ: st.typ}
	}
	c.emit(ir.Instr{Op: ir.OpMov, W: widthOf(st.typ), Dst: r, A: v.arg})
	return nil
}

func (c *compiler) assignStmt(st *assignStmt) error {
	rhs, err := c.expr(st.rhs)
	if err != nil {
		return err
	}
	// Register-allocated scalar?
	if id, ok := st.lhs.(*identExpr); ok {
		sym := c.lookup(id.name)
		if sym == nil {
			return errf(st.stmtLine(), "undefined variable %q", id.name)
		}
		if sym.reg >= 0 {
			rhs = c.convert(rhs, sym.typ, st.stmtLine())
			c.emit(ir.Instr{Op: ir.OpMov, W: widthOf(sym.typ), Dst: sym.reg, A: rhs.arg})
			return nil
		}
	}
	addr, elem, err := c.address(st.lhs)
	if err != nil {
		return err
	}
	if elem.Kind == TyArray {
		return errf(st.stmtLine(), "cannot assign to array")
	}
	rhs = c.convert(rhs, elem, st.stmtLine())
	c.emit(ir.Instr{Op: ir.OpStore, W: widthOf(elem), A: addr, B: rhs.arg})
	return nil
}

func (c *compiler) ifStmt(st *ifStmt) error {
	cond, err := c.expr(st.cond)
	if err != nil {
		return err
	}
	thenB := c.newBlock()
	elseB := c.newBlock()
	endB := elseB
	if len(st.els) > 0 {
		endB = c.newBlock()
	}
	c.emit(ir.Instr{Op: ir.OpCondBr, A: cond.arg, Blk: thenB, Blk2: elseB})
	c.setBlock(thenB)
	if err := c.stmts(st.then); err != nil {
		return err
	}
	if !c.terminated {
		c.emit(ir.Instr{Op: ir.OpBr, Blk: endB})
	}
	if len(st.els) > 0 {
		c.setBlock(elseB)
		if err := c.stmts(st.els); err != nil {
			return err
		}
		if !c.terminated {
			c.emit(ir.Instr{Op: ir.OpBr, Blk: endB})
		}
	}
	c.setBlock(endB)
	return nil
}

func (c *compiler) whileStmt(st *whileStmt) error {
	condB := c.newBlock()
	bodyB := c.newBlock()
	endB := c.newBlock()
	c.emit(ir.Instr{Op: ir.OpBr, Blk: condB})
	c.setBlock(condB)
	cond, err := c.expr(st.cond)
	if err != nil {
		return err
	}
	c.emit(ir.Instr{Op: ir.OpCondBr, A: cond.arg, Blk: bodyB, Blk2: endB})
	c.setBlock(bodyB)
	c.breakTo = append(c.breakTo, endB)
	c.contTo = append(c.contTo, condB)
	err = c.stmts(st.body)
	c.breakTo = c.breakTo[:len(c.breakTo)-1]
	c.contTo = c.contTo[:len(c.contTo)-1]
	if err != nil {
		return err
	}
	if !c.terminated {
		c.emit(ir.Instr{Op: ir.OpBr, Blk: condB})
	}
	c.setBlock(endB)
	return nil
}

func (c *compiler) forStmt(st *forStmt) error {
	c.pushScope()
	defer c.popScope()
	if st.init != nil {
		if err := c.stmt(st.init); err != nil {
			return err
		}
	}
	condB := c.newBlock()
	bodyB := c.newBlock()
	postB := c.newBlock()
	endB := c.newBlock()
	c.emit(ir.Instr{Op: ir.OpBr, Blk: condB})
	c.setBlock(condB)
	if st.cond != nil {
		cond, err := c.expr(st.cond)
		if err != nil {
			return err
		}
		c.emit(ir.Instr{Op: ir.OpCondBr, A: cond.arg, Blk: bodyB, Blk2: endB})
	} else {
		c.emit(ir.Instr{Op: ir.OpBr, Blk: bodyB})
	}
	c.setBlock(bodyB)
	c.breakTo = append(c.breakTo, endB)
	c.contTo = append(c.contTo, postB)
	err := c.stmts(st.body)
	c.breakTo = c.breakTo[:len(c.breakTo)-1]
	c.contTo = c.contTo[:len(c.contTo)-1]
	if err != nil {
		return err
	}
	if !c.terminated {
		c.emit(ir.Instr{Op: ir.OpBr, Blk: postB})
	}
	c.setBlock(postB)
	if st.post != nil {
		if err := c.stmt(st.post); err != nil {
			return err
		}
	}
	c.emit(ir.Instr{Op: ir.OpBr, Blk: condB})
	c.setBlock(endB)
	return nil
}
