package dataflow

import (
	"strings"
	"testing"

	"execrecon/internal/ir"
)

// block builds a basic block from instructions.
func block(idx int, instrs ...ir.Instr) *ir.Block {
	return &ir.Block{Index: idx, Instrs: instrs}
}

// fn builds a function, assigning instruction IDs.
func fn(name string, nparams, nregs int, blocks ...*ir.Block) *ir.Func {
	f := &ir.Func{Name: name, NParams: nparams, NumRegs: nregs, Blocks: blocks}
	for _, b := range blocks {
		for i := range b.Instrs {
			b.Instrs[i].ID = f.NewInstrID()
		}
	}
	return f
}

func mod(funcs ...*ir.Func) *ir.Module {
	m := &ir.Module{Name: "t"}
	for _, f := range funcs {
		m.AddFunc(f)
	}
	return m
}

// diamond builds:
//
//	b0: condbr r0 -> b1 | b2
//	b1: r1 = const 1; br b3
//	b2: r1 = const 2; br b3
//	b3: ret r1
func diamond() *ir.Func {
	return fn("diamond", 1, 2,
		block(0, ir.Instr{Op: ir.OpCondBr, A: ir.Reg(0), Blk: 1, Blk2: 2}),
		block(1, ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 1, A: ir.Imm(1)},
			ir.Instr{Op: ir.OpBr, Blk: 3}),
		block(2, ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 1, A: ir.Imm(2)},
			ir.Instr{Op: ir.OpBr, Blk: 3}),
		block(3, ir.Instr{Op: ir.OpRet, A: ir.Reg(1)}),
	)
}

func TestCFGDominators(t *testing.T) {
	c := BuildCFG(diamond())
	// The join block follows both arms in reverse postorder.
	if len(c.RPO) != 4 || c.RPO[0] != 0 || c.RPO[3] != 3 {
		t.Fatalf("RPO = %v", c.RPO)
	}
}

func TestCFGUnreachable(t *testing.T) {
	f := fn("u", 0, 1,
		block(0, ir.Instr{Op: ir.OpRet, A: ir.Imm(0)}),
		block(1, ir.Instr{Op: ir.OpBr, Blk: 0}), // dead
	)
	c := BuildCFG(f)
	if c.Reachable[1] {
		t.Fatal("b1 should be unreachable")
	}
	if len(c.RPO) != 1 || len(c.Preds[0]) != 0 {
		t.Errorf("RPO = %v, Preds[b0] = %v; an unreachable block takes no part", c.RPO, c.Preds[0])
	}
}

func TestTaintThroughMemory(t *testing.T) {
	// main: r0 = input; store g0 <- r0; r1 = load g0; r2 = const 7;
	// assert r2; ret r1
	g := &ir.Global{Name: "g", Size: 8}
	f := fn("main", 0, 4,
		block(0,
			ir.Instr{Op: ir.OpInput, W: ir.W64, Dst: 0, Tag: "x"},
			ir.Instr{Op: ir.OpGlobal, Dst: 3, A: ir.Imm(0)},
			ir.Instr{Op: ir.OpStore, W: ir.W64, A: ir.Reg(3), B: ir.Reg(0)},
			ir.Instr{Op: ir.OpLoad, W: ir.W64, Dst: 1, A: ir.Reg(3)},
			ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 2, A: ir.Imm(7)},
			ir.Instr{Op: ir.OpRet, A: ir.Reg(1)},
		),
	)
	m := mod(f)
	m.AddGlobal(g)
	tt := BuildTaint(m)
	if !tt.RegTaint[0][0] {
		t.Error("input dst must be tainted")
	}
	if !tt.ClassTaint[tt.GlobalClass(0)] {
		t.Error("global class must be tainted by the store")
	}
	if !tt.RegTaint[0][1] {
		t.Error("load from tainted global must taint r1")
	}
	if tt.RegTaint[0][2] {
		t.Error("const must stay untainted")
	}
	if tt.RegTaint[0][3] {
		t.Error("the global's address is not input-derived")
	}
	if !tt.RetTaint[0] {
		t.Error("returning tainted r1 must taint the return")
	}
}

func TestTaintInterprocedural(t *testing.T) {
	// id(a) { ret a }   main: r0 = input; r1 = call id(r0); ret r1
	id := fn("id", 1, 1, block(0, ir.Instr{Op: ir.OpRet, A: ir.Reg(0)}))
	main := fn("main", 0, 2,
		block(0,
			ir.Instr{Op: ir.OpInput, W: ir.W64, Dst: 0, Tag: "x"},
			ir.Instr{Op: ir.OpCall, Dst: 1, Tag: "id", Args: []ir.Arg{ir.Reg(0)}},
			ir.Instr{Op: ir.OpRet, A: ir.Reg(1)},
		),
	)
	m := mod(id, main)
	tt := BuildTaint(m)
	fi := m.FuncIndex("id")
	if !tt.RegTaint[fi][0] {
		t.Error("callee param must be tainted through the call")
	}
	mi := m.FuncIndex("main")
	if !tt.RegTaint[mi][1] {
		t.Error("call result must be tainted through the return")
	}
}

func TestMallocSymSize(t *testing.T) {
	f := fn("main", 0, 2,
		block(0,
			ir.Instr{Op: ir.OpInput, W: ir.W64, Dst: 0, Tag: "n"},
			ir.Instr{Op: ir.OpMalloc, Dst: 1, A: ir.Reg(0)},
			ir.Instr{Op: ir.OpRet, A: ir.Imm(0)},
		),
	)
	tt := BuildTaint(mod(f))
	c := tt.MallocClass(0, 0, 1)
	if c < 0 || !tt.ClassSymSize[c] {
		t.Fatalf("malloc with input-derived size must be flagged (class %d)", c)
	}
}

func TestAnalyzeModes(t *testing.T) {
	// r0 = input; r1 = r0 + 1; r2 = const 5; r3 = r2 * 3 (never used
	// downstream in any needed position); output r3; condbr r1 ...
	f := fn("main", 0, 5,
		block(0,
			ir.Instr{Op: ir.OpInput, W: ir.W64, Dst: 0, Tag: "x"},
			ir.Instr{Op: ir.OpAdd, W: ir.W64, Dst: 1, A: ir.Reg(0), B: ir.Imm(1)},
			ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 2, A: ir.Imm(5)},
			ir.Instr{Op: ir.OpMul, W: ir.W64, Dst: 3, A: ir.Reg(2), B: ir.Imm(3)},
			ir.Instr{Op: ir.OpOutput, W: ir.W64, A: ir.Reg(3)},
			ir.Instr{Op: ir.OpCondBr, A: ir.Reg(1), Blk: 1, Blk2: 2},
		),
		block(1, ir.Instr{Op: ir.OpRet, A: ir.Imm(0)}),
		block(2, ir.Instr{Op: ir.OpAbort, Tag: "boom"}),
	)
	a := Analyze(mod(f))
	fa := a.Func("main")
	if fa == nil {
		t.Fatal("no analysis for main")
	}
	if m := fa.Mode(0, 0); m != ModeSym {
		t.Errorf("input mode = %v, want sym", m)
	}
	if m := fa.Mode(0, 1); m != ModeSym {
		t.Errorf("tainted add mode = %v, want sym (feeds the branch)", m)
	}
	if !fa.Needed[1] {
		t.Error("branch condition r1 must be needed")
	}
	if fa.Needed[3] {
		t.Error("output-only r3 must not be needed")
	}
	if m := fa.Mode(0, 3); m != ModeSkip {
		t.Errorf("output-only mul mode = %v, want skip", m)
	}
	if m := fa.Mode(0, 4); m != ModeConc {
		t.Errorf("output mode = %v, want conc", m)
	}
	if m := fa.Mode(0, 5); m != ModeSym {
		t.Errorf("tainted condbr mode = %v, want sym", m)
	}
	if fa.NInstrs != 8 {
		t.Errorf("NInstrs = %d, want 8", fa.NInstrs)
	}
}

func TestAnalyzeUntaintedBranchConc(t *testing.T) {
	f := fn("main", 0, 2,
		block(0,
			ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 0, A: ir.Imm(1)},
			ir.Instr{Op: ir.OpCondBr, A: ir.Reg(0), Blk: 1, Blk2: 1},
		),
		block(1, ir.Instr{Op: ir.OpRet, A: ir.Imm(0)}),
	)
	a := Analyze(mod(f))
	fa := a.Func("main")
	if m := fa.Mode(0, 1); m != ModeConc {
		t.Errorf("untainted condbr mode = %v, want conc", m)
	}
	if m := fa.Mode(0, 0); m != ModeConc {
		t.Errorf("needed untainted const mode = %v, want conc", m)
	}
}

func TestAnalyzeLoadNoVal(t *testing.T) {
	// A load whose destination is never needed keeps its bounds
	// semantics (loadnv), never a plain skip.
	g := &ir.Global{Name: "g", Size: 8}
	f := fn("main", 0, 3,
		block(0,
			ir.Instr{Op: ir.OpGlobal, Dst: 0, A: ir.Imm(0)},
			ir.Instr{Op: ir.OpLoad, W: ir.W64, Dst: 1, A: ir.Reg(0)},
			ir.Instr{Op: ir.OpOutput, W: ir.W64, A: ir.Reg(1)},
			ir.Instr{Op: ir.OpRet, A: ir.Imm(0)},
		),
	)
	m := mod(f)
	m.AddGlobal(g)
	a := Analyze(m)
	fa := a.Func("main")
	if m := fa.Mode(0, 1); m != ModeLoadNoVal {
		t.Errorf("unneeded load mode = %v, want loadnv", m)
	}
	if !fa.Needed[0] {
		t.Error("load address must be needed even when the value is not")
	}
}

// --- lint fixtures: one negative fixture per codegen invariant ---

func findRule(fs []Finding, rule string) *Finding {
	for i := range fs {
		if fs[i].Rule == rule {
			return &fs[i]
		}
	}
	return nil
}

func TestLintMaybeUndef(t *testing.T) {
	// r1 is assigned only on the taken path but read afterwards.
	f := fn("undef", 1, 2,
		block(0, ir.Instr{Op: ir.OpCondBr, A: ir.Reg(0), Blk: 1, Blk2: 2}),
		block(1, ir.Instr{Op: ir.OpConst, W: ir.W64, Dst: 1, A: ir.Imm(1)},
			ir.Instr{Op: ir.OpBr, Blk: 2}),
		block(2, ir.Instr{Op: ir.OpRet, A: ir.Reg(1)}),
	)
	fs := LintFunc(f)
	got := findRule(fs, RuleMaybeUndef)
	if got == nil {
		t.Fatalf("no maybe-undef finding in %v", fs)
	}
	if got.Blk != 2 {
		t.Errorf("finding in b%d, want b2", got.Blk)
	}
}

func TestLintMaybeUndefCleanOnDominatingDef(t *testing.T) {
	fs := LintFunc(diamond())
	if got := findRule(fs, RuleMaybeUndef); got != nil {
		t.Fatalf("false positive: %v", got)
	}
}

func TestLintUnreachable(t *testing.T) {
	f := fn("dead", 0, 1,
		block(0, ir.Instr{Op: ir.OpRet, A: ir.Imm(0)}),
		block(1, ir.Instr{Op: ir.OpBr, Blk: 0}),
	)
	got := findRule(LintFunc(f), RuleUnreachable)
	if got == nil || got.Blk != 1 {
		t.Fatalf("want unreachable finding for b1, got %v", got)
	}
}

func TestLintCleanOnDiamond(t *testing.T) {
	if fs := LintFunc(diamond()); len(fs) != 0 {
		t.Fatalf("diamond should be lint-clean, got %v", fs)
	}
}

func TestWriteDOT(t *testing.T) {
	f := diamond()
	f.Blocks = append(f.Blocks, block(4, ir.Instr{Op: ir.OpBr, Blk: 3})) // dead
	var sb strings.Builder
	if err := BuildCFG(f).WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "b0 -> b1", "label=\"T\"", "b4 -> b3"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Only the unreachable block is greyed out.
	for _, line := range strings.Split(dot, "\n") {
		greyed := strings.HasSuffix(line, "style=dashed, color=gray];")
		if strings.HasPrefix(line, "  b4 [") != greyed {
			t.Errorf("greyed = %v on %q", greyed, line)
		}
	}
}
