package absint_test

import (
	"fmt"
	"testing"

	"execrecon/internal/absint"
	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/vm"
)

// checkSound runs every workload concretely and asserts that each
// register write lands inside the fixpoint's fact for that def.
func checkSound(t *testing.T, src string, loads []*vm.Workload) {
	t.Helper()
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	mf := absint.AnalyzeModule(mod, "main")
	for i, w := range loads {
		var bad []string
		cfg := vm.Config{
			Input: w.Clone(),
			OnRegWrite: func(fn string, id int32, dst int, val uint64) {
				v, ok := mf.FactFor(fn, id)
				if !ok {
					return
				}
				if v.IsBottom() || !v.Contains(val) {
					bad = append(bad, fmt.Sprintf(
						"workload %d: %s id=%d r%d: concrete %d escapes fact %v",
						i, fn, id, dst, val, v))
				}
			},
		}
		vm.New(mod, cfg).Run("main")
		for _, m := range bad {
			t.Error(m)
		}
		if t.Failed() {
			t.Fatalf("unsound facts for workload %d", i)
		}
	}
}

func TestAnalyzeSoundArith(t *testing.T) {
	src := `
func main() int {
	int x = input32("in");
	int y = x & 255;
	int z = y * 3 + 7;
	int q = z / 2;
	int r = z % 10;
	long s = (long)x;
	char c = (char)x;
	uint u = (uint)x >> 3;
	return q + r + (int)s + (int)c + (int)u;
}`
	loads := []*vm.Workload{
		vm.NewWorkload().Add("in", 0),
		vm.NewWorkload().Add("in", 255),
		vm.NewWorkload().Add("in", 0xFFFFFFFF),
		vm.NewWorkload().Add("in", 0x80000000),
		vm.NewWorkload().Add("in", 1234567),
	}
	checkSound(t, src, loads)
}

func TestAnalyzeSoundBranchLoop(t *testing.T) {
	src := `
func clamp(int v, int lim) int {
	if (v < 0) { return 0; }
	if (v > lim) { return lim; }
	return v;
}
func main() int {
	int n = clamp(input32("n"), 100);
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		acc = acc + i;
		if (acc > 10000) { break; }
	}
	while (acc > 16) { acc = acc / 2; }
	return acc;
}`
	loads := []*vm.Workload{
		vm.NewWorkload().Add("n", 0),
		vm.NewWorkload().Add("n", 7),
		vm.NewWorkload().Add("n", 100),
		vm.NewWorkload().Add("n", 0xFFFFFFFF), // negative as int32
	}
	checkSound(t, src, loads)
}

func TestAnalyzeSoundMemory(t *testing.T) {
	src := `
int G[16];
func fill(int k) int {
	for (int i = 0; i < 16; i = i + 1) { G[i] = i * k; }
	return G[15];
}
func main() int {
	int k = input32("k") & 7;
	int last = fill(k + 1);
	char *p = malloc(64);
	p[3] = (char)last;
	char v = p[3];
	free(p);
	return (int)v;
}`
	loads := []*vm.Workload{
		vm.NewWorkload().Add("k", 0),
		vm.NewWorkload().Add("k", 5),
		vm.NewWorkload().Add("k", 0xFFFFFFFF),
	}
	checkSound(t, src, loads)
}

// instr builds one instruction with a fresh ID.
func instr(f *ir.Func, op ir.Op, w ir.Width, dst int, a, b ir.Arg) ir.Instr {
	return ir.Instr{Op: op, W: w, Dst: dst, A: a, B: b, ID: f.NewInstrID()}
}

func findRule(fs []dataflow.Finding, rule string) *dataflow.Finding {
	for i := range fs {
		if fs[i].Rule == rule {
			return &fs[i]
		}
	}
	return nil
}

// TestLintProvableOOB: a constant-folded store 400 bytes into a
// 16-byte global must be flagged as error-level provable OOB.
func TestLintProvableOOB(t *testing.T) {
	mod := &ir.Module{Name: "t"}
	mod.AddGlobal(&ir.Global{Name: "g", Size: 16})
	f := &ir.Func{Name: "main", NumRegs: 4}
	b0 := &ir.Block{}
	b0.Instrs = append(b0.Instrs,
		instr(f, ir.OpGlobal, ir.W64, 0, ir.Imm(0), ir.Arg{}),
		instr(f, ir.OpConst, ir.W64, 1, ir.Imm(400), ir.Arg{}),
		instr(f, ir.OpAdd, ir.W64, 2, ir.Reg(0), ir.Reg(1)),
		instr(f, ir.OpStore, ir.W32, 0, ir.Reg(2), ir.Imm(7)),
		instr(f, ir.OpRet, ir.W64, 0, ir.Imm(0), ir.Arg{}),
	)
	f.Blocks = []*ir.Block{b0}
	mod.AddFunc(f)

	fs := absint.Lint(mod)
	fd := findRule(fs, dataflow.RuleProvableOOB)
	if fd == nil {
		t.Fatalf("no provable-oob finding in %v", fs)
	}
	if !dataflow.ErrorLevel(fd.Rule) {
		t.Fatalf("provable-oob should be error-level")
	}
}

// TestLintProvableOverflow: 0xFFFFFFFF + 1 at width 32 wraps for every
// execution.
func TestLintProvableOverflow(t *testing.T) {
	mod := &ir.Module{Name: "t"}
	f := &ir.Func{Name: "main", NumRegs: 4}
	b0 := &ir.Block{}
	b0.Instrs = append(b0.Instrs,
		instr(f, ir.OpConst, ir.W32, 0, ir.Imm(0xFFFFFFFF), ir.Arg{}),
		instr(f, ir.OpConst, ir.W32, 1, ir.Imm(1), ir.Arg{}),
		instr(f, ir.OpAdd, ir.W32, 2, ir.Reg(0), ir.Reg(1)),
		instr(f, ir.OpRet, ir.W64, 0, ir.Reg(2), ir.Arg{}),
	)
	f.Blocks = []*ir.Block{b0}
	mod.AddFunc(f)

	fs := absint.Lint(mod)
	if findRule(fs, dataflow.RuleProvableOverflow) == nil {
		t.Fatalf("no provable-overflow finding in %v", fs)
	}
}

// TestLintAlwaysBranch: a computed condition that compares constants
// has a single outcome.
func TestLintAlwaysBranch(t *testing.T) {
	mod := &ir.Module{Name: "t"}
	f := &ir.Func{Name: "main", NumRegs: 4}
	b0 := &ir.Block{}
	b0.Instrs = append(b0.Instrs,
		instr(f, ir.OpConst, ir.W64, 0, ir.Imm(3), ir.Arg{}),
		instr(f, ir.OpConst, ir.W64, 1, ir.Imm(5), ir.Arg{}),
		instr(f, ir.OpUlt, ir.W64, 2, ir.Reg(0), ir.Reg(1)),
		ir.Instr{Op: ir.OpCondBr, A: ir.Reg(2), Blk: 1, Blk2: 2, ID: f.NewInstrID()},
	)
	b1 := &ir.Block{Index: 1}
	b1.Instrs = append(b1.Instrs, instr(f, ir.OpRet, ir.W64, 0, ir.Imm(1), ir.Arg{}))
	b2 := &ir.Block{Index: 2}
	b2.Instrs = append(b2.Instrs, instr(f, ir.OpRet, ir.W64, 0, ir.Imm(0), ir.Arg{}))
	f.Blocks = []*ir.Block{b0, b1, b2}
	mod.AddFunc(f)

	fs := absint.Lint(mod)
	fd := findRule(fs, dataflow.RuleAlwaysBranch)
	if fd == nil {
		t.Fatalf("no always-branch finding in %v", fs)
	}
	if dataflow.ErrorLevel(fd.Rule) {
		t.Fatalf("always-branch should be advisory, not error-level")
	}
}

// TestLintCleanPrograms: ordinary correct programs produce no
// error-level provable findings.
func TestLintCleanPrograms(t *testing.T) {
	srcs := []string{
		`func main() int { return 0; }`,
		`
int T[32];
func main() int {
	int n = input32("n") & 31;
	T[n] = n;
	int acc = 0;
	for (int i = 0; i < 32; i = i + 1) { acc = acc + T[i]; }
	return acc;
}`,
		`
func fib(int n) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() int { return fib(input32("n") & 15); }`,
	}
	for i, src := range srcs {
		mod, err := minc.Compile(fmt.Sprintf("clean%d", i), src)
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		for _, fd := range absint.Lint(mod) {
			if dataflow.ErrorLevel(fd.Rule) {
				t.Errorf("program %d: spurious %v", i, fd)
			}
		}
	}
}
