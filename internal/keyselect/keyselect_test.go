package keyselect_test

import (
	"strings"
	"testing"

	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/minc"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// stalledRun produces a stalled symex result for a chain-heavy
// program.
func stalledRun(t *testing.T) (*ir.Module, *symex.Result) {
	t.Helper()
	src := `
int m[256];
func main() int {
	for (int i = 0; i < 10; i = i + 1) {
		int k = input32("k");
		if (k < 0 || k >= 250) { return 0; }
		m[k] = m[k + 1] + 1;
	}
	assert(m[60] != 3, "chain");
	return 0;
}`
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorkload().Add("k", 62, 61, 60, 200, 200, 200, 200, 200, 200, 200)
	ring := pt.NewRing(1 << 22)
	enc := pt.NewEncoder(ring)
	res := vm.New(mod, vm.Config{Input: w, Tracer: enc, Seed: 1}).Run("main")
	if res.Failure == nil {
		t.Fatal("no failure")
	}
	enc.Finish()
	tr, err := pt.Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	sres := symex.New(mod, tr, res.Failure, symex.Options{QueryBudget: 20_000}).Run("main")
	if sres.Status != symex.StatusStalled {
		t.Fatalf("status %v, want stalled", sres.Status)
	}
	return mod, sres
}

func TestSelectFindsRecordingSet(t *testing.T) {
	_, sres := stalledRun(t)
	sel, err := keyselect.Select(sres)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Bottleneck) == 0 {
		t.Error("empty bottleneck")
	}
	if len(sel.Recording) == 0 || len(sel.Sites) == 0 {
		t.Fatalf("empty recording set: %+v", sel)
	}
	if sel.TotalCostBytes <= 0 {
		t.Error("no recording cost")
	}
	if sel.GraphNodes == 0 {
		t.Error("graph nodes not counted")
	}
	// Minimization must never exceed the cost of recording the raw
	// bottleneck set directly.
	var bottleneckCost int64
	for _, e := range sel.Bottleneck {
		// The raw cost is not exposed; approximate with 4 bytes
		// per element as a generous lower bound of "recordable".
		_ = e
		bottleneckCost += 4
	}
	if len(sel.Recording) > len(sel.Bottleneck)*4 {
		t.Errorf("recording set suspiciously large: %d for bottleneck %d",
			len(sel.Recording), len(sel.Bottleneck))
	}
}

func TestInstrument(t *testing.T) {
	mod, sres := stalledRun(t)
	sel, err := keyselect.Select(sres)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.NumInstrs()
	instr, err := keyselect.Instrument(mod, sel.Sites)
	if err != nil {
		t.Fatal(err)
	}
	if instr == mod {
		t.Fatal("instrumentation must clone")
	}
	if got := instr.NumInstrs(); got != before+len(sel.Sites) {
		t.Errorf("instrumented instrs %d, want %d", got, before+len(sel.Sites))
	}
	if err := instr.Validate(); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
	// The original module is untouched.
	if mod.NumInstrs() != before {
		t.Error("original module mutated")
	}
	// Each inserted ptwrite reads the register its site defines.
	dump := instr.Dump()
	if !strings.Contains(dump, "ptwrite") && !countPtwrites(instr) {
		t.Error("no ptwrite instructions found")
	}
	// Instrumented program still runs the benign path cleanly.
	res := vm.New(instr, vm.Config{Input: vm.NewWorkload().Add("k", 250)}).Run("main")
	if res.Failure != nil {
		t.Errorf("instrumented benign run failed: %v", res.Failure)
	}
}

func countPtwrites(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpPtWrite {
					return true
				}
			}
		}
	}
	return false
}

// TestMinimizeNeverWorseThanDirect: the §3.3.2 cost reduction must
// never record more bytes than the naive record-where-it-appears
// strategy.
func TestMinimizeNeverWorseThanDirect(t *testing.T) {
	_, sres := stalledRun(t)
	min, err := keyselect.Select(sres)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := keyselect.SelectWith(sres, keyselect.Options{NoMinimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if min.TotalCostBytes > raw.TotalCostBytes {
		t.Errorf("minimized %d > raw %d bytes", min.TotalCostBytes, raw.TotalCostBytes)
	}
}

func TestInstrumentUnknownSite(t *testing.T) {
	mod, _ := stalledRun(t)
	_, err := keyselect.Instrument(mod, []symex.SiteKey{{Func: "nope", InstrID: 1}})
	if err == nil {
		t.Error("expected error for unknown function")
	}
	_, err = keyselect.Instrument(mod, []symex.SiteKey{{Func: "main", InstrID: 32000}})
	if err == nil {
		t.Error("expected error for unknown instruction")
	}
}

// TestInstrumentChainSteps: an empty chain deploys the base module, and
// a bad step is reported by its 1-based position in the chain.
func TestInstrumentChainSteps(t *testing.T) {
	mod, sres := stalledRun(t)
	if got, err := keyselect.InstrumentChain(mod, nil); err != nil || got != mod {
		t.Fatalf("empty chain = (%p, %v), want the base module %p", got, err, mod)
	}
	sel, err := keyselect.Select(sres)
	if err != nil {
		t.Fatal(err)
	}
	bad := []symex.SiteKey{{Func: "nope", InstrID: 1}}
	_, err = keyselect.InstrumentChain(mod, [][]symex.SiteKey{sel.Sites, bad})
	if err == nil || !strings.Contains(err.Error(), "chain step 2") {
		t.Errorf("bad second step: err = %v, want it named as chain step 2", err)
	}
}

// TestRecordedValuesUnblock is the end-to-end property: recording the
// selected values lets the previously stalled execution complete at
// the same solver budget.
func TestRecordedValuesUnblock(t *testing.T) {
	mod, sres := stalledRun(t)
	sel, err := keyselect.Select(sres)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := keyselect.Instrument(mod, sel.Sites)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorkload().Add("k", 62, 61, 60, 200, 200, 200, 200, 200, 200, 200)
	ring := pt.NewRing(1 << 22)
	enc := pt.NewEncoder(ring)
	res := vm.New(instr, vm.Config{Input: w, Tracer: enc, Seed: 1}).Run("main")
	enc.Finish()
	tr, err := pt.Decode(ring)
	if err != nil {
		t.Fatal(err)
	}
	if enc.NumPTW == 0 {
		t.Fatal("no PTW packets recorded by instrumentation")
	}
	sres2 := symex.New(instr, tr, res.Failure, symex.Options{QueryBudget: 20_000}).Run("main")
	if sres2.Status != symex.StatusCompleted {
		// One more selection round may be needed; that still proves
		// forward progress only if the stall moved.
		t.Fatalf("instrumented run did not complete: %v (%s)", sres2.Status, sres2.StallReason)
	}
	rerun := vm.New(mod, vm.Config{Input: sres2.TestCase.Clone(), Seed: 1}).Run("main")
	if rerun.Failure == nil || !rerun.Failure.SameSignature(res.Failure) {
		t.Errorf("generated test case does not reproduce: %v", rerun.Failure)
	}
}

// handMod builds a module with one unreachable block and one
// non-defining instruction, for Instrument placement validation.
func handMod(t *testing.T) (*ir.Module, int32, int32) {
	t.Helper()
	f := &ir.Func{Name: "main", NumRegs: 3}
	f.Blocks = []*ir.Block{
		{Index: 0, Instrs: []ir.Instr{
			{Op: ir.OpConst, W: ir.W32, Dst: 1, A: ir.Imm(1)},
			{Op: ir.OpOutput, A: ir.Reg(1)},
			{Op: ir.OpRet, A: ir.Imm(0)},
		}},
		{Index: 1, Instrs: []ir.Instr{ // unreachable
			{Op: ir.OpConst, W: ir.W32, Dst: 2, A: ir.Imm(2)},
			{Op: ir.OpBr, Blk: 0},
		}},
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].ID = f.NewInstrID()
		}
	}
	m := &ir.Module{Name: "t"}
	m.AddFunc(f)
	outputID := f.Blocks[0].Instrs[1].ID
	deadID := f.Blocks[1].Instrs[0].ID
	return m, outputID, deadID
}

func TestInstrumentRejectsInvalidPlacement(t *testing.T) {
	m, outputID, deadID := handMod(t)
	if _, err := keyselect.Instrument(m, []symex.SiteKey{{Func: "main", InstrID: outputID}}); err == nil {
		t.Error("expected error for a site that defines no register")
	}
	if _, err := keyselect.Instrument(m, []symex.SiteKey{{Func: "main", InstrID: deadID}}); err == nil {
		t.Error("expected error for a site in an unreachable block")
	}
}
