package core_test

import (
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

// chainSrc builds constraints with a long symbolic write chain, the
// classic stall pattern of §3.3.1.
const chainSrc = `
int m[256];
func main() int {
	int i = 0;
	while (i < 10) {
		int k = input32("k");
		if (k < 0 || k >= 250) { return 0; }
		m[k] = m[k + 1] + 1;
		i = i + 1;
	}
	assert(m[60] != 3, "chain reaches 3");
	return 0;
}`

func chainWorkload() *vm.Workload {
	w := vm.NewWorkload().Add("k", 62, 61, 60)
	for i := 0; i < 7; i++ {
		w.Add("k", 200)
	}
	return w
}

func TestReproduceImmediate(t *testing.T) {
	// A simple failure reconstructs on the first occurrence (the
	// 2/13 case of the paper).
	mod := compile(t, `
func main() int {
	int x = input32("x");
	assert(x != 42, "the answer");
	return 0;
}`)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 42), Seed: 1},
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Occurrences != 1 {
		t.Errorf("occurrences = %d, want 1", rep.Occurrences)
	}
	if got := uint32(rep.TestCase.Streams["x"][0]); got != 42 {
		t.Errorf("x = %d, want 42", got)
	}
}

func TestReproduceIterative(t *testing.T) {
	// With a small solver budget, the first attempt stalls on the
	// write chain; recording key data values must unblock it within
	// a few reoccurrences (the 11/13 case).
	mod := compile(t, chainSrc)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:  symex.Options{QueryBudget: 30_000},
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced {
		t.Fatalf("not reproduced: %+v", rep)
	}
	if !rep.Verified {
		t.Fatal("test case not verified")
	}
	if rep.Occurrences < 2 {
		t.Errorf("occurrences = %d, want >= 2 (first attempt must stall)", rep.Occurrences)
	}
	first := rep.Iterations[0]
	if first.Status != symex.StatusStalled {
		t.Errorf("first iteration status %v, want stalled", first.Status)
	}
	if first.RecordingSites == 0 || first.RecordingCost == 0 {
		t.Errorf("first iteration selected nothing: %+v", first)
	}
	last := rep.Iterations[len(rep.Iterations)-1]
	if last.Status != symex.StatusCompleted {
		t.Errorf("last iteration status %v", last.Status)
	}
	t.Logf("reproduced in %d occurrences, %d sites, %d bytes/occurrence",
		rep.Occurrences, first.RecordingSites, first.RecordingCost)
}

func TestRandomSelectionBaselineFails(t *testing.T) {
	// The §5.2 baseline: random data recording at the same byte
	// budget should not unblock the stall (within the iteration
	// bound), while key selection does (previous test).
	mod := compile(t, chainSrc)
	rep, _ := core.Reproduce(core.Config{
		Module:          mod,
		Gen:             &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:           symex.Options{QueryBudget: 30_000},
		MaxIterations:   4,
		RandomSelection: true,
		RandomSeed:      12345,
	})
	if rep.Reproduced {
		t.Skip("random selection got lucky with this seed; acceptable but rare")
	}
	if rep.Occurrences < 2 {
		t.Errorf("random baseline should at least iterate, got %d occurrences", rep.Occurrences)
	}
}

func TestReproducePaperExample(t *testing.T) {
	mod := compile(t, `
uint V[256];
func foo(uint a, uint b, uint c, uint d) {
	uint x = a + b;
	if (x < 256 && c < 256 && d < 256) {
		V[x] = 1;
		if (V[c] == 0) { V[c] = 512; }
		V[V[x]] = x;
		if (c < d) {
			if (V[V[d]] == x) { abort("paper"); }
		}
	}
}
func main() int {
	foo((uint)input32("a"), (uint)input32("b"), (uint)input32("c"), (uint)input32("d"));
	return 0;
}`)
	w := vm.NewWorkload().Add("a", 0).Add("b", 2).Add("c", 0).Add("d", 2)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: w, Seed: 1},
		Symex:  symex.Options{QueryBudget: 400_000},
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: reproduced=%v verified=%v reason=%s",
			rep.Reproduced, rep.Verified, rep.FailReason)
	}
	t.Logf("paper example: %d occurrence(s), %v symbex time",
		rep.Occurrences, rep.TotalSymexTime)
}

func TestReoccurrenceFiltering(t *testing.T) {
	// The generator interleaves benign runs and a different bug;
	// the loop must wait for the matching signature.
	mod := compile(t, `
func main() int {
	int x = input32("x");
	if (x == 1) { abort("other bug"); }
	assert(x != 42, "target bug");
	return 0;
}`)
	gen := &mixedGen{}
	rep, err := core.Reproduce(core.Config{Module: mod, Gen: gen})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Failure.Kind != vm.FailAssert {
		t.Errorf("failure kind %v", rep.Failure.Kind)
	}
}

// mixedGen produces the target failure (x=42) first, then noise, then
// the target again, exercising signature matching.
type mixedGen struct{}

func (m *mixedGen) Run(n int) (*vm.Workload, int64) {
	switch n % 4 {
	case 0:
		return vm.NewWorkload().Add("x", 42), 1
	case 1:
		return vm.NewWorkload().Add("x", 7), 1 // benign
	case 2:
		return vm.NewWorkload().Add("x", 1), 1 // other bug
	default:
		return vm.NewWorkload().Add("x", 42), 1
	}
}

func TestReproduceFailsGracefullyOnNoFailure(t *testing.T) {
	mod := compile(t, `func main() int { return input32("x"); }`)
	_, err := core.Reproduce(core.Config{
		Module:              mod,
		Gen:                 &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5).Clone(), Seed: 1},
		MaxRunsPerIteration: 3,
	})
	if err == nil {
		t.Fatal("expected error when failure never occurs")
	}
}

func TestDeferredTracing(t *testing.T) {
	// §3.1: tracing can be enabled only after the failure has been
	// observed several times; the untraced occurrences still count.
	mod := compile(t, `
func main() int {
	int x = input32("x");
	assert(x != 42, "the answer");
	return 0;
}`)
	rep, err := core.Reproduce(core.Config{
		Module:       mod,
		Gen:          &core.FixedWorkload{Workload: vm.NewWorkload().Add("x", 42), Seed: 1},
		DeferTracing: 3,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Occurrences != 4 { // 3 untraced + 1 traced
		t.Errorf("occurrences = %d, want 4", rep.Occurrences)
	}
	if len(rep.Iterations) != 1 {
		t.Errorf("iterations = %d, want 1 (only the traced one analyzes)", len(rep.Iterations))
	}
}

// TestReproduceWithAbsint drives the iterative chain workload with the
// abstract-interpretation layer on: the reproduction must still land
// (verdict parity with the plain run above), and the verified report
// must carry mined-and-confirmed static invariants plus the absint
// solver counters.
func TestReproduceWithAbsint(t *testing.T) {
	mod := compile(t, chainSrc)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:  symex.Options{QueryBudget: 30_000},
		Absint: true,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("absint run did not reproduce+verify: %+v", rep)
	}
	if rep.TotalSATVars == 0 || rep.TotalSATClauses == 0 {
		t.Errorf("CNF volume not accounted: vars=%d clauses=%d", rep.TotalSATVars, rep.TotalSATClauses)
	}
	if rep.AbsintMined == 0 {
		t.Errorf("no static invariant candidates mined")
	}
	for _, inv := range rep.AbsintInvariants {
		if inv.Min > inv.Max {
			t.Errorf("invalid verified invariant %v", inv)
		}
	}
}
