package core_test

import (
	"testing"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// TestReproduceSolverParity runs the stall-then-iterate scenario with
// the fresh-per-query solver: it must reproduce and verify, and it
// must shepherd through the static failure slice (some instructions
// executed natively).
func TestReproduceSolverParity(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		mod := compile(t, chainSrc)
		rep, err := core.Reproduce(core.Config{
			Module: mod,
			Gen:    &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
			Symex:  symex.Options{QueryBudget: 30_000},
		})
		if err != nil {
			t.Fatalf("reproduce: %v", err)
		}
		if !rep.Reproduced || !rep.Verified {
			t.Fatalf("reproduced=%v verified=%v reason=%s", rep.Reproduced, rep.Verified, rep.FailReason)
		}
		var conc int64
		for _, it := range rep.Iterations {
			conc += it.ConcSteps
		}
		if conc == 0 {
			t.Error("no instruction executed natively: the failure slice did not reach shepherding")
		}
	})
}

// TestPipelineAbortCancelsInFlightSolve pins the prompt-abort fix:
// Abort from another goroutine while Feed is deep inside a hard solver
// query with no step budget must be observed on the next budget spend,
// so Feed returns almost immediately.
func TestPipelineAbortCancelsInFlightSolve(t *testing.T) {
	// The final query amounts to factoring a 32-bit semiprime
	// (65537 * 57089): far beyond a few seconds of CDCL, so a prompt
	// return can only come from the cancellation flag.
	mod := compile(t, `
func main() int {
	uint x = (uint)input32("x");
	uint y = (uint)input32("y");
	if (x > 2 && y > 2) {
		assert(x * y != 3741441793, "factored");
	}
	return 0;
}`)
	src := &core.GenSource{Gen: &core.FixedWorkload{
		Workload: vm.NewWorkload().Add("x", 65537).Add("y", 57089), Seed: 1,
	}}
	p, err := core.NewPipeline(core.Config{
		Module: mod,
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	occ, err := src.Next(p.Request())
	if err != nil {
		t.Fatalf("Next: %v", err)
	}

	fed := make(chan struct{})
	go func() {
		defer close(fed)
		p.Feed(occ) // outcome irrelevant; only promptness matters
	}()
	time.Sleep(50 * time.Millisecond)
	aborted := time.Now()
	p.Abort("test shutdown")
	select {
	case <-fed:
	case <-time.After(10 * time.Second):
		t.Fatal("Feed still blocked 10s after Abort; cancellation not observed")
	}
	if lag := time.Since(aborted); lag > 3*time.Second {
		t.Errorf("Feed returned %v after Abort, want prompt cancellation", lag)
	}
}
