package corpus_test

import (
	"reflect"
	"sync"
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/corpus"
	"execrecon/internal/symex"
)

// genBatch generates one scenario per pattern (two for short batches)
// with a fixed seed, failing the test on any generation error.
func genBatch(t *testing.T, n int, seed uint64) []*corpus.Scenario {
	t.Helper()
	scs, stats, err := corpus.Generate(corpus.GenConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.Generated != n {
		t.Fatalf("generated %d scenarios, want %d", stats.Generated, n)
	}
	return scs
}

// TestGroundTruthPerPattern re-checks, independently of the
// generator's own self-verification, that each pattern's ground truth
// holds under concrete execution: the failing input fails with the
// expected kind at the expected site, and N benign inputs pass.
func TestGroundTruthPerPattern(t *testing.T) {
	scs := genBatch(t, 2*len(corpus.Patterns()), 42)
	covered := map[corpus.Pattern]bool{}
	for _, sc := range scs {
		covered[sc.Pattern] = true
		res, err := sc.Exec(sc.Failing.Clone(), sc.SchedSeed)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Failure == nil {
			t.Errorf("%s: ground-truth input did not fail", sc.Name)
			continue
		}
		if !sc.Matches(res.Failure) {
			t.Errorf("%s: failed with %v, want %s in %q", sc.Name, res.Failure, sc.Kind, sc.FailFunc)
		}
		for i := 0; i < 8; i++ {
			bres, err := sc.Exec(sc.Benign(i), sc.BenignSeed(i))
			if err != nil {
				t.Fatalf("%s: benign %d: %v", sc.Name, i, err)
			}
			if bres.Failure != nil {
				t.Errorf("%s: benign run %d failed: %v", sc.Name, i, bres.Failure)
			}
		}
	}
	for _, p := range corpus.Patterns() {
		if !covered[p] {
			t.Errorf("pattern %s not covered by round-robin batch", p)
		}
	}
}

// TestGenerateDeterministic: same seed ⇒ byte-identical programs and
// identical ground truth; a different seed must actually vary the
// programs.
func TestGenerateDeterministic(t *testing.T) {
	n := len(corpus.Patterns())
	a := genBatch(t, n, 7)
	b := genBatch(t, n, 7)
	for i := range a {
		if a[i].Src != b[i].Src {
			t.Errorf("scenario %d (%s): sources differ across runs of seed 7", i, a[i].Pattern)
		}
		if a[i].SchedSeed != b[i].SchedSeed || a[i].SubSeed != b[i].SubSeed {
			t.Errorf("scenario %d: seeds differ (%d/%d vs %d/%d)",
				i, a[i].SchedSeed, a[i].SubSeed, b[i].SchedSeed, b[i].SubSeed)
		}
		if !reflect.DeepEqual(a[i].Failing.Streams, b[i].Failing.Streams) {
			t.Errorf("scenario %d: failing workloads differ", i)
		}
	}
	c := genBatch(t, n, 8)
	same := 0
	for i := range a {
		if a[i].Src == c[i].Src {
			same++
		}
	}
	if same == n {
		t.Errorf("seeds 7 and 8 generated identical populations")
	}
}

// TestConcurrencyStress regenerates and re-verifies the multithreaded
// patterns from many goroutines — the -race stress for the spawn-based
// scenarios and the generator's own concurrency safety.
func TestConcurrencyStress(t *testing.T) {
	pats := []corpus.Pattern{corpus.PatternLockInversion, corpus.PatternAtomicity}
	scs, _, err := corpus.Generate(corpus.GenConfig{N: 4, Seed: 23, Patterns: pats})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var wg sync.WaitGroup
	for _, sc := range scs {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(sc *corpus.Scenario, g int) {
				defer wg.Done()
				res, err := sc.Exec(sc.Failing.Clone(), sc.SchedSeed)
				if err != nil || !sc.Matches(res.Failure) {
					t.Errorf("%s: goroutine %d: failing run mismatch (err=%v)", sc.Name, g, err)
					return
				}
				if bres, err := sc.Exec(sc.Benign(g), sc.BenignSeed(g)); err != nil || bres.Failure != nil {
					t.Errorf("%s: goroutine %d: benign run failed (err=%v)", sc.Name, g, err)
				}
			}(sc, g)
		}
	}
	wg.Wait()
}

// TestReproduceGenerated drives full ER reproduction over one
// generated scenario per pattern: the corpus exists so that this —
// population-scale reproduction — works end to end.
func TestReproduceGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("full ER loop per pattern")
	}
	scs := genBatch(t, len(corpus.Patterns()), 1)
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			mod, err := sc.Module()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Reproduce(core.Config{
				Module: mod,
				Gen:    &core.FixedWorkload{Workload: sc.Failing.Clone(), Seed: sc.SchedSeed},
				Symex:  symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: 50_000_000},
			})
			if err != nil {
				t.Fatalf("Reproduce: %v", err)
			}
			if !rep.Reproduced || !rep.Verified {
				t.Errorf("reproduced=%v verified=%v (%s)", rep.Reproduced, rep.Verified, rep.FailReason)
			}
		})
	}
}
