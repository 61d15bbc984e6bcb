package absint_test

import (
	"testing"

	"execrecon/internal/absint"
	"execrecon/internal/corpus"
	"execrecon/internal/vm"
)

// FuzzAbsintSoundness is the differential soundness gate for the whole
// abstract interpreter: generate a self-verified corpus scenario from
// the fuzz seed, run its failing and benign workloads concretely, and
// require every register write to stay inside the fixpoint's fact for
// that definition. Any escape is an unsound transfer function.
func FuzzAbsintSoundness(f *testing.F) {
	for _, s := range []uint64{1, 42, 1337, 99991, 0xdeadbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		scens, _, err := corpus.Generate(corpus.GenConfig{
			N: 1, Seed: seed, Attempts: 4,
		})
		if err != nil || len(scens) == 0 {
			t.Skip("no scenario for this seed")
		}
		sc := scens[0]
		mod, err := sc.Module()
		if err != nil {
			t.Skipf("module: %v", err)
		}
		mf := absint.AnalyzeModule(mod, "main")

		check := func(w *vm.Workload, schedSeed int64, label string) {
			var bad string
			vcfg := vm.Config{
				Input: w, Seed: schedSeed, MaxSteps: 2_000_000,
				OnRegWrite: func(fn string, id int32, dst int, val uint64) {
					if bad != "" {
						return
					}
					v, ok := mf.FactFor(fn, id)
					if !ok {
						return
					}
					if v.IsBottom() || !v.Contains(val) {
						bad = label + ": " + fn + ": concrete write escapes abstract fact " + v.String()
					}
				},
			}
			vm.New(mod, vcfg).Run("main")
			if bad != "" {
				t.Fatalf("%s (scenario %s seed %d)", bad, sc.Name, seed)
			}
		}
		check(sc.Failing.Clone(), sc.SchedSeed, "failing")
		for i := 0; i < 2 && i < len(sc.BenignSeeds); i++ {
			check(sc.Benign(i), sc.BenignSeeds[i], "benign")
		}
	})
}
