package fleet_test

import (
	"testing"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/corpus"
	"execrecon/internal/fleet"
	"execrecon/internal/symex"
)

// table1Apps converts the 13 Table 1 programs into fleet applications
// with the per-app solver budgets the Table 1 runs use.
func table1Apps(t *testing.T) []fleet.App {
	t.Helper()
	var out []fleet.App
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fleet.App{
			Name:    a.Name,
			Module:  mod,
			Failing: a.Failing,
			Seed:    a.Seed,
			Symex:   symex.Options{QueryBudget: a.Budget(), MaxInstrs: 50_000_000},
		})
	}
	return out
}

// TestFleetTable1Parity triages the 13 Table 1 apps as one mixed fleet
// with a single pipeline worker and again with four. Every bucket must
// resolve reproduced and verified in both runs, with the same
// per-bucket verdicts: the worker count may change when a bucket
// resolves, never what it resolves to.
func TestFleetTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 26 full ER pipelines")
	}
	type verdict struct{ Reproduced, Verified bool }
	run := func(workers int) map[string]verdict {
		fapps := table1Apps(t)
		res, err := fleet.Run(fapps, fleet.Options{
			Workers: workers,
			Pace:    2 * time.Millisecond,
			Timeout: 2 * time.Minute,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make(map[string]verdict, len(res.Buckets))
		for _, b := range res.Buckets {
			got[b.App+" "+b.Failure] = verdict{b.Reproduced, b.Verified}
			if !b.Reproduced || !b.Verified {
				t.Errorf("workers=%d: %s: reproduced=%v verified=%v", workers, b.App, b.Reproduced, b.Verified)
			}
		}
		if len(got) != len(fapps) {
			t.Errorf("workers=%d: %d buckets resolved, want %d", workers, len(got), len(fapps))
		}
		return got
	}
	seq, par := run(1), run(4)
	for k, v := range seq {
		if w, ok := par[k]; !ok || w != v {
			t.Errorf("%s: 1 worker %+v, 4 workers %+v (resolved %v)", k, v, w, ok)
		}
	}
	for k := range par {
		if _, ok := seq[k]; !ok {
			t.Errorf("%s: resolved with 4 workers only", k)
		}
	}
}

// TestFleetGeneratedPopulation triages 14 generated scenarios (two per
// bug pattern) through one fleet, each machine serving benign traffic
// with the failing input recurring every third run. Every bucket must
// verify, and every test case, re-run on the pristine module under the
// scenario's scheduler seed, must raise the scenario's ground-truth
// failure — a check independent of Report.Verified, which compares
// only against the signature the pipeline pinned itself.
func TestFleetGeneratedPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 14 full ER pipelines")
	}
	scs, _, err := corpus.Generate(corpus.GenConfig{N: 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*corpus.Scenario, len(scs))
	fapps := make([]fleet.App, 0, len(scs))
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			t.Fatal(err)
		}
		byName[sc.Name] = sc
		fapps = append(fapps, fleet.App{
			Name:     sc.Name,
			Module:   mod,
			Gen:      sc.Gen(3),
			Machines: 1,
			Symex:    symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: 50_000_000},
		})
	}
	res, err := fleet.Run(fapps, fleet.Options{Pace: 200 * time.Microsecond, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, b := range res.Buckets {
		sc := byName[b.App]
		if sc == nil {
			t.Errorf("bucket for unknown app %q", b.App)
			continue
		}
		resolved++
		rep := b.Report
		if rep == nil || !rep.Verified || rep.TestCase == nil {
			t.Errorf("%s: bucket not verified (state %s)", b.App, b.State)
			continue
		}
		out, err := sc.Exec(rep.TestCase.Clone(), sc.SchedSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Matches(out.Failure) {
			t.Errorf("%s: test case raised %v, want %s in %q", b.App, out.Failure, sc.Kind, sc.FailFunc)
		}
	}
	if resolved != len(scs) {
		t.Errorf("%d buckets resolved, want %d", resolved, len(scs))
	}
}
