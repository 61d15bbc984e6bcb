package core_test

import (
	"strconv"
	"testing"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// counterValue extracts the (single-series) counter value of a family.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	fam, ok := reg.Family(name)
	if !ok {
		t.Fatalf("family %s not registered", name)
	}
	if len(fam.Series) != 1 {
		t.Fatalf("family %s has %d series, want 1", name, len(fam.Series))
	}
	return fam.Series[0].Value
}

// stageCount returns the observation count of the
// er_core_stage_seconds series with the given stage label.
func stageCount(t *testing.T, reg *telemetry.Registry, stage string) int64 {
	t.Helper()
	fam, ok := reg.Family("er_core_stage_seconds")
	if !ok {
		t.Fatalf("stage histogram family not registered")
	}
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "stage" && l.Value == stage {
				if s.Hist == nil {
					t.Fatalf("stage %s: no histogram snapshot", stage)
				}
				return s.Hist.Count
			}
		}
	}
	t.Fatalf("stage %s: series not found", stage)
	return 0
}

// TestPipelineTelemetry runs the iterative chain reproduction with a
// registry and tracer attached and checks that every stage reported:
// counters match the report, stage histograms carry one sample per
// stage execution, and the tracer retains one complete nested span
// tree for the session.
func TestPipelineTelemetry(t *testing.T) {
	mod := compile(t, chainSrc)
	reg := telemetry.New()
	tr := telemetry.NewTracer(4)
	rep, err := core.Reproduce(core.Config{
		Module:    mod,
		Gen:       &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:     symex.Options{QueryBudget: 30_000},
		Telemetry: reg,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	iters := len(rep.Iterations)
	stalls := 0
	for _, it := range rep.Iterations {
		if it.Status == symex.StatusStalled {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatalf("expected at least one stalled iteration, got %d/%d", stalls, iters)
	}

	// Counters mirror the report exactly.
	checks := []struct {
		name string
		want float64
	}{
		{"er_core_occurrences_total", float64(rep.Occurrences)},
		{"er_core_iterations_total", float64(iters)},
		{"er_core_stalls_total", float64(stalls)},
		{"er_core_reproduced_total", 1},
		{"er_core_verified_total", 1},
	}
	for _, c := range checks {
		if got := counterValue(t, reg, c.name); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	var wantSites, wantBytes float64
	for _, it := range rep.Iterations {
		wantSites += float64(it.RecordingSites)
		wantBytes += float64(it.RecordingCost)
	}
	if got := counterValue(t, reg, "er_core_recording_sites_total"); got != wantSites {
		t.Errorf("recording sites = %v, want %v", got, wantSites)
	}
	if got := counterValue(t, reg, "er_core_recording_bytes_total"); got != wantBytes {
		t.Errorf("recording bytes = %v, want %v", got, wantBytes)
	}

	// Stage histograms: one sample per stage execution.
	wantStage := map[string]int64{
		"shepherd":   int64(iters),
		"solve":      int64(iters),
		"keyselect":  int64(stalls),
		"instrument": int64(stalls),
		"verify":     1,
		"wait":       int64(rep.Occurrences),
	}
	for stage, want := range wantStage {
		if got := stageCount(t, reg, stage); got != want {
			t.Errorf("stage %s count = %d, want %d", stage, got, want)
		}
	}

	// Symex/solver series registered through the threaded registry.
	for _, name := range []string{"er_symex_runs_total", "er_symex_instrs_total"} {
		if _, ok := reg.Family(name); !ok {
			t.Errorf("family %s not registered via pipeline threading", name)
		}
	}

	// The tracer retained exactly one finished root tree describing
	// the full session.
	if got := tr.Finished(); got != 1 {
		t.Fatalf("finished roots = %d, want 1", got)
	}
	roots := tr.Recent()
	if len(roots) != 1 {
		t.Fatalf("recent roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "reconstruction" || root.Open {
		t.Fatalf("root = %q open=%v", root.Name, root.Open)
	}
	if root.Attrs["reproduced"] != "true" || root.Attrs["verified"] != "true" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if root.Attrs["signature"] == "" {
		t.Errorf("root missing signature attr")
	}
	var nIter, nWait int
	var checkClosed func(s telemetry.SpanSnapshot)
	checkClosed = func(s telemetry.SpanSnapshot) {
		if s.Open {
			t.Errorf("span %s still open in finished tree", s.Name)
		}
		if s.Duration < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
		}
		for _, c := range s.Children {
			checkClosed(c)
		}
	}
	checkClosed(root)
	for _, c := range root.Children {
		switch c.Name {
		case "iteration":
			nIter++
			var hasShepherd, hasSolve bool
			for _, g := range c.Children {
				if g.Name == "shepherd" {
					hasShepherd = true
					for _, gg := range g.Children {
						if gg.Name == "solve" {
							hasSolve = true
							if gg.Attrs["verdict"] == "" {
								t.Errorf("solve span missing verdict attr")
							}
						}
					}
				}
			}
			if !hasShepherd || !hasSolve {
				t.Errorf("iteration span missing shepherd/solve children: %+v", c)
			}
		case "reoccurrence-wait":
			nWait++
		}
	}
	if nIter != iters {
		t.Errorf("iteration spans = %d, want %d", nIter, iters)
	}
	if nWait != rep.Occurrences {
		t.Errorf("wait spans = %d, want %d", nWait, rep.Occurrences)
	}
}

// TestSolverStageSplit checks the solver's per-stage split as the
// pipeline reports it: every solve span carries arrayelim_s, blast_s
// and cdcl_s attributes summing to at most the span's duration (the
// engine's solver time), blasting shows up, and er_solver_stage_seconds
// takes one sample per iteration and stage, with no absint series
// while that pass is off.
func TestSolverStageSplit(t *testing.T) {
	mod := compile(t, chainSrc)
	reg := telemetry.New()
	tr := telemetry.NewTracer(4)
	rep, err := core.Reproduce(core.Config{
		Module:    mod,
		Gen:       &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:     symex.Options{QueryBudget: 30_000},
		Telemetry: reg,
		Tracer:    tr,
	})
	if err != nil || !rep.Verified {
		t.Fatalf("reproduce: %v (verified %v)", err, rep.Verified)
	}
	iters := int64(len(rep.Iterations))

	var solves int
	var blast float64
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		if s.Name == "solve" {
			solves++
			var sum float64
			for _, k := range []string{"arrayelim_s", "blast_s", "cdcl_s"} {
				v, err := strconv.ParseFloat(s.Attrs[k], 64)
				if err != nil || v < 0 {
					t.Errorf("solve span %s = %q", k, s.Attrs[k])
				}
				sum += v
				if k == "blast_s" {
					blast += v
				}
			}
			if _, ok := s.Attrs["absint_s"]; ok {
				t.Errorf("solve span carries absint_s with the pass off")
			}
			if d := time.Duration(sum * float64(time.Second)); d > s.Duration {
				t.Errorf("solve stages sum to %v, above the span's %v", d, s.Duration)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, root := range tr.Recent() {
		walk(root)
	}
	if int64(solves) != iters || blast <= 0 {
		t.Fatalf("%d solve spans over %d iterations, blast %vs", solves, iters, blast)
	}

	fam, ok := reg.Family("er_solver_stage_seconds")
	if !ok {
		t.Fatal("er_solver_stage_seconds not registered")
	}
	got := map[string]int64{}
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "stage" && s.Hist != nil {
				got[l.Value] = s.Hist.Count
			}
		}
	}
	want := map[string]int64{"arrayelim": iters, "blast": iters, "cdcl": iters}
	if len(got) != len(want) {
		t.Errorf("stage series %v, want %v", got, want)
	}
	for stage, n := range want {
		if got[stage] != n {
			t.Errorf("er_solver_stage_seconds{stage=%q} count %d, want %d", stage, got[stage], n)
		}
	}
}

// TestPipelineNoTelemetry checks the nil-telemetry path stays a
// no-op: no registry, no tracer, identical outcome.
func TestPipelineNoTelemetry(t *testing.T) {
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
		t.Fatalf("report: %+v", rep)
	}
}
