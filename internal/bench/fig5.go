package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/prod"
	"execrecon/internal/symex"
)

// Fig5Series is one curve of Fig. 5: symbolic execution progress
// (instructions executed over wall time) under one recording
// configuration.
type Fig5Series struct {
	Label  string
	Points []symex.ProgressPoint
	// Steps is the solver steps spent executing the full instruction
	// count (symex Stats.SolverSteps): the deterministic measure of the
	// work each generation's recorded values save.
	Steps int64
	// Total is the wall time of the same run.
	Total  time.Duration
	Instrs int64
}

// Fig5Result carries the three curves of Fig. 5 (no data values,
// first-iteration values, second-iteration values).
type Fig5Result struct {
	App    string
	Series []Fig5Series
}

// RunFig5 reproduces Fig. 5 on the PHP-74194 analog: it derives the
// iteration-1 and iteration-2 instrumentation sets through the
// pipeline, then re-runs shepherded symbolic execution with the solver
// timeout disabled under each of the three recording configurations,
// counting the solver steps (and timing the run) to symbolically
// execute the same instructions.
func RunFig5(appName string) (*Fig5Result, error) {
	if appName == "" {
		appName = "PHP-74194"
	}
	a := apps.ByName(appName)
	if a == nil {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	mod, err := a.Module()
	if err != nil {
		return nil, err
	}

	// Derive up to two instrumentation generations by running two
	// stall/select iterations with a tightly constrained solver
	// budget (half the app's configured timeout analog), so two
	// distinct recording generations emerge. Generation i deploys the
	// first i steps of the chain; when the session converged early
	// the last generation's module is reused.
	cfg := ReproConfig(a, mod)
	cfg.Symex.QueryBudget = a.Budget() / 2
	cfg.MaxIterations = 2
	rep, err := core.Reproduce(cfg)
	if err != nil {
		return nil, err
	}
	chain := rep.Chain()
	modules := make([]*ir.Module, 3) // generation 0: control flow only
	for i := range modules {
		if modules[i], err = keyselect.InstrumentChain(mod, chain[:min(i, len(chain))]); err != nil {
			return nil, err
		}
	}

	labels := []string{
		"control-flow + no data values",
		"control-flow + 1st iteration data values",
		"control-flow + 2nd iteration data values",
	}
	// One recorder, so every recording below reuses one ring. Solver
	// timeout disabled (§5.2): every configuration executes the same
	// instructions to completion.
	var rec prod.Recorder
	res := &Fig5Result{App: a.Name}
	for i, m := range modules { // instrumenting does not change the failure the session reproduced
		trace, failRes, err := rec.Record(m, a.Failing(), a.Seed)
		if err != nil {
			return nil, err
		}
		sres := symex.New(m, trace, failRes.Failure, symex.Options{ProgressEvery: 64}).Run("main")
		if sres.Status != symex.StatusCompleted {
			return nil, fmt.Errorf("bench: fig5 generation %d: %v (%v)", i, sres.Status, sres.Err)
		}
		res.Series = append(res.Series, Fig5Series{
			Label:  labels[i],
			Points: sres.Progress,
			Steps:  sres.Stats.SolverSteps,
			Total:  sres.Stats.Elapsed,
			Instrs: sres.Stats.Instrs,
		})
	}
	return res, nil
}

// errNoFailure reports an app's failing workload running clean.
var errNoFailure = errors.New("bench: workload did not fail")

// RenderFig5 prints the series: per configuration, solver steps, wall
// time and a coarse progress curve (CSV-like rows usable for plotting).
func RenderFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintf(w, "Fig 5 — shepherded symbolic execution progress, %s\n", r.App)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-45s %9d solver steps, %10v for %d instructions\n",
			s.Label, s.Steps, s.Total.Round(time.Microsecond), s.Instrs)
	}
	fmt.Fprintln(w, "\nseries,instructions,milliseconds")
	for si, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%d,%d,%.3f\n", si, p.Instrs, float64(p.Elapsed.Microseconds())/1000)
		}
	}
}
