package bench

import (
	"fmt"
	"io"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/solver"
	"execrecon/internal/symex"
)

// SolveCacheOptions configures the solver-session ablation.
type SolveCacheOptions struct {
	// QueryBudget is the per-query solver budget (0 = bench default).
	QueryBudget int64
	// Only restricts the run to the named apps (nil = all).
	Only []string
	// Log receives progress lines.
	Log io.Writer
}

// SolveCacheRow compares one app's full ER reproduction under
// fresh-per-query solving versus one persistent incremental session
// per pipeline.
type SolveCacheRow struct {
	App string

	// Fresh-solver (baseline) reproduction.
	FreshSolverTime time.Duration
	FreshSteps      int64
	FreshQueries    int64
	FreshOccur      int
	FreshReproduced bool
	FreshVerified   bool

	// Incremental-session reproduction.
	IncSolverTime time.Duration
	IncSteps      int64
	IncQueries    int64
	IncOccur      int
	IncReproduced bool
	IncVerified   bool

	// Session cache effectiveness.
	Session solver.IncStats

	// VerdictMatch: both modes agree on Reproduced and Verified —
	// the correctness gate of the ablation.
	VerdictMatch bool
	FailReason   string
}

// Speedup is the fresh/incremental cumulative solver-time ratio.
func (r SolveCacheRow) Speedup() float64 {
	if r.IncSolverTime <= 0 {
		return 0
	}
	return float64(r.FreshSolverTime) / float64(r.IncSolverTime)
}

// ReusePct is the share of non-trivial constraints answered from the
// session cache without re-elimination or re-blasting.
func (r SolveCacheRow) ReusePct() float64 {
	if r.Session.ConstraintsSeen == 0 {
		return 0
	}
	return 100 * float64(r.Session.ConstraintsReused) / float64(r.Session.ConstraintsSeen)
}

// SolveCacheResult aggregates the ablation.
type SolveCacheResult struct {
	Rows []SolveCacheRow
	// TotalFresh/TotalInc sum cumulative solver time across apps;
	// Speedup is their ratio (the experiment's headline number).
	TotalFresh time.Duration
	TotalInc   time.Duration
	// AllVerdictsMatch reports whether every app reproduced (and
	// verified) identically in both modes.
	AllVerdictsMatch bool
}

// Speedup is the aggregate fresh/incremental solver-time ratio.
func (r *SolveCacheResult) Speedup() float64 {
	if r.TotalInc <= 0 {
		return 0
	}
	return float64(r.TotalFresh) / float64(r.TotalInc)
}

// solveCacheRun drives one full ER reproduction with a fresh solver
// per query or one incremental session, returning the report and (for
// the session) its cumulative statistics. It mirrors core.Reproduce but
// keeps hold of the Pipeline so the session counters survive.
func solveCacheRun(a *apps.App, budget int64, incremental bool, log io.Writer) (*core.Report, solver.IncStats, error) {
	mod, err := a.Module()
	if err != nil {
		return nil, solver.IncStats{}, err
	}
	p, err := core.NewPipeline(core.Config{
		Module:            mod,
		Symex:             symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		IncrementalSolver: incremental,
		Log:               log,
	})
	if err != nil {
		return nil, solver.IncStats{}, err
	}
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed}}
	for !p.Done() {
		occ, err := src.Next(p.Request())
		if err != nil {
			return p.Report(), p.SolverStats(), err
		}
		if _, err := p.Feed(occ); err != nil {
			return p.Report(), p.SolverStats(), err
		}
	}
	return p.Report(), p.SolverStats(), p.Err()
}

// RunSolveCache reproduces each Table 1 bug twice — fresh solver per
// query, then one incremental session per pipeline — and compares
// cumulative solver time, abstract steps, and reproduction verdicts.
func RunSolveCache(opts SolveCacheOptions) (*SolveCacheResult, error) {
	res := &SolveCacheResult{AllVerdictsMatch: true}
	for _, a := range apps.All() {
		if len(opts.Only) > 0 && !contains(opts.Only, a.Name) {
			continue
		}
		// Deliberately NOT the per-app stall-tuned budgets: those are
		// sized so that queries *give up* after a few thousand steps,
		// which caps both modes at budget×queries and turns the
		// comparison into one of give-up speed rather than solver
		// work. Like Fig. 5 (§5.2 runs with the solver timeout
		// disabled), the ablation uses the generous bench default so
		// every query runs to a real verdict and the measured time is
		// actual solving.
		budget := opts.QueryBudget
		if budget == 0 {
			budget = DefaultQueryBudget
		}
		row := SolveCacheRow{App: a.Name}

		fresh, _, err := solveCacheRun(a, budget, false, opts.Log)
		if err != nil && fresh == nil {
			row.FailReason = err.Error()
			res.Rows = append(res.Rows, row)
			res.AllVerdictsMatch = false
			continue
		}
		row.FreshSolverTime = fresh.TotalSolverTime
		row.FreshOccur = fresh.Occurrences
		row.FreshReproduced = fresh.Reproduced
		row.FreshVerified = fresh.Verified
		for _, it := range fresh.Iterations {
			row.FreshQueries += it.Queries
			row.FreshSteps += it.SolverSteps
		}

		inc, st, err := solveCacheRun(a, budget, true, opts.Log)
		if err != nil && inc == nil {
			row.FailReason = err.Error()
			res.Rows = append(res.Rows, row)
			res.AllVerdictsMatch = false
			continue
		}
		row.IncSolverTime = inc.TotalSolverTime
		row.IncOccur = inc.Occurrences
		row.IncReproduced = inc.Reproduced
		row.IncVerified = inc.Verified
		for _, it := range inc.Iterations {
			row.IncQueries += it.Queries
			row.IncSteps += it.SolverSteps
		}
		row.Session = st

		row.VerdictMatch = row.FreshReproduced == row.IncReproduced &&
			row.FreshVerified == row.IncVerified
		if !row.VerdictMatch {
			res.AllVerdictsMatch = false
		}
		res.TotalFresh += row.FreshSolverTime
		res.TotalInc += row.IncSolverTime
		res.Rows = append(res.Rows, row)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "solvecache: %s fresh=%v inc=%v speedup=%.2fx reuse=%.0f%% match=%v\n",
				a.Name, row.FreshSolverTime.Round(time.Microsecond),
				row.IncSolverTime.Round(time.Microsecond), row.Speedup(),
				row.ReusePct(), row.VerdictMatch)
		}
	}
	return res, nil
}

// RenderSolveCache prints the ablation in a table plus the aggregate
// verdict line.
func RenderSolveCache(w io.Writer, res *SolveCacheResult) {
	header := []string{"Application-BugID", "Fresh Solver", "Incremental", "Speedup", "Reuse", "Fallbacks", "Verdict"}
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.App,
			r.FreshSolverTime.Round(time.Microsecond).String(),
			r.IncSolverTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", r.Speedup()),
			fmt.Sprintf("%.0f%%", r.ReusePct()),
			fmt.Sprintf("%d", r.Session.FreshFallbacks),
			solveCacheVerdict(r),
		})
	}
	table(w, header, rows)
	fmt.Fprintf(w, "\ncumulative solver time: fresh %v vs incremental %v (%.2fx); verdicts identical: %v\n",
		res.TotalFresh.Round(time.Microsecond), res.TotalInc.Round(time.Microsecond),
		res.Speedup(), res.AllVerdictsMatch)
}

func solveCacheVerdict(r SolveCacheRow) string {
	switch {
	case r.FailReason != "":
		return "ERROR: " + r.FailReason
	case !r.VerdictMatch:
		return "MISMATCH"
	}
	return "match"
}
