package bench

import (
	"fmt"
	"io"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/symex"
)

// AbsintOptions configures the abstract-interpretation ablation.
type AbsintOptions struct {
	// QueryBudget is the per-query solver budget (0 = bench default).
	QueryBudget int64
	// Only restricts the run to the named apps (nil = all).
	Only []string
	// Widen is the fixpoint widening threshold (0 = absint default).
	Widen int
	// Log receives progress lines.
	Log io.Writer
}

// AbsintRow compares one app's full ER reproduction with the abstract
// pre-pass off versus on: same solver, same budgets,
// so any delta in CNF size or solver time is attributable to the
// interval/known-bits analysis alone.
type AbsintRow struct {
	App string

	// Baseline reproduction (absint off).
	OffSolverTime time.Duration
	OffQueries    int64
	OffVars       int64
	OffClauses    int64
	OffReproduced bool
	OffVerified   bool

	// Absint reproduction: pre-discharge + width-narrowed blasting +
	// post-reproduction invariant mining.
	OnSolverTime time.Duration
	OnQueries    int64
	OnVars       int64
	OnClauses    int64
	OnReproduced bool
	OnVerified   bool

	// Discharged is the number of queries the abstract pass answered
	// without touching SAT; Bits the constant bits it pinned in the
	// blasted queries; Mined/Invariants the static invariant candidates
	// and the subset that held on the reproduced input.
	Discharged int64
	Bits       int64
	Mined      int
	Invariants int

	// VerdictMatch: both modes agree on Reproduced and Verified — the
	// soundness gate of the ablation.
	VerdictMatch bool
	FailReason   string
}

// DischargePct is the share of the absint run's queries answered by
// the abstract domains alone.
func (r AbsintRow) DischargePct() float64 {
	if r.OnQueries == 0 {
		return 0
	}
	return 100 * float64(r.Discharged) / float64(r.OnQueries)
}

// ClauseReductionPct is the relative shrink in total CNF clauses from
// discharge (queries never blasted) plus bit-pinning (unit clauses
// replacing variable cones). Negative means the absint run's CNF grew:
// pinned bits steer CDCL to different (equally valid) models, which
// can change later iterations' query stream.
func (r AbsintRow) ClauseReductionPct() float64 {
	if r.OffClauses == 0 {
		return 0
	}
	return 100 * (1 - float64(r.OnClauses)/float64(r.OffClauses))
}

// Speedup is the off/on cumulative solver-time ratio.
func (r AbsintRow) Speedup() float64 {
	if r.OnSolverTime <= 0 {
		return 0
	}
	return float64(r.OffSolverTime) / float64(r.OnSolverTime)
}

// AbsintResult aggregates the ablation.
type AbsintResult struct {
	Rows []AbsintRow
	// TotalOff/TotalOn sum cumulative solver time across apps.
	TotalOff time.Duration
	TotalOn  time.Duration
	// TotalOffVars/Clauses and TotalOnVars/Clauses sum the blasted CNF
	// sizes; their ratio is the structural reduction bought by the
	// abstract pass.
	TotalOffVars    int64
	TotalOffClauses int64
	TotalOnVars     int64
	TotalOnClauses  int64
	// TotalQueries/TotalDischarged/TotalBits aggregate the absint runs'
	// query counts, abstract discharges, and pinned bits;
	// TotalMined/TotalInvariants the invariant mining.
	TotalQueries    int64
	TotalDischarged int64
	TotalBits       int64
	TotalMined      int
	TotalInvariants int
	// AllVerdictsMatch reports whether every app reproduced (and
	// verified) identically with the pass off and on.
	AllVerdictsMatch bool
}

// Speedup is the aggregate off/on solver-time ratio.
func (r *AbsintResult) Speedup() float64 {
	if r.TotalOn <= 0 {
		return 0
	}
	return float64(r.TotalOff) / float64(r.TotalOn)
}

// DischargePct is the aggregate share of queries answered abstractly.
func (r *AbsintResult) DischargePct() float64 {
	if r.TotalQueries == 0 {
		return 0
	}
	return 100 * float64(r.TotalDischarged) / float64(r.TotalQueries)
}

// ClauseReductionPct is the aggregate CNF clause shrink.
func (r *AbsintResult) ClauseReductionPct() float64 {
	if r.TotalOffClauses == 0 {
		return 0
	}
	return 100 * (1 - float64(r.TotalOnClauses)/float64(r.TotalOffClauses))
}

// absintRun drives one full ER reproduction with the abstract pass on
// or off. It mirrors
// core.Reproduce but keeps the Pipeline so the report's CNF and
// discharge totals survive.
func absintRun(a *apps.App, budget int64, on bool, widen int, log io.Writer) (*core.Report, error) {
	mod, err := a.Module()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Module:      mod,
		Symex:       symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		Absint:      on,
		AbsintWiden: widen,
		Log:         log,
	}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed}}
	for !p.Done() {
		occ, err := src.Next(p.Request())
		if err != nil {
			return p.Report(), err
		}
		if _, err := p.Feed(occ); err != nil {
			return p.Report(), err
		}
	}
	return p.Report(), p.Err()
}

// RunAbsint reproduces each Table 1 bug twice — abstract pass off,
// then on — and compares verdicts, CNF sizes, abstract discharge
// rates, and cumulative solver time. Both halves use the generous
// bench budget (every query runs to a real verdict) so the measured
// deltas are solver work, not give-up speed.
func RunAbsint(opts AbsintOptions) (*AbsintResult, error) {
	res := &AbsintResult{AllVerdictsMatch: true}
	for _, a := range apps.All() {
		if len(opts.Only) > 0 && !contains(opts.Only, a.Name) {
			continue
		}
		budget := opts.QueryBudget
		if budget == 0 {
			budget = DefaultQueryBudget
		}
		row := AbsintRow{App: a.Name}

		off, err := absintRun(a, budget, false, opts.Widen, opts.Log)
		if err != nil && off == nil {
			row.FailReason = err.Error()
			res.Rows = append(res.Rows, row)
			res.AllVerdictsMatch = false
			continue
		}
		row.OffSolverTime = off.TotalSolverTime
		row.OffVars = off.TotalSATVars
		row.OffClauses = off.TotalSATClauses
		row.OffReproduced = off.Reproduced
		row.OffVerified = off.Verified
		for _, it := range off.Iterations {
			row.OffQueries += it.Queries
		}

		on, err := absintRun(a, budget, true, opts.Widen, opts.Log)
		if err != nil && on == nil {
			row.FailReason = err.Error()
			res.Rows = append(res.Rows, row)
			res.AllVerdictsMatch = false
			continue
		}
		row.OnSolverTime = on.TotalSolverTime
		row.OnVars = on.TotalSATVars
		row.OnClauses = on.TotalSATClauses
		row.OnReproduced = on.Reproduced
		row.OnVerified = on.Verified
		for _, it := range on.Iterations {
			row.OnQueries += it.Queries
		}
		row.Discharged = on.AbsintDischarged
		row.Bits = on.AbsintBits
		row.Mined = on.AbsintMined
		row.Invariants = len(on.AbsintInvariants)

		row.VerdictMatch = row.OffReproduced == row.OnReproduced &&
			row.OffVerified == row.OnVerified
		if !row.VerdictMatch {
			res.AllVerdictsMatch = false
		}
		res.TotalOff += row.OffSolverTime
		res.TotalOn += row.OnSolverTime
		res.TotalOffVars += row.OffVars
		res.TotalOffClauses += row.OffClauses
		res.TotalOnVars += row.OnVars
		res.TotalOnClauses += row.OnClauses
		res.TotalQueries += row.OnQueries
		res.TotalDischarged += row.Discharged
		res.TotalBits += row.Bits
		res.TotalMined += row.Mined
		res.TotalInvariants += row.Invariants
		res.Rows = append(res.Rows, row)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "absint: %s off=%v on=%v discharge=%d/%d (%.0f%%) clauses=%d->%d (%+.0f%%) bits=%d inv=%d/%d match=%v\n",
				a.Name, row.OffSolverTime.Round(time.Microsecond),
				row.OnSolverTime.Round(time.Microsecond),
				row.Discharged, row.OnQueries, row.DischargePct(),
				row.OffClauses, row.OnClauses, -row.ClauseReductionPct(),
				row.Bits, row.Invariants, row.Mined, row.VerdictMatch)
		}
	}
	return res, nil
}

// RenderAbsint prints the ablation in a table plus the aggregate
// verdict line.
func RenderAbsint(w io.Writer, res *AbsintResult) {
	header := []string{"Application-BugID", "Off Solver", "On Solver", "Speedup",
		"Discharged", "Clauses off/on", "Bits", "Inv", "Verdict"}
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.App,
			r.OffSolverTime.Round(time.Microsecond).String(),
			r.OnSolverTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", r.Speedup()),
			fmt.Sprintf("%d/%d (%.0f%%)", r.Discharged, r.OnQueries, r.DischargePct()),
			fmt.Sprintf("%d/%d (%+.0f%%)", r.OffClauses, r.OnClauses, -r.ClauseReductionPct()),
			fmt.Sprintf("%d", r.Bits),
			fmt.Sprintf("%d/%d", r.Invariants, r.Mined),
			absintVerdict(r),
		})
	}
	table(w, header, rows)
	fmt.Fprintf(w, "\ncumulative solver time: off %v vs on %v (%.2fx); queries discharged abstractly: %d/%d (%.1f%%); CNF %d vars %d clauses -> %d vars %d clauses (-%.1f%% clauses); bits pinned: %d; static invariants verified: %d/%d mined; verdicts identical: %v\n",
		res.TotalOff.Round(time.Microsecond), res.TotalOn.Round(time.Microsecond),
		res.Speedup(), res.TotalDischarged, res.TotalQueries, res.DischargePct(),
		res.TotalOffVars, res.TotalOffClauses, res.TotalOnVars, res.TotalOnClauses,
		res.ClauseReductionPct(), res.TotalBits, res.TotalInvariants, res.TotalMined,
		res.AllVerdictsMatch)
}

func absintVerdict(r AbsintRow) string {
	switch {
	case r.FailReason != "":
		return "ERROR: " + r.FailReason
	case !r.VerdictMatch:
		return "MISMATCH"
	}
	return "match"
}
