// Package symex implements shepherded symbolic execution (§3.2): it
// re-executes a program symbolically along the control-flow trace
// recorded in production, so no path search ever happens. Program
// inputs become free bitvector variables; every recorded branch
// outcome, indirect-call target, and ptwrite data value adds a
// constraint binding those variables; and memory is modelled at
// object granularity with byte arrays, invoking the constraint solver
// whenever a symbolic address must be resolved to concrete objects —
// exactly the points where the paper's stalls arise. When the trace is
// fully consumed the engine applies the failure condition itself
// (assertion negation, out-of-bounds offset, NULL object, zero
// divisor, …) and asks the solver for a model, which it converts into
// a concrete, replayable test case.
package symex

import (
	"io"
	"time"

	"execrecon/internal/dataflow"
	"execrecon/internal/expr"
	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/solver"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// Status is the outcome of a shepherded run.
type Status int

// Shepherded execution outcomes.
const (
	// StatusCompleted: the failure point was reached and a
	// satisfying test case was generated.
	StatusCompleted Status = iota
	// StatusStalled: a solver query exhausted its budget — the
	// "solver timeout" of §4. The path constraint gathered so far
	// is available for key data value selection.
	StatusStalled
	// StatusDiverged: the symbolic execution contradicted the trace
	// (internal error or corrupted trace).
	StatusDiverged
	// StatusError: an unrecoverable engine error.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusStalled:
		return "stalled"
	case StatusDiverged:
		return "diverged"
	default:
		return "error"
	}
}

// Options configures the engine.
type Options struct {
	// QueryBudget bounds each solver query in abstract steps; an
	// exhausted query is a stall. Zero means unlimited.
	QueryBudget int64
	// MaxInstrs bounds symbolic execution length (default 100M).
	MaxInstrs int64
	// ProgressEvery records a progress sample each N instructions
	// (0 disables); used by the Fig 5 experiment.
	ProgressEvery int64
	// Stop, when set, cancels in-flight solver queries promptly: the
	// flag is observed on every budget spend. Pipelines wire their
	// abort flag here.
	Stop *solver.Cancel
	// Slice supplies the static backward failure slice of the module
	// (dataflow.Analyze); core.Pipeline always sets it. Instructions
	// statically proved unable to influence any failure condition are
	// executed concretely or skipped instead of symbolically; the
	// gathered path constraint is identical to a full run's. Nil means
	// full symbolic stepping, the reference the slice differential and
	// parity tests compare against.
	Slice *dataflow.Analysis
	// Metrics, when set, receives the engine's dispatch and solver
	// counters (er_symex_*) at the end of each Run — the RunStats
	// struct stays the per-run view, the registry the fleet-wide
	// accumulation. The engine touches the registry exactly once per
	// run, so the hot stepping loop is unaffected.
	Metrics *telemetry.Registry
}

// SiteKey identifies an instruction (a potential recording site).
type SiteKey struct {
	Func    string
	InstrID int32
}

// SiteStats carries per-site dynamic information for cost estimation.
type SiteStats struct {
	Count int64    // dynamic executions observed in the trace
	Width ir.Width // value width recorded at this site
	Line  int32
}

// ObjectState describes a memory object's final symbolic array, used
// by constraint-graph analysis to find write chains and object sizes.
type ObjectState struct {
	Label string
	Size  uint64
	Arr   *expr.Expr
	// Writes counts symbolic-index stores applied to the object.
	Writes int
}

// InputRecord describes one consumed program input, in consumption
// order. The generated test case assigns one value per record.
type InputRecord struct {
	Tag   string
	Width ir.Width
	Var   string
}

// ProgressPoint samples symbolic execution progress over wall time.
type ProgressPoint struct {
	Instrs  int64
	Elapsed time.Duration
}

// RunStats summarizes engine work.
type RunStats struct {
	Instrs int64
	// SymSteps counts instructions executed through the full symbolic
	// dispatch; ConcSteps counts instructions handled by the
	// slice-pruned fast path (Options.Slice). Without a slice every
	// instruction is a SymStep.
	SymSteps      int64
	ConcSteps     int64
	SolverQueries int64
	SolverSteps   int64
	// SolverTime is the cumulative wall time spent inside solver
	// queries.
	SolverTime time.Duration
	// ArrayElimTime, BlastTime and CDCLTime split SolverTime by
	// solver stage (solver.Stats); they sum to at most SolverTime.
	ArrayElimTime time.Duration
	BlastTime     time.Duration
	CDCLTime      time.Duration
	// SATVars/SATClauses accumulate the CNF size reported by every
	// query: the total blasted volume.
	SATVars    int64
	SATClauses int64
	Elapsed    time.Duration
	PCSize     int
	GraphNodes int
}

// Result is the outcome of a shepherded symbolic execution.
type Result struct {
	Status      Status
	StallReason string
	Err         error

	// PathConstraint is the constraint set gathered up to
	// completion or the stall point.
	PathConstraint []*expr.Expr
	// Builder interns all expressions in PathConstraint.
	Builder *expr.Builder
	// TestCase is the generated failure-reproducing workload
	// (StatusCompleted only).
	TestCase *vm.Workload
	Model    *expr.Assignment
	Inputs   []InputRecord
	Objects  []ObjectState
	// ExprSites maps expression node IDs to the instruction that
	// defined them, and Sites carries those sites' dynamic stats —
	// the raw material of key data value selection.
	ExprSites map[uint64]SiteKey
	Sites     map[SiteKey]*SiteStats
	// StallExpr is the expression whose concretization query
	// exhausted the solver budget, when the stall happened at a
	// symbolic memory access rather than at the final query.
	StallExpr *expr.Expr
	Progress  []ProgressPoint
	Stats     RunStats
}

// DumpConstraints writes the gathered path constraint as an SMT-LIB 2
// script, for cross-checking with external solvers or inspecting a
// stall.
func (r *Result) DumpConstraints(w io.Writer) error {
	return expr.WriteSMTLIB(w, r.PathConstraint)
}

// Engine shepherds one module along one trace. Engines are
// single-use.
type Engine struct {
	mod  *ir.Module
	opts Options
	an   *dataflow.Analysis

	b   *expr.Builder
	sol *solver.Solver

	threads []*sthread
	objs    []*sobj
	mus     map[uint64]int
	cursor  pt.EventSource
	failure *vm.Failure

	pc        []*expr.Expr
	inputs    []InputRecord
	inputSeq  int
	exprSites map[uint64]SiteKey
	sites     map[SiteKey]*SiteStats

	instrs     int64
	symSteps   int64
	concSteps  int64
	satVars    int64
	satClauses int64
	queries    int64
	qsteps     int64
	qtime      time.Duration
	qelim      time.Duration
	qblast     time.Duration
	qcdcl      time.Duration
	start      time.Time
	progress   []ProgressPoint
	stallExpr  *expr.Expr

	res *Result
}

type sthreadState uint8

const (
	sRunnable sthreadState = iota
	sBlockedLock
	sBlockedJoin
	sDone
)

type sthread struct {
	id      int
	stack   []*sframe
	state   sthreadState
	waitMu  uint64
	waitTid int
	// sinceEvent mirrors the VM's instructions-since-last-event
	// counter used by PGD pause markers.
	sinceEvent uint64
}

type sframe struct {
	fn       *ir.Func
	regs     []*expr.Expr
	blk, ii  int
	frameObj uint32
	retDst   int

	// Slice-pruned stepping state (Options.Slice only). fa is the
	// function's static analysis; conc/cvals hold registers computed
	// natively by the fast path — regs[r] == nil && conc[r] means the
	// register's value is the constant cvals[r], materialised as an
	// expression only when a symbolic-path instruction reads it.
	fa    *dataflow.FuncAnalysis
	conc  []bool
	cvals []uint64
}

type sobj struct {
	label string
	arr   *expr.Expr
	// size is the object's byte size as a 64-bit expression; heap
	// objects allocated with input-dependent sizes stay symbolic,
	// avoiding premature concretization that could contradict later
	// trace constraints.
	size   *expr.Expr
	freed  bool
	heap   bool
	writes int // symbolic-index stores
}

// sizeHint returns a concrete magnitude for chain ranking: the exact
// size when known, else a large placeholder.
func (o *sobj) sizeHint() uint64 {
	if o.size != nil && o.size.IsConst() {
		return o.size.Val
	}
	return 1 << 16
}

// New prepares an engine to reconstruct the given failure from a
// fully decoded in-memory trace.
func New(mod *ir.Module, trace *pt.Trace, failure *vm.Failure, opts Options) *Engine {
	return NewFromEvents(mod, pt.NewCursor(trace), failure, opts)
}

// NewFromEvents prepares an engine that shepherds execution along the
// events delivered by src — either an in-memory pt.Cursor or a
// streaming source such as a pt.StreamDecoder over an archived trace
// (internal/tracestore), which never materializes the full event
// slice. The engine reads each event's fields before advancing the
// source again, so streaming sources' per-packet event buffers are
// safe.
func NewFromEvents(mod *ir.Module, src pt.EventSource, failure *vm.Failure, opts Options) *Engine {
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 100_000_000
	}
	b := expr.NewBuilder()
	e := &Engine{
		mod:  mod,
		opts: opts,
		an:   opts.Slice,
		b:    b,
		sol: solver.New(b, solver.Options{
			MaxSteps: opts.QueryBudget,
			Validate: false,
			Stop:     opts.Stop,
		}),
		mus:       make(map[uint64]int),
		cursor:    src,
		failure:   failure,
		exprSites: make(map[uint64]SiteKey),
		sites:     make(map[SiteKey]*SiteStats),
	}
	// Object 0 is NULL.
	e.objs = append(e.objs, &sobj{label: "<null>"})
	zero8 := b.Const(0, 8)
	for _, g := range mod.Globals {
		arr := b.ConstArray(zero8, 32)
		for i, bv := range g.Init {
			if bv != 0 {
				arr = b.Store(arr, b.Const(uint64(i), 32), b.Const(uint64(bv), 8))
			}
		}
		e.objs = append(e.objs, &sobj{label: "g:" + g.Name, arr: arr, size: b.Const(uint64(g.Size), 64)})
	}
	return e
}

// stallError signals a solver budget exhaustion inside the step
// functions.
type stallError struct{ reason string }

func (s *stallError) Error() string { return "symex stall: " + s.reason }

// divergeError signals trace mismatch.
type divergeError struct{ reason string }

func (d *divergeError) Error() string { return "symex divergence: " + d.reason }

// Run performs the shepherded execution.
func (e *Engine) Run(entry string) *Result {
	e.start = time.Now()
	res := &Result{
		Builder:   e.b,
		ExprSites: e.exprSites,
		Sites:     e.sites,
	}
	e.res = res
	err := e.run(entry)
	e.sol.Release()
	res.StallExpr = e.stallExpr
	res.PathConstraint = e.pc
	res.Inputs = e.inputs
	res.Progress = e.progress
	for _, o := range e.objs[1:] {
		res.Objects = append(res.Objects, ObjectState{
			Label: o.label, Size: o.sizeHint(), Arr: o.arr, Writes: o.writes,
		})
	}
	res.Stats = RunStats{
		Instrs:        e.instrs,
		SymSteps:      e.symSteps,
		ConcSteps:     e.concSteps,
		SolverQueries: e.queries,
		SolverSteps:   e.qsteps,
		SolverTime:    e.qtime,
		ArrayElimTime: e.qelim,
		BlastTime:     e.qblast,
		CDCLTime:      e.qcdcl,
		SATVars:       e.satVars,
		SATClauses:    e.satClauses,
		Elapsed:       time.Since(e.start),
		PCSize:        len(e.pc),
		GraphNodes:    e.b.NumNodes(),
	}
	switch x := err.(type) {
	case nil:
		res.Status = StatusCompleted
	case *stallError:
		res.Status = StatusStalled
		res.StallReason = x.reason
	case *divergeError:
		res.Status = StatusDiverged
		res.Err = x
	default:
		res.Status = StatusError
		res.Err = err
	}
	e.reportMetrics(res)
	return res
}

// reportMetrics accumulates the run's counters into the shared
// registry (no-op without Options.Metrics).
func (e *Engine) reportMetrics(res *Result) {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("er_symex_runs_total",
		"shepherded symbolic executions by outcome",
		telemetry.L("status", res.Status.String())).Inc()
	reg.Counter("er_symex_instrs_total",
		"instructions shepherded").Add(res.Stats.Instrs)
	reg.Counter("er_symex_sym_steps_total",
		"instructions executed through the full symbolic dispatch").Add(res.Stats.SymSteps)
	reg.Counter("er_symex_conc_steps_total",
		"instructions executed natively by the slice-pruned fast path").Add(res.Stats.ConcSteps)
	reg.Counter("er_symex_solver_queries_total",
		"solver queries issued").Add(res.Stats.SolverQueries)
	reg.Counter("er_symex_solver_steps_total",
		"abstract solver steps spent").Add(res.Stats.SolverSteps)
	reg.Histogram("er_symex_run_seconds",
		"shepherded execution wall time per run", nil).ObserveDuration(res.Stats.Elapsed)
	reg.Histogram("er_symex_solver_seconds",
		"cumulative solver wall time per run", nil).ObserveDuration(res.Stats.SolverTime)
}

// solve runs a solver query over the current path constraint,
// accounting budget and stalls. The path constraint only grows, so
// each query begins with the last one's constraints, and the Solver
// starts from the clauses it blasted for them.
func (e *Engine) solve() (solver.Result, *expr.Assignment, error) {
	e.queries++
	r, m, err := e.sol.Solve(e.pc)
	st := e.sol.LastStats()
	e.qsteps += st.Steps
	e.qtime += st.Elapsed
	e.qelim += st.ArrayElim
	e.qblast += st.Blast
	e.qcdcl += st.CDCL
	e.satVars += int64(st.SATVars)
	e.satClauses += int64(st.SATClauses)
	return r, m, err
}

// concretize returns a concrete value for v consistent with the path
// constraint, adding the binding constraint. Constant expressions are
// free.
func (e *Engine) concretize(v *expr.Expr, what string) (uint64, error) {
	if v.IsConst() {
		return v.Val, nil
	}
	r, m, err := e.solve()
	if err != nil {
		return 0, err
	}
	switch r {
	case solver.ResultSat:
		val, err := m.Eval(v)
		if err != nil {
			return 0, err
		}
		e.pc = append(e.pc, e.b.Eq(v, e.b.Const(val, v.Width)))
		return val, nil
	case solver.ResultUnsat:
		return 0, &divergeError{reason: "path constraint unsatisfiable at " + what}
	default:
		e.stallExpr = v
		return 0, &stallError{reason: "solver timeout concretizing " + what}
	}
}

func (e *Engine) recordProgress() {
	if e.opts.ProgressEvery > 0 && e.instrs%e.opts.ProgressEvery == 0 {
		e.progress = append(e.progress, ProgressPoint{Instrs: e.instrs, Elapsed: time.Since(e.start)})
	}
}

// defineSite remembers that expression v was produced by instruction
// in of function fn, and bumps the site's dynamic count.
func (e *Engine) defineSite(fn *ir.Func, in *ir.Instr, v *expr.Expr, w ir.Width) {
	if v.IsConst() {
		return
	}
	key := SiteKey{Func: fn.Name, InstrID: in.ID}
	st := e.sites[key]
	if st == nil {
		st = &SiteStats{Width: w, Line: in.Line}
		e.sites[key] = st
	}
	st.Count++
	if _, ok := e.exprSites[v.ID()]; !ok {
		e.exprSites[v.ID()] = key
	}
	// The narrow value inside a zero-extension is recordable at the
	// same site (the ptwrite captures the register's low bits), so
	// key selection may pick either form.
	if v.Kind == expr.KZExt {
		if inner := v.Args[0]; !inner.IsConst() {
			if _, ok := e.exprSites[inner.ID()]; !ok {
				e.exprSites[inner.ID()] = key
			}
		}
	}
}
