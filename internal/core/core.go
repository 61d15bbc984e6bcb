// Package core implements the end-to-end Execution Reconstruction
// loop of Fig. 2: deploy the (possibly instrumented) program in the
// simulated production environment, wait for the failure to reoccur,
// ship the trace to shepherded symbolic execution, and either emit a
// verified failure-reproducing test case or run key data value
// selection, re-instrument, and iterate (§3.3.4).
//
// The loop is factored in two layers. Pipeline (pipeline.go) is the
// analysis state machine, advanced one delivered Occurrence at a
// time; ReoccurrenceSource (source.go) is where occurrences come
// from. Reproduce composes the two into the original blocking loop;
// internal/fleet drives many pipelines concurrently from triaged
// production traffic.
package core

import (
	"fmt"
	"io"
	"time"

	"execrecon/internal/ir"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// WorkloadGen produces the inputs and scheduler seed of each
// production run. Occurrence numbering is 1-based and counts only
// failing runs; generators may interleave benign traffic internally.
type WorkloadGen interface {
	// Run returns the workload and scheduler seed of the n-th
	// production run (0-based).
	Run(n int) (*vm.Workload, int64)
}

// FixedWorkload is a WorkloadGen replaying the same failing input
// every run — the simplest reoccurrence model.
type FixedWorkload struct {
	Workload *vm.Workload
	Seed     int64
}

// Run implements WorkloadGen.
func (f *FixedWorkload) Run(int) (*vm.Workload, int64) {
	return f.Workload.Clone(), f.Seed
}

// Config parameterizes a reproduction session.
type Config struct {
	Module *ir.Module
	Entry  string // defaults to "main"
	// Gen supplies production inputs; at least some runs must fail.
	// Ignored when Source is set.
	Gen WorkloadGen
	// Source supplies failure reoccurrences directly. When nil,
	// Reproduce wraps Gen in a GenSource. Pipelines driven manually
	// via Feed need neither.
	Source ReoccurrenceSource
	// Symex configures shepherded symbolic execution. The
	// QueryBudget plays the role of the paper's 30-second solver
	// timeout.
	Symex symex.Options
	// MaxIterations bounds the reoccurrence loop (default 16).
	MaxIterations int
	// MaxRunsPerIteration bounds production runs awaited per
	// failure reoccurrence (default 1000).
	MaxRunsPerIteration int
	// RingSize is the trace buffer capacity (default 64 MB).
	RingSize int
	// DeferTracing, when positive, leaves control-flow tracing off
	// until the failure has been observed that many times (§3.1:
	// "developers can configure ER to enable tracing only after a
	// failure is observed multiple times"). Untraced failures count
	// toward Occurrences but yield no trace to analyze.
	DeferTracing int
	// Log, when set, receives progress lines.
	Log io.Writer
	// RandomSelection replaces key data value selection with a
	// same-budget random choice — the §5.2 baseline.
	RandomSelection bool
	// RandomSeed seeds the random-selection baseline.
	RandomSeed int64
	// Telemetry, when set, is the shared metrics registry the
	// pipeline reports into: per-stage latency histograms
	// (er_core_stage_seconds{stage=...}) and iteration/outcome
	// counters, plus the symbolic executor's own er_symex_* series
	// (threaded through automatically unless the caller injected its
	// own Symex options).
	// Nil disables collection entirely.
	Telemetry *telemetry.Registry
	// Tracer, when set, records the whole reconstruction as one
	// nested span tree: a root "reconstruction" span with one
	// "iteration" child per analyzed occurrence, each carrying
	// shepherd/solve/keyselect/instrument/verify stage spans and
	// attributes (signature, iteration, recording-set size, solver
	// verdict). Drivers may attach their own children (ingest,
	// decode, reoccurrence-wait) via Pipeline.Span.
	Tracer *telemetry.Tracer
	// ParentSpan, when set with Tracer, makes the pipeline's root
	// "reconstruction" span a child of it instead of a fresh root —
	// how a remote triage node hangs its replay under the
	// coordinator's per-bucket timeline (the caller Ends the parent
	// to publish the tree).
	ParentSpan *telemetry.Span
}

// Iteration reports one pass of the loop.
type Iteration struct {
	Occurrence  int
	TraceEvents int
	TraceBytes  uint64
	Status      symex.Status
	StallReason string
	SymexTime   time.Duration
	SymexInstrs int64
	Queries     int64
	// SolverSteps is the abstract solver work metered during this
	// iteration; SolverTime the wall time spent inside solver queries
	// (a subset of SymexTime).
	SolverSteps int64
	SolverTime  time.Duration
	GraphNodes  int
	SelectTime  time.Duration
	// SymSteps/ConcSteps split the shepherded instruction count into
	// fully symbolic dispatches and natively executed (slice-pruned)
	// ones.
	SymSteps  int64
	ConcSteps int64
	// Recording describes what the next deployment will record.
	RecordingSites int
	RecordingCost  int64
	// Sites lists the selected instrumentation sites (stall iterations
	// only) — the recording set the ablations compare across modes.
	Sites []symex.SiteKey
}

// Report is the outcome of a reproduction session.
type Report struct {
	Reproduced  bool
	Verified    bool
	Occurrences int
	Iterations  []Iteration
	TestCase    *vm.Workload
	Failure     *vm.Failure
	// TotalSymexTime sums shepherded symbolic execution time across
	// iterations ("Symbex Time" of Table 1).
	TotalSymexTime time.Duration
	// TotalSolverTime sums solver query wall time across iterations.
	TotalSolverTime time.Duration
	// TraceInstrs is the dynamic instruction count of the failing
	// execution ("#Instr" of Table 1).
	TraceInstrs int64
	// TotalSATVars/TotalSATClauses accumulate the CNF volume blasted
	// across all solver queries.
	TotalSATVars    int64
	TotalSATClauses int64
	// AbsintDischarged is always zero; it stays only because the
	// benchmark ledger reads it.
	AbsintDischarged int64
	FailReason       string
}

func (c *Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Reproduce runs the ER loop to completion: it awaits reoccurrences
// from the configured source (or workload generator) and feeds them
// to a Pipeline until the session ends.
func Reproduce(cfg Config) (*Report, error) {
	src := cfg.Source
	if src == nil {
		if cfg.Gen == nil {
			return nil, fmt.Errorf("core: no workload generator or reoccurrence source")
		}
		src = &GenSource{Gen: cfg.Gen}
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	waitHist := StageHistogram(cfg.Telemetry, "wait")
	for !p.Done() {
		// The reoccurrence wait is driver time, not pipeline time, so
		// Reproduce owns the span and the stage sample.
		wSpan := p.Span().Child("reoccurrence-wait")
		waitStart := time.Now()
		occ, err := src.Next(p.Request())
		waitHist.Observe(time.Since(waitStart).Seconds())
		wSpan.End()
		if err != nil {
			p.rep.FailReason = err.Error()
			p.Abort(err.Error())
			return p.rep, err
		}
		if _, err := p.Feed(occ); err != nil {
			return p.Report(), err
		}
	}
	return p.Report(), p.Err()
}
