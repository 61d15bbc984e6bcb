// Package er is the public facade of the Execution Reconstruction
// library — a Go reproduction of "Execution Reconstruction:
// Harnessing Failure Reoccurrences for Failure Reproduction"
// (PLDI 2021).
//
// The library reproduces production failures from hardware-style
// control-flow traces: programs written in the bundled mini-C dialect
// (minc) run on a deterministic virtual machine whose conditional
// branches, indirect calls, returns, and scheduling boundaries stream
// into a PT-like ring buffer. When a run fails, shepherded symbolic
// execution follows the trace, and — when the constraint solver
// stalls — key data value selection picks a minimal set of values to
// record via ptwrite instrumentation on the next failure
// reoccurrence, iterating until a concrete, verified,
// failure-reproducing test case is generated.
//
// Quick start:
//
//	mod, err := er.Compile("demo", src)          // minc → IR
//	report, err := er.Reproduce(mod, failing, 1, er.Options{})
//	if report.Reproduced {
//	    fmt.Println(report.TestCase.Streams)     // generated inputs
//	}
//
// Fleet scale: RunFleet deploys many applications across simulated
// production machines that ship failure traces into a concurrent
// ingestion/triage subsystem (internal/fleet); distinct failures are
// bucketed by signature and reconstructed by independent, concurrent
// ER pipelines.
//
// The subsystems are importable directly for finer control:
// internal/vm (the machine), internal/pt (traces), internal/symex
// (shepherded symbolic execution), internal/keyselect (key data value
// selection), internal/core (the iterative loop), internal/fleet
// (ingestion and triage), internal/bench (the paper's experiments).
package er

import (
	"fmt"
	"io"

	"execrecon/internal/absint"
	"execrecon/internal/core"
	"execrecon/internal/dataflow"
	"execrecon/internal/fleet"
	"execrecon/internal/invariants"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// Re-exported core types. Module is the compiled program; Workload
// supplies program inputs (and is the shape of generated test cases);
// Failure is a failure signature; Report describes a reproduction
// session.
type (
	// Module is a compiled program in the library's register IR.
	Module = ir.Module
	// Workload is a set of per-tag input streams.
	Workload = vm.Workload
	// Failure is a failure signature (kind, program counter, stack).
	Failure = vm.Failure
	// Report is the outcome of a reproduction session.
	Report = core.Report
	// RunResult is the outcome of one concrete execution.
	RunResult = vm.Result
	// Trace is a decoded control-flow/data trace.
	Trace = pt.Trace
	// Observation is one invariant-engine program-point sample.
	Observation = invariants.Obs
	// InvariantSet is a set of likely invariants.
	InvariantSet = invariants.Set
	// Violation is an invariant broken by a failing run.
	Violation = invariants.Violation
)

// Options tunes a reproduction session.
type Options struct {
	// QueryBudget bounds each solver query in abstract steps — the
	// analog of the paper's 30-second solver timeout. 0 means
	// unlimited (no stalls, single-occurrence reproduction whenever
	// the solver can finish).
	QueryBudget int64
	// MaxIterations bounds the reoccurrence loop (default 16).
	MaxIterations int
	// RingSize is the trace buffer capacity (default 64 MB).
	RingSize int
	// Telemetry, when set, is the shared metrics registry the session
	// reports into: per-stage latency histograms
	// (er_core_stage_seconds) plus the symbolic executor's and
	// solver's own series. Create one with NewTelemetry and expose it
	// with ServeTelemetry or Telemetry.WritePrometheus.
	Telemetry *Telemetry
	// Tracer, when set, records the session as one nested span tree
	// (reconstruction → iteration → shepherd/solve/keyselect/
	// instrument/verify); retrieve finished trees with Tracer.Recent.
	Tracer *Tracer
	// Log receives progress lines when set.
	Log io.Writer
}

// Compile translates minc source into an executable module.
func Compile(name, src string) (*Module, error) {
	return minc.Compile(name, src)
}

// Finding is one static-analysis lint finding (internal/dataflow).
type Finding = dataflow.Finding

// CompileWithLint is Compile plus the advisory IR lint rules (dead
// stores, cross-block width inconsistencies). The invariant rules
// (maybe-undef, unreachable-block) are always enforced by Compile.
func CompileWithLint(name, src string) (*Module, []Finding, error) {
	return minc.CompileWithLint(name, src)
}

// Lint runs the full IR lint suite over a compiled module: the
// dataflow rules plus the abstract interpreter's provable findings
// (LintProvable).
func Lint(mod *Module) []Finding {
	return append(dataflow.Lint(mod), LintProvable(mod)...)
}

// LintProvable runs only the abstract-interpretation lint rules: a
// whole-module interval + known-bits fixpoint proving out-of-bounds
// accesses, guaranteed arithmetic wrap, and single-outcome computed
// branches. OOB and overflow proofs are error-level (ErrorLevel);
// always-true/false branches stay advisory.
func LintProvable(mod *Module) []Finding {
	return absint.Lint(mod)
}

// ErrorLevel reports whether a lint rule is error-level — a proven
// defect that should fail a lint run — rather than advisory.
func ErrorLevel(rule string) bool { return dataflow.ErrorLevel(rule) }

// NewWorkload returns an empty workload; use Add to fill streams.
func NewWorkload() *Workload { return vm.NewWorkload() }

// Run executes the module's main function once, without monitoring.
func Run(mod *Module, w *Workload, seed int64) *RunResult {
	return vm.New(mod, vm.Config{Input: w, Seed: seed}).Run("main")
}

// RecordTrace executes one monitored run, returning the decoded trace
// and the run result. This is what ER's always-on tracing ships to
// the analysis engine when the run fails.
func RecordTrace(mod *Module, w *Workload, seed int64) (*Trace, *RunResult, error) {
	return new(prod.Recorder).Record(mod, w, seed)
}

// Reproduce runs the full iterative ER loop against a fixed failing
// workload (the simplest reoccurrence model: every production run
// replays this workload). It returns the report with the generated,
// verified test case on success.
func Reproduce(mod *Module, failing *Workload, seed int64, opts Options) (*Report, error) {
	return ReproduceWith(mod, &core.FixedWorkload{Workload: failing, Seed: seed}, opts)
}

// Generator produces the workload and scheduler seed of each
// production run, for reoccurrence models richer than a fixed input.
type Generator = core.WorkloadGen

// ReproduceWith runs the ER loop with a custom production-run
// generator.
func ReproduceWith(mod *Module, gen Generator, opts Options) (*Report, error) {
	return core.Reproduce(core.Config{
		Module:        mod,
		Gen:           gen,
		Symex:         symex.Options{QueryBudget: opts.QueryBudget},
		MaxIterations: opts.MaxIterations,
		RingSize:      opts.RingSize,
		Telemetry:     opts.Telemetry,
		Tracer:        opts.Tracer,
		Log:           opts.Log,
	})
}

// Reoccurrence-source types, for callers that deliver failure
// reoccurrences themselves instead of replaying workloads in-process.
// Occurrence is one delivered reoccurrence; SourceRequest describes
// what the loop needs next; Source is the delivery interface
// (GenSource, the trace archive and fleet buckets implement it).
type (
	Occurrence    = core.Occurrence
	SourceRequest = core.SourceRequest
	Source        = core.ReoccurrenceSource
)

// ReproduceFrom runs the ER loop against a custom reoccurrence
// source.
func ReproduceFrom(mod *Module, src Source, opts Options) (*Report, error) {
	return core.Reproduce(core.Config{
		Module:        mod,
		Source:        src,
		Symex:         symex.Options{QueryBudget: opts.QueryBudget},
		MaxIterations: opts.MaxIterations,
		RingSize:      opts.RingSize,
		Telemetry:     opts.Telemetry,
		Tracer:        opts.Tracer,
		Log:           opts.Log,
	})
}

// Telemetry types, re-exported for callers that observe ER sessions:
// a Telemetry registry collects er_* metric series (scrapeable in
// Prometheus text format); a Tracer records reconstruction sessions as
// nested span trees; a SpanTree is one finished tree.
type (
	Telemetry        = telemetry.Registry
	Tracer           = telemetry.Tracer
	SpanTree         = telemetry.SpanSnapshot
	TelemetryServer  = telemetry.Server
	TelemetryOptions = telemetry.ServerOptions
)

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTracer returns a span tracer retaining the given number of
// finished trees (0 = default).
func NewTracer(keep int) *Tracer { return telemetry.NewTracer(keep) }

// ServeTelemetry serves the live introspection endpoint — GET
// /metrics (Prometheus text format 0.0.4) and GET /debug/er (JSON) —
// on addr ("127.0.0.1:0" binds an ephemeral port; the server reports
// the bound address). Close the returned server when done.
func ServeTelemetry(addr string, opts TelemetryOptions) (*TelemetryServer, error) {
	return telemetry.Serve(addr, opts)
}

// Fleet-scale types: a Fleet runs many FleetApps across simulated
// production machines, triages shipped failure traces into
// per-signature buckets, and reconstructs each distinct failure with
// an independent concurrent ER pipeline. FleetSnapshot is the live
// stats surface (queue depths, drops, per-bucket progress).
type (
	Fleet         = fleet.Fleet
	FleetApp      = fleet.App
	FleetOptions  = fleet.Options
	FleetResult   = fleet.Result
	FleetSnapshot = fleet.Snapshot
)

// NewFleet assembles a fleet (call Start, then Snapshot/Wait).
func NewFleet(apps []FleetApp, opts FleetOptions) (*Fleet, error) {
	return fleet.New(apps, opts)
}

// RunFleet runs a fleet to completion: every distinct failure
// signature is triaged and reconstructed (or given up on), and the
// aggregate result returned.
func RunFleet(apps []FleetApp, opts FleetOptions) (*FleetResult, error) {
	return fleet.Run(apps, opts)
}

// CollectObservations runs the module and gathers function entry/exit
// observations for invariant inference.
func CollectObservations(mod *Module, w *Workload, seed int64) ([]Observation, *RunResult) {
	return invariants.Collect(mod, w, seed)
}

// InferInvariants merges observations from passing runs into a
// likely-invariant set.
func InferInvariants(passingRuns [][]Observation) *InvariantSet {
	return invariants.Infer(passingRuns)
}

// Failure kinds, re-exported for callers that classify outcomes.
const (
	FailNone           = vm.FailNone
	FailAbort          = vm.FailAbort
	FailAssert         = vm.FailAssert
	FailNullDeref      = vm.FailNullDeref
	FailOutOfBounds    = vm.FailOutOfBounds
	FailUseAfterFree   = vm.FailUseAfterFree
	FailDivByZero      = vm.FailDivByZero
	FailDeadlock       = vm.FailDeadlock
	FailDoubleFree     = vm.FailDoubleFree
	FailBadFree        = vm.FailBadFree
	FailStackOverflow  = vm.FailStackOverflow
	FailInputExhausted = vm.FailInputExhausted
)

// Version identifies the library.
const Version = "1.0.0"

// Describe returns a short multi-line description of a report,
// convenient for CLIs and examples.
func Describe(rep *Report) string {
	if rep == nil {
		return "no report"
	}
	if !rep.Reproduced {
		return fmt.Sprintf("not reproduced after %d occurrence(s): %s", rep.Occurrences, rep.FailReason)
	}
	s := fmt.Sprintf("reproduced %v after %d occurrence(s), symbex time %v",
		rep.Failure, rep.Occurrences, rep.TotalSymexTime)
	if rep.Verified {
		s += " (test case verified)"
	}
	return s
}
