// Telemetry plumbing for the ER pipeline: per-stage latency
// histograms, outcome counters, and the nested span tree of a
// reconstruction session. Everything here is nil-safe — a pipeline
// configured without Config.Telemetry/Config.Tracer pays one
// predicted nil-check per stage, which is what keeps tracing within
// its 5% budget. The repository benchmark measures that budget as
// trace_overhead_pct: traced against untraced units of the same run.

package core

import (
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// pipelineTelemetry caches the registry series one pipeline updates;
// resolving them once in NewPipeline keeps Feed free of map lookups.
// Without a registry every series is nil, and nil series are no-ops,
// so instrumentation sites in Feed need no "telemetry enabled?"
// branches.
type pipelineTelemetry struct {
	occurrences *telemetry.Counter
	iterations  *telemetry.Counter
	stalls      *telemetry.Counter
	reproduced  *telemetry.Counter
	verified    *telemetry.Counter
	failed      *telemetry.Counter
	sites       *telemetry.Counter
	recordBytes *telemetry.Counter

	shepherd   *telemetry.Histogram
	solve      *telemetry.Histogram
	keyselect  *telemetry.Histogram
	instrument *telemetry.Histogram
	verify     *telemetry.Histogram

	// er_solver_stage_seconds series.
	arrayElim *telemetry.Histogram
	blast     *telemetry.Histogram
	cdcl      *telemetry.Histogram
}

// observeSolverStages records one shepherded run's solver time split
// by solver stage.
func (t *pipelineTelemetry) observeSolverStages(st symex.RunStats) {
	t.arrayElim.ObserveDuration(st.ArrayElimTime)
	t.blast.ObserveDuration(st.BlastTime)
	t.cdcl.ObserveDuration(st.CDCLTime)
}

// StageHistogram resolves the shared per-stage latency histogram —
// the one metric every layer (core, fleet drivers, CLIs) reports
// reconstruction-loop latencies through.
func StageHistogram(reg *telemetry.Registry, stage string) *telemetry.Histogram {
	return reg.Histogram("er_core_stage_seconds",
		"latency of each ER reconstruction stage", nil, telemetry.L("stage", stage))
}

// solverStageHistogram resolves the per-run solver time of one solver
// stage. It is a family of its own: the solve stage of
// er_core_stage_seconds already holds the total.
func solverStageHistogram(reg *telemetry.Registry, stage string) *telemetry.Histogram {
	return reg.Histogram("er_solver_stage_seconds",
		"solver wall time per shepherded run, by solver stage", nil, telemetry.L("stage", stage))
}

// newPipelineTelemetry resolves the pipeline's series in reg; a nil
// reg leaves them all nil.
func newPipelineTelemetry(reg *telemetry.Registry) pipelineTelemetry {
	return pipelineTelemetry{
		occurrences: reg.Counter("er_core_occurrences_total", "matching failure occurrences fed to pipelines"),
		iterations:  reg.Counter("er_core_iterations_total", "analysis iterations completed"),
		stalls:      reg.Counter("er_core_stalls_total", "iterations that stalled on a solver budget"),
		reproduced:  reg.Counter("er_core_reproduced_total", "sessions that generated a test case"),
		verified:    reg.Counter("er_core_verified_total", "sessions whose test case re-triggered the signature"),
		failed:      reg.Counter("er_core_failed_total", "sessions that ended without reproducing"),
		sites:       reg.Counter("er_core_recording_sites_total", "key data value recording sites instrumented"),
		recordBytes: reg.Counter("er_core_recording_bytes_total", "estimated per-occurrence recording cost instrumented"),

		shepherd:   StageHistogram(reg, "shepherd"),
		solve:      StageHistogram(reg, "solve"),
		keyselect:  StageHistogram(reg, "keyselect"),
		instrument: StageHistogram(reg, "instrument"),
		verify:     StageHistogram(reg, "verify"),

		arrayElim: solverStageHistogram(reg, "arrayelim"),
		blast:     solverStageHistogram(reg, "blast"),
		cdcl:      solverStageHistogram(reg, "cdcl"),
	}
}

// Span returns the pipeline's root reconstruction span (nil without
// Config.Tracer). Drivers attach their own stage children to it —
// Reproduce and the fleet runner add reoccurrence-wait spans — so
// one tree tells the whole story.
func (p *Pipeline) Span() *telemetry.Span { return p.root }

// endRoot closes the root span with the session verdict; idempotent
// via Span.End.
func (p *Pipeline) endRoot() {
	if p.root == nil {
		return
	}
	p.root.SetAttr("occurrences", p.rep.Occurrences)
	p.root.SetAttr("iterations", len(p.rep.Iterations))
	p.root.SetAttr("reproduced", p.rep.Reproduced)
	p.root.SetAttr("verified", p.rep.Verified)
	if p.rep.FailReason != "" {
		p.root.SetAttr("fail_reason", p.rep.FailReason)
	}
	p.root.End()
}

// Abort ends the pipeline on a driver-side terminal condition (the
// reoccurrence source failing, the fleet shutting down): it trips the
// pipeline-wide cancellation flag — so an in-flight solve, observed on
// its next budget spend rather than at the old 256-step deadline-check
// cadence, returns Unknown promptly — and closes the span tree with
// reason as a root attribute. Idempotent and nil-safe; on pipelines
// that ended normally only the (now moot) cancellation remains, their
// root having already closed.
//
// The cancellation itself is safe from any goroutine, including while
// the driver is blocked inside Feed; the span cleanup assumes the usual
// single-driver discipline.
func (p *Pipeline) Abort(reason string) {
	if p == nil {
		return
	}
	p.stop.Cancel()
	if p.root == nil {
		return
	}
	p.root.SetAttr("abort", reason)
	p.endRoot()
}

// solverVerdict maps a shepherded-execution outcome onto the solver
// verdict the final query returned — the span attribute the
// introspection endpoint keys on.
func solverVerdict(st symex.Status) string {
	switch st {
	case symex.StatusCompleted:
		return "sat"
	case symex.StatusStalled:
		return "unknown"
	case symex.StatusDiverged:
		return "unsat"
	default:
		return "error"
	}
}
