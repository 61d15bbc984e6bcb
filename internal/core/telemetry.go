// Telemetry plumbing for the ER pipeline: per-stage latency
// histograms, outcome counters, and the nested span tree of a
// reconstruction session. Everything here is nil-safe — a pipeline
// configured without Config.Telemetry/Config.Tracer pays one
// predicted nil-check per stage, which is what keeps the telemetry
// overhead budget (< 5%, measured by `erbench -exp telemetry`) honest.

package core

import (
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// Stage names used by the er_core_stage_seconds histogram and the
// span tree. Exported so the bench/CLI layers can render summaries in
// a stable order.
var StageNames = []string{
	"wait", "shepherd", "solve", "keyselect", "instrument", "verify",
}

// pipelineTelemetry caches the registry series one pipeline updates;
// resolving them once in NewPipeline keeps Feed free of map lookups.
// All accessors are nil-receiver-safe and return nil-safe series, so
// instrumentation sites in Feed need no "telemetry enabled?" branches.
type pipelineTelemetry struct {
	cOccurrences *telemetry.Counter
	cIterations  *telemetry.Counter
	cStalls      *telemetry.Counter
	cReproduced  *telemetry.Counter
	cVerified    *telemetry.Counter
	cFailed      *telemetry.Counter
	cSites       *telemetry.Counter
	cRecordBytes *telemetry.Counter

	hShepherd   *telemetry.Histogram
	hSolve      *telemetry.Histogram
	hKeyselect  *telemetry.Histogram
	hInstrument *telemetry.Histogram
	hVerify     *telemetry.Histogram
	hWait       *telemetry.Histogram

	// er_solver_stage_seconds series.
	hArrayElim *telemetry.Histogram
	hBlast     *telemetry.Histogram
	hCDCL      *telemetry.Histogram
}

func (t *pipelineTelemetry) occurrences() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cOccurrences
}

func (t *pipelineTelemetry) iterations() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cIterations
}

func (t *pipelineTelemetry) stalls() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cStalls
}

func (t *pipelineTelemetry) reproduced() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cReproduced
}

func (t *pipelineTelemetry) verified() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cVerified
}

func (t *pipelineTelemetry) failed() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cFailed
}

func (t *pipelineTelemetry) sites() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cSites
}

func (t *pipelineTelemetry) recordBytes() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.cRecordBytes
}

func (t *pipelineTelemetry) shepherd() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hShepherd
}

func (t *pipelineTelemetry) solve() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hSolve
}

func (t *pipelineTelemetry) keyselect() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hKeyselect
}

func (t *pipelineTelemetry) instrument() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hInstrument
}

func (t *pipelineTelemetry) verify() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hVerify
}

func (t *pipelineTelemetry) wait() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.hWait
}

// observeSolverStages records one shepherded run's solver time split
// by solver stage.
func (t *pipelineTelemetry) observeSolverStages(st symex.RunStats) {
	if t == nil {
		return
	}
	t.hArrayElim.ObserveDuration(st.ArrayElimTime)
	t.hBlast.ObserveDuration(st.BlastTime)
	t.hCDCL.ObserveDuration(st.CDCLTime)
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

func newPipelineTelemetry(reg *telemetry.Registry) *pipelineTelemetry {
	if reg == nil {
		return nil
	}
	t := &pipelineTelemetry{
		cOccurrences: reg.Counter("er_core_occurrences_total", "matching failure occurrences fed to pipelines"),
		cIterations:  reg.Counter("er_core_iterations_total", "analysis iterations completed"),
		cStalls:      reg.Counter("er_core_stalls_total", "iterations that stalled on a solver budget"),
		cReproduced:  reg.Counter("er_core_reproduced_total", "sessions that generated a test case"),
		cVerified:    reg.Counter("er_core_verified_total", "sessions whose test case re-triggered the signature"),
		cFailed:      reg.Counter("er_core_failed_total", "sessions that ended without reproducing"),
		cSites:       reg.Counter("er_core_recording_sites_total", "key data value recording sites instrumented"),
		cRecordBytes: reg.Counter("er_core_recording_bytes_total", "estimated per-occurrence recording cost instrumented"),

		hShepherd:   StageHistogram(reg, "shepherd"),
		hSolve:      StageHistogram(reg, "solve"),
		hKeyselect:  StageHistogram(reg, "keyselect"),
		hInstrument: StageHistogram(reg, "instrument"),
		hVerify:     StageHistogram(reg, "verify"),
		hWait:       StageHistogram(reg, "wait"),

		hArrayElim: solverStageHistogram(reg, "arrayelim"),
		hBlast:     solverStageHistogram(reg, "blast"),
		hCDCL:      solverStageHistogram(reg, "cdcl"),
	}
	return t
}

// Span returns the pipeline's root reconstruction span (nil without
// Config.Tracer). Drivers attach their own stage children to it —
// the fleet scheduler adds ingest/decode spans, Reproduce adds
// reoccurrence-wait spans — so one tree tells the whole story.
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
