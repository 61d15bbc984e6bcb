package core

import (
	"fmt"

	"execrecon/internal/ir"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// Occurrence is one delivered failure reoccurrence: the trace events
// (nil when tracing was deferred or disabled for this occurrence),
// the run outcome, and the scheduler seed of the failing run. The
// seed is what the loop replays when verifying a generated test case,
// so that multithreaded failures verify under the interleaving that
// produced them.
//
// Events is consumed once by the pipeline's symbolic executor. It is
// a pt.Cursor over an in-memory decoded trace, or a streaming source
// such as a tracestore reader that delta-reconstructs and decodes an
// archived blob incrementally without holding the full event slice.
type Occurrence struct {
	Events pt.EventSource
	Result *vm.Result
	Seed   int64
}

// traced reports whether the occurrence carries trace data.
func (o *Occurrence) traced() bool { return o.Events != nil }

// SourceRequest describes what the loop needs next from a
// reoccurrence source: a failure matching Signature (nil until the
// first occurrence pins it), executed on the currently Deployed
// (possibly instrumented) module, with or without tracing.
type SourceRequest struct {
	// Deployed is the module production must run — the pristine
	// program on the first iteration, the ptwrite-instrumented one
	// after key data value selection.
	Deployed *ir.Module
	// Entry is the entry function (always set by the loop).
	Entry string
	// Traced selects whether the occurrence must carry a decoded
	// trace. False during the deferred-tracing phase (§3.1).
	Traced bool
	// Signature filters reoccurrences; nil accepts any failure.
	Signature *vm.Failure
	// MaxRuns bounds production runs awaited for this occurrence.
	MaxRuns int
	// RingSize is the trace buffer capacity to record with.
	RingSize int
}

// ReoccurrenceSource delivers failure reoccurrences to the ER loop.
// It is the seam between the analysis pipeline and however failures
// actually reoccur: the in-process workload replay of the single-app
// path (GenSource wrapping a WorkloadGen), or a fleet triage bucket
// fed by production machines shipping trace blobs (internal/fleet).
type ReoccurrenceSource interface {
	// Next blocks until the failure reoccurs under req.Deployed and
	// returns the occurrence. Implementations must honor
	// req.Signature (when non-nil, only matching failures are
	// delivered) and req.Traced (when true, the occurrence must
	// carry a complete trace in Occurrence.Events).
	Next(req SourceRequest) (*Occurrence, error)
}

// GenSource adapts a WorkloadGen into a ReoccurrenceSource by running
// production workloads in-process until the failure reoccurs — the
// original single-app reoccurrence model.
type GenSource struct {
	Gen WorkloadGen

	rec    prod.Recorder
	runIdx int
}

// Next implements ReoccurrenceSource.
func (g *GenSource) Next(req SourceRequest) (*Occurrence, error) {
	occ, ring, err := g.Await(req)
	if err != nil || ring == nil {
		return occ, err
	}
	trace, err := pt.Decode(ring)
	if err != nil {
		return nil, fmt.Errorf("core: trace decode: %w", err)
	}
	if trace.Truncated {
		return nil, fmt.Errorf("core: trace ring overflowed (%d bytes lost); increase RingSize", trace.LostBytes)
	}
	occ.Events = pt.NewCursor(trace)
	return occ, nil
}

// Await runs production until a failure matching the request reoccurs
// and returns it untraced, plus, for a traced request, its recorder's
// ring, which the next run overwrites (see prod.Recorder.Run).
func (g *GenSource) Await(req SourceRequest) (*Occurrence, *pt.Ring, error) {
	if g.Gen == nil {
		return nil, nil, fmt.Errorf("core: GenSource has no workload generator")
	}
	maxRuns := req.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 1000
	}
	for tries := 0; tries < maxRuns; tries++ {
		w, seed := g.Gen.Run(g.runIdx)
		g.runIdx++
		res, ring := g.rec.Run(req.Deployed, req.Entry, w, seed, req.Traced, req.RingSize)
		// Benign runs and other bugs are skipped; keep waiting for ours.
		if res.Failure != nil && (req.Signature == nil || res.Failure.SameSignature(req.Signature)) {
			return &Occurrence{Result: res, Seed: seed}, ring, nil
		}
	}
	return nil, nil, fmt.Errorf("core: failure did not reoccur within %d runs", maxRuns)
}

var _ ReoccurrenceSource = (*GenSource)(nil)
