// Occurrence-driven ER pipeline: the Fig. 2 loop factored so that it
// can be *driven by delivered reoccurrences* instead of pulling runs
// from a workload generator. Reproduce (core.go) wraps a Pipeline and a
// ReoccurrenceSource into the original blocking loop; the fleet
// scheduler (internal/fleet) feeds many Pipelines concurrently, one
// per failure-signature bucket, as trace blobs arrive from production
// machines.

package core

import (
	"fmt"
	"log/slog"
	"time"

	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/pt"
	"execrecon/internal/solver"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// Pipeline is one in-flight reproduction session, advanced one
// occurrence at a time by Feed. It is not safe for concurrent use;
// drive each Pipeline from a single goroutine.
type Pipeline struct {
	cfg Config
	log *slog.Logger

	deployed *ir.Module
	version  int // increments on each re-instrumentation
	rep      *Report
	// an is the static dataflow analysis of the deployed module,
	// recomputed on every re-instrumentation: shepherding prunes
	// instructions outside its backward failure slice.
	an *dataflow.Analysis
	// tel caches the telemetry series this pipeline updates (each nil
	// unless Config.Telemetry is set); root is the session's
	// reconstruction span (nil unless Config.Tracer is set).
	tel  pipelineTelemetry
	root *telemetry.Span
	// stop is the pipeline-wide cancellation flag: Abort trips it, and
	// every solver query the pipeline issues observes it on its next
	// budget spend, not just at the deadline cadence.
	stop      *solver.Cancel
	signature *vm.Failure
	seed      int64 // verification seed (from the first occurrence)
	haveSeed  bool
	deferLeft int
	iters     int
	done      bool
	err       error
}

// NewPipeline validates the configuration and returns a pipeline
// ready to receive occurrences. Config.Gen/Config.Source are not
// required — feeding is the caller's job.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 16
	}
	if cfg.MaxRunsPerIteration == 0 {
		cfg.MaxRunsPerIteration = 1000
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = pt.DefaultRingSize
	}
	if cfg.Module == nil {
		return nil, fmt.Errorf("core: no module")
	}
	if err := cfg.Module.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid module: %w", err)
	}
	var root *telemetry.Span
	if cfg.ParentSpan != nil {
		// Hang the reconstruction under the caller's span (e.g. a triage
		// node's remote replay root) instead of starting a fresh trace.
		root = cfg.ParentSpan.Child("reconstruction", telemetry.A("entry", cfg.Entry))
	} else {
		root = cfg.Tracer.Start("reconstruction", telemetry.A("entry", cfg.Entry))
	}
	p := &Pipeline{
		cfg:       cfg,
		log:       telemetry.OrDiscard(cfg.Logger).With("component", "core"),
		deployed:  cfg.Module,
		rep:       &Report{},
		deferLeft: cfg.DeferTracing,
		tel:       newPipelineTelemetry(cfg.Telemetry),
		root:      root,
		stop:      solver.NewCancel(),
		an:        dataflow.Analyze(cfg.Module),
	}
	return p, nil
}

// Deployed returns the module production must currently run — the
// pristine module before the first stall, the ptwrite-instrumented
// one after each key data value selection.
func (p *Pipeline) Deployed() *ir.Module { return p.deployed }

// Version identifies the current deployment; it starts at 0 and
// increments every time the pipeline re-instruments. Sources that
// ship traces asynchronously use it to discard occurrences recorded
// on an out-of-date binary.
func (p *Pipeline) Version() int { return p.version }

// NeedsTrace reports whether the next occurrence must carry a decoded
// trace (false while deferred-tracing occurrences remain).
func (p *Pipeline) NeedsTrace() bool { return p.deferLeft == 0 }

// Signature returns the pinned failure signature (nil until the first
// occurrence is fed).
func (p *Pipeline) Signature() *vm.Failure { return p.signature }

// Done reports whether the session ended (reproduced, exhausted, or
// errored).
func (p *Pipeline) Done() bool { return p.done }

// Err returns the terminal error, if any.
func (p *Pipeline) Err() error { return p.err }

// Report returns the session report. It is complete once Done.
func (p *Pipeline) Report() *Report { return p.rep }

// Request returns the SourceRequest describing the occurrence the
// pipeline needs next.
func (p *Pipeline) Request() SourceRequest {
	return SourceRequest{
		Deployed:  p.deployed,
		Entry:     p.cfg.Entry,
		Traced:    p.NeedsTrace(),
		Signature: p.signature,
		MaxRuns:   p.cfg.MaxRunsPerIteration,
		RingSize:  p.cfg.RingSize,
	}
}

func (p *Pipeline) fail(format string, args ...interface{}) (bool, error) {
	p.err = fmt.Errorf(format, args...)
	p.rep.FailReason = p.err.Error()
	p.done = true
	p.tel.failed.Inc()
	return true, p.err
}

// Feed advances the session with one delivered occurrence. It returns
// done=true when the session ended; the terminal error (if any)
// mirrors what Reproduce would have returned. Occurrences that do not
// match the pinned signature are ignored (done=false, nil error), so
// sources need not filter perfectly.
func (p *Pipeline) Feed(occ *Occurrence) (bool, error) {
	if p.done {
		return true, p.err
	}
	if occ == nil || occ.Result == nil || occ.Result.Failure == nil {
		return false, nil // benign run; nothing to do
	}
	if p.signature != nil && !occ.Result.Failure.SameSignature(p.signature) {
		return false, nil // a different bug; not ours
	}
	if p.signature == nil {
		p.signature = occ.Result.Failure
		p.rep.Failure = p.signature
		p.rep.TraceInstrs = occ.Result.Stats.Instrs
		p.root.SetAttr("signature", p.signature.Error())
	}
	if !p.haveSeed {
		p.seed = occ.Seed
		p.haveSeed = true
	}
	p.rep.Occurrences++
	p.tel.occurrences.Inc()
	// Every path that terminates the session below must close the root
	// span so the tree publishes to the tracer ring.
	defer func() {
		if p.done {
			p.endRoot()
		}
	}()

	// Deferred-tracing phase: observe, count, do not analyze.
	if p.deferLeft > 0 {
		p.deferLeft--
		p.log.Info("untraced occurrence observed; tracing still deferred", "occurrence", p.rep.Occurrences)
		return false, nil
	}
	if !occ.traced() {
		return p.fail("core: traced occurrence expected but trace missing (occurrence %d)", p.rep.Occurrences)
	}

	it := Iteration{Occurrence: p.rep.Occurrences}
	itSpan := p.root.Child("iteration",
		telemetry.A("occurrence", p.rep.Occurrences),
		telemetry.A("iteration", p.iters+1),
		telemetry.A("version", p.version))
	defer itSpan.End()

	// Offline phase: shepherded symbolic execution.
	sxOpts := p.cfg.Symex
	if sxOpts.Stop == nil {
		sxOpts.Stop = p.stop
	}
	if sxOpts.Slice == nil {
		sxOpts.Slice = p.an
	}
	if sxOpts.Metrics == nil {
		sxOpts.Metrics = p.cfg.Telemetry
	}
	shSpan := itSpan.Child("shepherd")
	eng := symex.NewFromEvents(p.deployed, occ.Events, occ.Result.Failure, sxOpts)
	sres := eng.Run(p.cfg.Entry)
	it.TraceEvents = occ.Events.Pos()
	it.Status = sres.Status
	it.StallReason = sres.StallReason
	it.SymexTime = sres.Stats.Elapsed
	it.SymexInstrs = sres.Stats.Instrs
	it.Queries = sres.Stats.SolverQueries
	it.SolverSteps = sres.Stats.SolverSteps
	it.SolverTime = sres.Stats.SolverTime
	it.GraphNodes = sres.Stats.GraphNodes
	it.SymSteps = sres.Stats.SymSteps
	it.ConcSteps = sres.Stats.ConcSteps
	p.rep.TotalSymexTime += sres.Stats.Elapsed
	p.rep.TotalSolverTime += sres.Stats.SolverTime
	p.rep.TotalSATVars += sres.Stats.SATVars
	p.rep.TotalSATClauses += sres.Stats.SATClauses
	shSpan.SetAttr("status", sres.Status.String())
	shSpan.SetAttr("trace_events", it.TraceEvents)
	shSpan.SetAttr("instrs", sres.Stats.Instrs)
	shSpan.SetAttr("sym_steps", sres.Stats.SymSteps)
	shSpan.SetAttr("conc_steps", sres.Stats.ConcSteps)
	shSpan.SetAttr("queries", sres.Stats.SolverQueries)
	if sres.StallReason != "" {
		shSpan.SetAttr("stall_reason", sres.StallReason)
	}
	// Solving happens inside shepherding, so the solve span's duration
	// is externally metered from the engine's solver wall time rather
	// than clocked here. Its per-stage split rides as attributes, not
	// child spans, so the span's self time stays the whole solve.
	solveSpan := shSpan.Child("solve",
		telemetry.A("verdict", solverVerdict(sres.Status)),
		telemetry.A("steps", sres.Stats.SolverSteps),
	)
	solveSpan.SetAttr("arrayelim_s", sres.Stats.ArrayElimTime.Seconds())
	solveSpan.SetAttr("blast_s", sres.Stats.BlastTime.Seconds())
	solveSpan.SetAttr("cdcl_s", sres.Stats.CDCLTime.Seconds())
	solveSpan.EndAfter(sres.Stats.SolverTime)
	shSpan.End()
	p.tel.shepherd.Observe(sres.Stats.Elapsed.Seconds())
	p.tel.solve.Observe(sres.Stats.SolverTime.Seconds())
	p.tel.observeSolverStages(sres.Stats)

	switch sres.Status {
	case symex.StatusCompleted:
		p.rep.Iterations = append(p.rep.Iterations, it)
		p.rep.Reproduced = true
		p.rep.TestCase = sres.TestCase
		p.tel.iterations.Inc()
		p.tel.reproduced.Inc()
		// Verify: the generated input must reproduce the same failure
		// signature on a fresh concrete run of the pristine module.
		vSpan := itSpan.Child("verify")
		verStart := time.Now()
		ver := vm.New(p.cfg.Module, vm.Config{Input: sres.TestCase.Clone(), Seed: p.seed}).Run(p.cfg.Entry)
		p.rep.Verified = ver.Failure.SameSignature(p.signature)
		p.tel.verify.Observe(time.Since(verStart).Seconds())
		vSpan.SetAttr("verified", p.rep.Verified)
		vSpan.End()
		if p.rep.Verified {
			p.tel.verified.Inc()
		}
		p.log.Info("reproduced", "iteration", p.iters+1,
			"occurrences", p.rep.Occurrences, "verified", p.rep.Verified)
		p.done = true
		return true, nil

	case symex.StatusStalled:
		p.log.Info("stalled; selecting key data values", "iteration", p.iters+1, "reason", sres.StallReason)
		p.tel.iterations.Inc()
		p.tel.stalls.Inc()
		var sites []symex.SiteKey
		var cost int64
		var err error
		ksSpan := itSpan.Child("keyselect")
		selStart := time.Now()
		if p.cfg.RandomSelection {
			sites, cost, err = randomSelection(sres, p.cfg.RandomSeed+int64(p.iters))
		} else {
			var sel *keyselect.Selection
			sel, err = keyselect.Select(sres)
			if err == nil {
				sites, cost = sel.Sites, sel.TotalCostBytes
			}
		}
		it.SelectTime = time.Since(selStart)
		p.tel.keyselect.Observe(it.SelectTime.Seconds())
		ksSpan.SetAttr("sites", len(sites))
		ksSpan.SetAttr("cost_bytes", cost)
		ksSpan.End()
		if err != nil {
			p.rep.Iterations = append(p.rep.Iterations, it)
			return p.fail("core: selection failed: %w", err)
		}
		it.RecordingSites = len(sites)
		it.RecordingCost = cost
		it.Sites = sites
		p.rep.Iterations = append(p.rep.Iterations, it)
		p.tel.sites.Add(int64(len(sites)))
		p.tel.recordBytes.Add(cost)
		inSpan := itSpan.Child("instrument", telemetry.A("sites", len(sites)))
		inStart := time.Now()
		instrumented, err := keyselect.Instrument(p.deployed, sites)
		if err != nil {
			inSpan.End()
			p.tel.failed.Inc()
			p.err = err
			p.rep.FailReason = err.Error()
			p.done = true
			return true, err
		}
		p.deployed = instrumented
		p.version++
		p.an = dataflow.Analyze(instrumented)
		p.tel.instrument.Observe(time.Since(inStart).Seconds())
		inSpan.SetAttr("version", p.version)
		inSpan.End()
		p.log.Info("instrumenting", "iteration", p.iters+1, "sites", len(sites), "cost_bytes", cost)
		p.iters++
		if p.iters >= p.cfg.MaxIterations {
			p.rep.FailReason = fmt.Sprintf("not reproduced within %d iterations", p.cfg.MaxIterations)
			p.done = true
			p.tel.failed.Inc()
		}
		return p.done, nil

	default:
		p.rep.Iterations = append(p.rep.Iterations, it)
		p.rep.FailReason = fmt.Sprintf("symbolic execution %v: %v", sres.Status, sres.Err)
		p.err = fmt.Errorf("core: %s", p.rep.FailReason)
		p.done = true
		p.tel.failed.Inc()
		return true, p.err
	}
}
