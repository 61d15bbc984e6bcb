package fleet

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/absint"
	"execrecon/internal/core"
	"execrecon/internal/dataflow"
	"execrecon/internal/ir"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// App is one application deployed across the fleet. Its machines
// replay the failing workload (each reoccurrence ships a trace blob)
// until the app's failure bucket finishes reconstruction.
type App struct {
	Name   string
	Module *ir.Module
	// Entry is the entry function (default "main").
	Entry string
	// Failing constructs the bug-triggering workload. Machines replay
	// it every production run unless Gen is set.
	Failing func() *vm.Workload
	// Seed is the scheduler seed of failing runs (relevant for
	// multithreaded bugs).
	Seed int64
	// Gen, when set, supplies each machine's n-th production run
	// (workload plus scheduler seed) instead of the fixed Failing
	// replay — the hook for realistic traffic where failing requests
	// arrive embedded in benign load (see prod.Mix). It must be
	// pure/concurrency-safe: machines call it from their own
	// goroutines with their own run counters. At least one of Failing
	// and Gen must be set.
	Gen func(n int) (*vm.Workload, int64)
	// Machines is the number of producer machines running this app
	// (default Options.MachinesPerApp).
	Machines int
	// Symex configures shepherded symbolic execution for this app's
	// pipeline.
	Symex symex.Options
}

// Options tunes the fleet.
type Options struct {
	// Shards is the ingest shard count (default 4).
	Shards int
	// QueueCap is the per-shard ingest capacity (default 256).
	QueueCap int
	// Policy selects overflow behavior (default Backpressure).
	Policy OverflowPolicy
	// Workers is the scheduler worker-pool size: how many ER
	// pipelines run concurrently (default GOMAXPROCS).
	Workers int
	// MachinesPerApp is the default producer count per app
	// (default 2).
	MachinesPerApp int
	// PendingCap bounds each bucket's reoccurrence queue
	// (default 64).
	PendingCap int
	// RingSize is the machines' per-run trace buffer
	// (default prod.MachineRingSize).
	RingSize int
	// MaxIterations bounds each pipeline's reoccurrence loop
	// (default 16).
	MaxIterations int
	// Pace spaces each machine's production runs (default 1ms),
	// modelling request arrival rather than a busy loop.
	Pace time.Duration
	// ExpectFailures is how many distinct failure signatures the
	// fleet waits to resolve before shutting down (default: one per
	// app).
	ExpectFailures int
	// Timeout bounds the whole fleet run (default 2 minutes;
	// negative disables).
	Timeout time.Duration
	// Absint enables the abstract-interpretation layer in every
	// bucket pipeline: solver pre-discharge + narrowed blasting, and
	// verified static invariant mining on reproduction. Registered
	// apps additionally get an upfront provable-lint pass whose
	// error-level proof count lands on er_absint_lint_proofs_total.
	Absint bool
	// AbsintWiden overrides the widening threshold (0 = default).
	AbsintWiden int
	// Store, when set, is the persistent trace archive: triage
	// appends every ingested reoccurrence to it (delta-compressed
	// against the bucket's reference trace), occurrences that overflow
	// a bucket's in-RAM pending queue spill to it instead of being
	// dropped (the pipeline replays them from disk when the live queue
	// runs dry), and buckets retire their archive key on resolution so
	// compaction can reclaim interior records. Nil disables archival:
	// hot traces live only in RAM and overflow drops, the previous
	// behavior.
	Store *tracestore.Store
	// Remote, when set, switches the fleet to remote-node mode: no
	// in-process pipeline workers run. Ingest still interns buckets
	// and banks every reoccurrence in the Store (which becomes the
	// durable source of truth and is therefore required), but instead
	// of scheduling a local pipeline, new buckets are handed to the
	// dispatcher — the cluster coordinator leases them to triage
	// nodes, which replay the banked occurrences over the wire and
	// report back through Rollout and ResolveBucket. Occurrences are
	// never queued in RAM in this mode; the archive is the only
	// delivery path, which is what makes a node crash recoverable.
	Remote RemoteTriage
	// Telemetry, when set, is the shared metrics registry the whole
	// subsystem reports into: fleet-level gauges/counters
	// (er_fleet_*), each bucket pipeline's core stage histograms and
	// outcome counters (er_core_*), the symbolic executor's series
	// (er_symex_*/er_absint_*), and — when Store is set — the
	// archive's er_tracestore_* series.
	// Nil disables collection.
	Telemetry *telemetry.Registry
	// Tracer, when set, records each bucket pipeline's reconstruction
	// as a nested span tree; the fleet attaches its own
	// reoccurrence-wait and decode children. Recent finished trees are
	// exposed on the introspection endpoint's /debug/er.
	Tracer *telemetry.Tracer
	// Journal, when set, receives the fleet's structured events —
	// archive/spill failures that were previously silent log lines —
	// and backs the introspection endpoint's /debug/er/events drain.
	Journal *telemetry.Journal
	// Overhead, when set, is the recording-overhead accountant: every
	// production machine reports its run wall times to it (attributed
	// by app and deployment version), rollouts attribute their
	// recording-set cost, and the introspection endpoint embeds its
	// ledger in /debug/er.
	Overhead *telemetry.Overhead
	// ListenAddr, when non-empty, serves the live introspection
	// endpoint while the fleet runs: GET /metrics (Prometheus text
	// format 0.0.4 of the Telemetry registry) and GET /debug/er (JSON
	// fleet snapshot plus recent span trees). Use "127.0.0.1:0" to
	// bind an ephemeral port; IntrospectionAddr reports the bound
	// address. The listener closes when Wait returns.
	ListenAddr string
	// Pprof additionally mounts net/http/pprof handlers on the
	// introspection endpoint (/debug/pprof/...).
	Pprof bool
	// Log receives progress lines when set.
	Log io.Writer
}

func (o *Options) withDefaults(apps int) Options {
	v := *o
	if v.Shards <= 0 {
		v.Shards = 4
	}
	if v.QueueCap <= 0 {
		v.QueueCap = 256
	}
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.MachinesPerApp <= 0 {
		v.MachinesPerApp = 2
	}
	if v.PendingCap <= 0 {
		v.PendingCap = 64
	}
	if v.RingSize <= 0 {
		v.RingSize = prod.MachineRingSize
	}
	if v.MaxIterations <= 0 {
		v.MaxIterations = 16
	}
	if v.Pace == 0 {
		v.Pace = time.Millisecond
	}
	if v.ExpectFailures <= 0 {
		v.ExpectFailures = apps
	}
	if v.Timeout == 0 {
		v.Timeout = 2 * time.Minute
	}
	return v
}

// RemoteTriage is the seam of the fleet's remote-node mode: the
// consumer (the cluster coordinator) that dispatches buckets to
// out-of-process triage nodes instead of the in-process worker pool.
// Both callbacks are invoked from ingest drainer goroutines and must
// not block for long — they gate triage throughput.
type RemoteTriage interface {
	// NewBucket is called exactly once per distinct (app, signature)
	// bucket, when its first occurrence is interned.
	NewBucket(b *Bucket)
	// Banked is called after an occurrence is durably appended to the
	// trace archive under the bucket's key with the given sequence
	// number — the signal that wakes a node blocked waiting for the
	// next reoccurrence.
	Banked(b *Bucket, seq uint64)
}

// Fleet wires machines, ingest, triage, and the pipeline scheduler
// together.
type Fleet struct {
	opts   Options
	apps   []App
	byName map[string]*appGroup

	ingest    *Ingest
	table     *Table
	work      chan *Bucket
	completed chan *Bucket

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup // machines + triage + workers
	started  atomic.Bool
	start    time.Time
	resolved atomic.Int64 // completed buckets

	// lintProofs counts error-level provable-lint findings across the
	// registered app modules (computed once in New when Options.Absint
	// is set; surfaced as er_absint_lint_proofs_total).
	lintProofs int64

	// Introspection endpoint (nil unless Options.ListenAddr is set)
	// and the pre-resolved fleet-owned stage histograms.
	server     *telemetry.Server
	waitHist   *telemetry.Histogram
	decodeHist *telemetry.Histogram

	waitOnce sync.Once
	result   *Result
	waitErr  error
}

// appGroup is an app plus its producer machines.
type appGroup struct {
	app      App
	machines []*prod.Machine
}

// Result is the outcome of a fleet run.
type Result struct {
	// Elapsed is the end-to-end wall time from Start to the last
	// bucket resolving.
	Elapsed time.Duration
	// Buckets holds the final per-bucket outcomes in bucket order.
	Buckets []BucketResult
	// Final is the closing stats snapshot.
	Final Snapshot
}

// BucketResult pairs a bucket's final snapshot with its pipeline
// report.
type BucketResult struct {
	BucketSnapshot
	Report *core.Report
}

// New validates the apps and assembles a fleet (not yet running).
func New(apps []App, opts Options) (*Fleet, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("fleet: no applications")
	}
	if opts.Remote != nil && opts.Store == nil {
		return nil, fmt.Errorf("fleet: remote-node mode requires a trace store (the archive is the delivery path)")
	}
	o := opts.withDefaults(len(apps))
	f := &Fleet{
		opts:      o,
		apps:      apps,
		byName:    make(map[string]*appGroup, len(apps)),
		ingest:    NewIngest(o.Shards, o.QueueCap, o.Policy),
		table:     NewTable(o.PendingCap),
		work:      make(chan *Bucket, 4096),
		completed: make(chan *Bucket, 4096),
	}
	machineID := 0
	for i := range apps {
		a := apps[i]
		if a.Name == "" {
			return nil, fmt.Errorf("fleet: app %d has no name", i)
		}
		if _, dup := f.byName[a.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate app %q", a.Name)
		}
		if a.Module == nil {
			return nil, fmt.Errorf("fleet: app %q has no module", a.Name)
		}
		if a.Failing == nil && a.Gen == nil {
			return nil, fmt.Errorf("fleet: app %q has no failing workload or generator", a.Name)
		}
		g := &appGroup{app: a}
		n := a.Machines
		if n <= 0 {
			n = o.MachinesPerApp
		}
		for m := 0; m < n; m++ {
			gen := a.Gen
			if gen == nil {
				base := a.Failing()
				seed := a.Seed
				gen = func(int) (*vm.Workload, int64) { return base.Clone(), seed }
			}
			mc := &prod.Machine{
				App:      a.Name,
				ID:       machineID,
				Entry:    a.Entry,
				Gen:      gen,
				Sink:     f.ingest,
				RingSize: o.RingSize,
				Pace:     o.Pace,
				Trace:    true,
				Overhead: o.Overhead,
			}
			mc.Deploy(prod.Deployment{Module: a.Module, Version: 0})
			g.machines = append(g.machines, mc)
			machineID++
		}
		f.byName[a.Name] = g
		if o.Absint {
			// Upfront provable lint over each registered module: proven
			// OOB/overflow in deployed code is worth flagging before any
			// failure ever reoccurs.
			for _, fd := range absint.Lint(a.Module, absint.Config{WidenAfter: o.AbsintWiden}) {
				if dataflow.ErrorLevel(fd.Rule) {
					f.lintProofs++
					f.logf("fleet: app %q: %s", a.Name, fd)
				}
			}
		}
	}
	if o.Telemetry != nil {
		f.registerMetrics(o.Telemetry)
		if o.Store != nil {
			o.Store.RegisterMetrics(o.Telemetry)
		}
	}
	return f, nil
}

func (f *Fleet) logf(format string, args ...interface{}) {
	if f.opts.Log != nil {
		fmt.Fprintf(f.opts.Log, format+"\n", args...)
	}
}

// Start spins up the producer machines, the triage drainers (one per
// ingest shard), and the scheduler worker pool.
func (f *Fleet) Start() error {
	if !f.started.CompareAndSwap(false, true) {
		return fmt.Errorf("fleet: already started")
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.start = time.Now()

	if f.opts.ListenAddr != "" {
		srv, err := telemetry.Serve(f.opts.ListenAddr, telemetry.ServerOptions{
			Registry: f.opts.Telemetry,
			Tracer:   f.opts.Tracer,
			Journal:  f.opts.Journal,
			Overhead: f.opts.Overhead,
			Debug:    func() interface{} { return f.Snapshot() },
			Pprof:    f.opts.Pprof,
		})
		if err != nil {
			f.cancel()
			return fmt.Errorf("fleet: introspection endpoint: %w", err)
		}
		f.server = srv
		f.logf("fleet: introspection endpoint on http://%s (/metrics, /debug/er)", srv.Addr())
	}

	for s := 0; s < f.ingest.Shards(); s++ {
		f.wg.Add(1)
		go f.drainShard(s)
	}
	if f.opts.Remote == nil {
		for w := 0; w < f.opts.Workers; w++ {
			f.wg.Add(1)
			go f.worker()
		}
	}
	for _, g := range f.byName {
		for _, m := range g.machines {
			f.wg.Add(1)
			go func(m *prod.Machine) {
				defer f.wg.Done()
				m.Serve(f.ctx)
			}(m)
		}
	}
	return nil
}

// drainShard is the triage consumer of one ingest shard: it interns
// the failure signature (creating a bucket exactly once per distinct
// failure), queues the occurrence for the bucket's pipeline, and
// hands new buckets to the scheduler.
func (f *Fleet) drainShard(s int) {
	defer f.wg.Done()
	sh := f.ingest.Shard(s)
	for {
		select {
		case <-f.ctx.Done():
			return
		case msg := <-sh:
			b, isNew := f.table.Intern(msg.Failure, msg.App)
			if r := f.opts.Remote; r != nil {
				// Remote-node mode: bank the occurrence durably and
				// notify the dispatcher — the archive, not RAM, is the
				// delivery path to the (possibly restarted) node.
				b.occurrences.Add(1)
				if isNew {
					f.logf("fleet: new failure bucket %d (%s): %v [remote]", b.ID, b.App, b.Sig)
					r.NewBucket(b)
				}
				seq, err := f.opts.Store.AppendRing(msg.Failure, tracestore.Meta{
					App: msg.App, Machine: msg.Machine, Version: msg.Version,
					Seed: msg.Seed, Instrs: msg.Instrs,
				}, msg.Ring)
				if err != nil {
					b.badDrops.Add(1)
					// In remote mode the archive is the only delivery
					// path, so a failed append silently loses the
					// occurrence — journal it at error level.
					f.opts.Journal.Log(telemetry.LevelError, "fleet", "archive append failed; occurrence lost",
						telemetry.A("app", b.App), telemetry.A("bucket", b.ID), telemetry.A("err", err))
					f.logf("fleet: bucket %d (%s): archive append: %v", b.ID, b.App, err)
					continue
				}
				r.Banked(b, seq)
				continue
			}
			var seq uint64
			archived := false
			if st := f.opts.Store; st != nil {
				var err error
				seq, err = st.AppendRing(msg.Failure, tracestore.Meta{
					App: msg.App, Machine: msg.Machine, Version: msg.Version,
					Seed: msg.Seed, Instrs: msg.Instrs,
				}, msg.Ring)
				if err != nil {
					f.opts.Journal.Log(telemetry.LevelWarn, "fleet", "archive append failed; occurrence stays RAM-only",
						telemetry.A("app", b.App), telemetry.A("bucket", b.ID), telemetry.A("err", err))
					f.logf("fleet: bucket %d (%s): archive append: %v", b.ID, b.App, err)
				} else {
					archived = true
				}
			}
			b.offerOrSpill(msg, archived, seq)
			if isNew {
				f.logf("fleet: new failure bucket %d (%s): %v", b.ID, b.App, b.Sig)
				select {
				case f.work <- b:
				default:
					// Scheduler queue saturated (4096 distinct
					// in-flight failures); resolve as failed so the
					// fleet still terminates.
					b.state.Store(int32(BucketFailed))
					f.bucketDone(b)
				}
			}
		}
	}
}

// worker runs queued buckets' pipelines to completion, one at a time.
func (f *Fleet) worker() {
	defer f.wg.Done()
	for {
		select {
		case <-f.ctx.Done():
			return
		case b := <-f.work:
			f.runBucket(b)
		}
	}
}

// runBucket drives one bucket's ER pipeline event-driven: each
// delivered reoccurrence advances the pipeline one step, and each
// re-instrumentation is rolled out to the app's machines, whose next
// failing runs ship the richer traces the pipeline asked for.
func (f *Fleet) runBucket(b *Bucket) {
	b.state.Store(int32(BucketRunning))
	g := f.byName[b.App]
	if g == nil {
		f.logf("fleet: bucket %d names unknown app %q; abandoning", b.ID, b.App)
		b.state.Store(int32(BucketFailed))
		f.bucketDone(b)
		return
	}
	p, err := core.NewPipeline(core.Config{
		Module:        g.app.Module,
		Entry:         g.app.Entry,
		Symex:         g.app.Symex,
		MaxIterations: f.opts.MaxIterations,
		RingSize:      f.opts.RingSize,
		Absint:        f.opts.Absint,
		AbsintWiden:   f.opts.AbsintWiden,
		Telemetry:     f.opts.Telemetry,
		Tracer:        f.opts.Tracer,
		Log:           f.opts.Log,
	})
	if err != nil {
		f.logf("fleet: bucket %d (%s): %v", b.ID, b.App, err)
		b.state.Store(int32(BucketFailed))
		f.bucketDone(b)
		return
	}
	for !p.Done() {
		var msg *prod.TraceMsg
		select {
		case <-f.ctx.Done():
			p.Abort("fleet shutdown")
			b.state.Store(int32(BucketFailed))
			f.bucketDone(b)
			return
		case msg = <-b.pending:
		default:
			// The live queue is dry: replay a spilled occurrence from
			// the archive, if any survived an earlier overflow.
			if occ, ok := f.replaySpilled(b, p.Version()); ok {
				f.feedOccurrence(b, g, p, occ)
				continue
			}
			wSpan := p.Span().Child("reoccurrence-wait")
			waitStart := time.Now()
			select {
			case <-f.ctx.Done():
				wSpan.End()
				p.Abort("fleet shutdown")
				b.state.Store(int32(BucketFailed))
				f.bucketDone(b)
				return
			case msg = <-b.pending:
			}
			f.waitHist.Observe(time.Since(waitStart).Seconds())
			wSpan.End()
		}
		if msg.Version != p.Version() {
			// Recorded on an out-of-date deployment (pre-rollout
			// binary still reporting); the trace lacks the
			// recorded values this iteration needs.
			b.staleDrops.Add(1)
			continue
		}
		dSpan := p.Span().Child("decode")
		decodeStart := time.Now()
		occ, err := occurrenceFrom(msg)
		f.decodeHist.Observe(time.Since(decodeStart).Seconds())
		if err != nil {
			dSpan.SetAttr("error", err.Error())
			dSpan.End()
			b.badDrops.Add(1)
			f.logf("fleet: bucket %d (%s): dropping blob: %v", b.ID, b.App, err)
			continue
		}
		if occ.Trace != nil {
			dSpan.SetAttr("events", len(occ.Trace.Events))
		}
		dSpan.End()
		f.feedOccurrence(b, g, p, occ)
	}
	// Resolved: the archive no longer needs every reoccurrence of this
	// failure — retire its bucket so compaction reclaims the interior
	// records (the reference and final occurrence survive as the audit
	// pair).
	if st := f.opts.Store; st != nil {
		st.Retire(tracestore.KeyOf(b.Sig))
	}
	rep := p.Report()
	b.report.Store(rep)
	if rep.Reproduced {
		b.state.Store(int32(BucketReproduced))
	} else {
		b.state.Store(int32(BucketFailed))
	}
	// Retire this app's machines: its failure is resolved, so the
	// fleet stops spending production capacity reproducing it.
	for _, m := range g.machines {
		m.Deploy(prod.Deployment{})
	}
	f.bucketDone(b)
}

// feedOccurrence advances the bucket's pipeline by one reoccurrence
// and rolls out any re-instrumented deployment it produced.
func (f *Fleet) feedOccurrence(b *Bucket, g *appGroup, p *core.Pipeline, occ *core.Occurrence) {
	before := p.Version()
	if _, err := p.Feed(occ); err != nil {
		f.logf("fleet: bucket %d (%s): pipeline: %v", b.ID, b.App, err)
	}
	b.iterations.Store(int32(len(p.Report().Iterations)))
	if p.Version() != before && !p.Done() {
		// Key data values selected: roll the instrumented
		// module out to this app's machines.
		dep := prod.Deployment{Module: p.Deployed(), Version: p.Version()}
		for _, m := range g.machines {
			m.Deploy(dep)
		}
		if f.opts.Overhead != nil {
			// Attribute the new version's recording-set cost
			// (cumulative across the chain) to the overhead ledger.
			sites, cost := 0, int64(0)
			for _, it := range p.Report().Iterations {
				if len(it.Sites) > 0 {
					sites += len(it.Sites)
					cost += it.RecordingCost
				}
			}
			f.opts.Overhead.SetRecordingCost(b.App, p.Version(), sites, cost)
		}
		f.logf("fleet: bucket %d (%s): rolled out instrumented deployment v%d",
			b.ID, b.App, p.Version())
	}
}

// replaySpilled pops spilled archive records until it finds one
// recorded on the pipeline's current deployment version, and rebuilds
// it as a streaming occurrence: the trace decodes straight off the
// segment log (delta ops applied on the fly), never materializing the
// event slice. Stale or unreadable spills are dropped with the same
// accounting as their live counterparts.
func (f *Fleet) replaySpilled(b *Bucket, version int) (*core.Occurrence, bool) {
	st := f.opts.Store
	if st == nil {
		return nil, false
	}
	key := tracestore.KeyOf(b.Sig)
	for {
		seq, ok := b.popSpill()
		if !ok {
			return nil, false
		}
		r, err := st.OpenEvents(key, seq)
		if err != nil {
			b.badDrops.Add(1)
			f.opts.Journal.Log(telemetry.LevelWarn, "fleet", "spilled occurrence unreadable; dropped",
				telemetry.A("app", b.App), telemetry.A("bucket", b.ID),
				telemetry.A("seq", seq), telemetry.A("err", err))
			f.logf("fleet: bucket %d (%s): spilled record %d unreadable: %v", b.ID, b.App, seq, err)
			continue
		}
		info := r.Info()
		if info.Meta.Version != version {
			b.staleDrops.Add(1)
			continue
		}
		if info.Meta.Lost > 0 {
			// Mirror the live path: a wrapped ring lacks its prefix.
			b.badDrops.Add(1)
			continue
		}
		occ := &core.Occurrence{
			Result: &vm.Result{
				Failure: b.Sig,
				Stats:   vm.Stats{Instrs: info.Meta.Instrs},
			},
			Seed: info.Meta.Seed,
		}
		if info.RawLen > 0 {
			occ.Events = r
		}
		b.replayed.Add(1)
		return occ, true
	}
}

// Rollout deploys mod as the named app's next versioned binary across
// its producer machines — the remote-node analog of the rollout a
// local pipeline triggers from feedOccurrence. The cluster coordinator
// calls it when a triage node's pipeline selects key data values.
func (f *Fleet) Rollout(app string, mod *ir.Module, version int) error {
	g := f.byName[app]
	if g == nil {
		return fmt.Errorf("fleet: rollout names unknown app %q", app)
	}
	dep := prod.Deployment{Module: mod, Version: version}
	for _, m := range g.machines {
		m.Deploy(dep)
	}
	f.logf("fleet: app %s: rolled out instrumented deployment v%d [remote]", app, version)
	return nil
}

// ResolveBucket finishes a bucket whose reconstruction ran on a remote
// triage node: it records the report, retires the app's machines and
// the bucket's archive key, and signals completion toward Wait. It
// returns false (and does nothing) if the bucket was already resolved
// — the idempotence a coordinator replaying its commit log relies on.
func (f *Fleet) ResolveBucket(b *Bucket, rep *core.Report) bool {
	if !b.remoteResolved.CompareAndSwap(false, true) {
		return false
	}
	if st := f.opts.Store; st != nil {
		st.Retire(tracestore.KeyOf(b.Sig))
	}
	b.report.Store(rep)
	b.iterations.Store(int32(len(rep.Iterations)))
	if rep.Reproduced {
		b.state.Store(int32(BucketReproduced))
	} else {
		b.state.Store(int32(BucketFailed))
	}
	if g := f.byName[b.App]; g != nil {
		for _, m := range g.machines {
			m.Deploy(prod.Deployment{})
		}
	}
	f.bucketDone(b)
	return true
}

// Submit offers an externally produced trace message to the fleet's
// ingest path — the coordinator's entry point for occurrences shipped
// over the wire (er's client mode) rather than by in-process machines.
// It reports whether ingest accepted the message.
func (f *Fleet) Submit(msg *prod.TraceMsg) bool { return f.ingest.Emit(msg) }

func (f *Fleet) bucketDone(b *Bucket) {
	b.doneAt.Store(time.Now().UnixNano())
	f.resolved.Add(1)
	select {
	case f.completed <- b:
	default:
	}
}

// occurrenceFrom decodes a shipped trace blob into a pipeline
// occurrence.
func occurrenceFrom(msg *prod.TraceMsg) (*core.Occurrence, error) {
	occ := &core.Occurrence{
		Result: &vm.Result{
			Failure: msg.Failure,
			Stats:   vm.Stats{Instrs: msg.Instrs},
		},
		Seed: msg.Seed,
	}
	if msg.Ring == nil {
		return occ, nil // untraced occurrence (deferred-tracing fleet)
	}
	tr, err := pt.Decode(msg.Ring)
	if err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}
	if tr.Truncated {
		return nil, fmt.Errorf("trace ring overflowed (%d bytes lost)", tr.LostBytes)
	}
	occ.Trace = tr
	return occ, nil
}

// Wait blocks until every expected failure resolves (or the timeout
// fires), then shuts the fleet down and returns the aggregate result.
func (f *Fleet) Wait() (*Result, error) {
	f.waitOnce.Do(func() {
		var timeout <-chan time.Time
		if f.opts.Timeout > 0 {
			t := time.NewTimer(f.opts.Timeout)
			defer t.Stop()
			timeout = t.C
		}
		expect := int64(f.opts.ExpectFailures)
		done := 0
	loop:
		for int64(done) < expect {
			select {
			case <-f.completed:
				done++
			case <-timeout:
				f.waitErr = fmt.Errorf("fleet: timed out after %v with %d/%d failures resolved",
					f.opts.Timeout, done, expect)
				break loop
			}
		}
		elapsed := time.Since(f.start)
		f.cancel()
		f.ingest.Close()
		f.wg.Wait()
		f.server.Close()

		res := &Result{Elapsed: elapsed, Final: f.Snapshot()}
		for _, b := range f.table.Buckets() {
			res.Buckets = append(res.Buckets, BucketResult{
				BucketSnapshot: f.snapshotBucket(b),
				Report:         b.report.Load(),
			})
		}
		f.result = res
	})
	return f.result, f.waitErr
}

// Abandon tears the fleet down immediately — machines, drainers, and
// workers stop without waiting for outstanding buckets to resolve.
// It is the crash-simulation path of the cluster tests and the
// shutdown of a coordinator being killed; normal runs use Wait.
func (f *Fleet) Abandon() {
	if !f.started.Load() {
		return
	}
	f.cancel()
	f.ingest.Close()
	f.wg.Wait()
	f.server.Close()
}

// Run is the one-shot convenience: New + Start + Wait.
func Run(apps []App, opts Options) (*Result, error) {
	f, err := New(apps, opts)
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	return f.Wait()
}
