package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/ir"
	"execrecon/internal/prod"
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
	// Workers is the scheduler worker-pool size: how many ER
	// pipelines run concurrently (default GOMAXPROCS).
	Workers int
	// MachinesPerApp is the default producer count per app
	// (default 2).
	MachinesPerApp int
	// Pace spaces each machine's production runs (default 1ms),
	// modelling request arrival rather than a busy loop.
	Pace time.Duration
	// Timeout bounds the whole fleet run (default 2 minutes;
	// negative disables).
	Timeout time.Duration
	// Store is the persistent trace archive, and the one delivery path
	// of reoccurrences: triage appends every ingested occurrence to it,
	// and each bucket's pipeline replays the next matching record from it —
	// this app's, recorded on the pipeline's current deployment, with
	// an unwrapped ring. Records are never removed, so a bucket interned
	// after another app on the same signature resolved still replays
	// them. When nil, the fleet opens a private store in a temporary
	// directory and removes it in Wait or Abandon.
	Store *tracestore.Store
	// Remote, when set, hands buckets to an out-of-process dispatcher
	// instead of the in-process worker pool: no pipeline workers run.
	// Ingest still interns buckets and banks every reoccurrence in the
	// Store, which must then be set, since it outlives the fleet's
	// process and is what makes a node crash recoverable. The cluster
	// coordinator leases the buckets to triage nodes, which replay the
	// banked occurrences over the wire and report back through
	// Rollout and ResolveBucket.
	Remote RemoteTriage
	// Telemetry, when set, is the shared metrics registry the whole
	// subsystem reports into: fleet-level gauges/counters
	// (er_fleet_*), each bucket pipeline's core stage histograms and
	// outcome counters (er_core_*), the symbolic executor's series
	// (er_symex_*), and the archive's er_tracestore_* series.
	// Nil disables collection.
	Telemetry *telemetry.Registry
	// Tracer, when set, records each bucket pipeline's reconstruction
	// as a nested span tree; the fleet attaches its own
	// reoccurrence-wait children. Recent finished trees are exposed on
	// the introspection endpoint's /debug/er.
	Tracer *telemetry.Tracer
	// Logger, when set, receives the fleet's events (new buckets,
	// rollouts, archive failures) with component=fleet, and each
	// bucket pipeline's iteration events with component=core and the
	// bucket's app and id. When its handler is a
	// *telemetry.EventRing, the introspection endpoint serves that
	// ring at /debug/er/events. Nil logs nothing.
	Logger *slog.Logger
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
}

// Ingest sizing: shard count and per-shard capacity. A full shard
// blocks its producers (backpressure), so no occurrence is dropped on
// ingest.
const (
	ingestShards   = 4
	ingestQueueCap = 256
)

func (o *Options) withDefaults() Options {
	v := *o
	v.Logger = telemetry.OrDiscard(v.Logger)
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.MachinesPerApp <= 0 {
		v.MachinesPerApp = 2
	}
	if v.Pace == 0 {
		v.Pace = time.Millisecond
	}
	if v.Timeout == 0 {
		v.Timeout = 2 * time.Minute
	}
	return v
}

// RemoteTriage receives the fleet's triage events: the consumer that
// runs each bucket's reconstruction. The fleet's own worker pool is
// one implementation; the cluster coordinator, which dispatches
// buckets to out-of-process triage nodes, is the other. Both callbacks
// are invoked from ingest drainer goroutines and must not block for
// long — they gate triage throughput.
type RemoteTriage interface {
	// NewBucket is called exactly once per distinct (app, signature)
	// bucket, when its first occurrence is interned.
	NewBucket(b *Bucket)
	// Banked is called after an occurrence is durably appended to the
	// trace archive under the bucket's key with the given sequence
	// number — the signal that wakes a consumer waiting for the next
	// reoccurrence.
	Banked(b *Bucket, seq uint64)
}

// localTriage runs bucket pipelines on the fleet's Runner: NewBucket
// hands a bucket to the workers as a fresh job fed from the archive,
// and Banked wakes it when it is parked.
type localTriage struct{ f *Fleet }

func (l localTriage) NewBucket(b *Bucket) {
	b.feed = archiveFeed{l.f, b}
	select {
	case l.f.work <- &b.Job:
	default:
		// Scheduler queue saturated (4096 distinct in-flight
		// failures); resolve as failed so the fleet still terminates.
		l.f.ResolveBucket(b, &core.Report{Failure: b.Sig, FailReason: "fleet: scheduler queue saturated"})
	}
}

func (l localTriage) Banked(b *Bucket, _ uint64) { l.f.runner.Wake(&b.Job) }

// Fleet wires machines, ingest, triage, and the pipeline scheduler
// together.
type Fleet struct {
	opts   Options
	log    *slog.Logger // opts.Logger with component=fleet
	apps   []App
	byName map[string]*appGroup

	ingest    *Ingest
	table     *Table
	triage    RemoteTriage
	store     *tracestore.Store
	work      chan *Job // never-started buckets
	runner    *Runner
	completed chan *Bucket

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup // machines + triage + workers
	started  atomic.Bool
	start    time.Time
	resolved atomic.Int64 // completed buckets

	// Introspection endpoint (nil unless Options.ListenAddr is set).
	server *telemetry.Server

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
	o := opts.withDefaults()
	f := &Fleet{
		opts:      o,
		log:       o.Logger.With("component", "fleet"),
		apps:      apps,
		byName:    make(map[string]*appGroup, len(apps)),
		ingest:    NewIngest(ingestShards, ingestQueueCap),
		table:     NewTable(),
		triage:    o.Remote,
		store:     o.Store,
		work:      make(chan *Job, 4096),
		runner:    NewRunner(),
		completed: make(chan *Bucket, 4096),
	}
	if f.triage == nil {
		f.triage = localTriage{f}
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
				Pace:     o.Pace,
				Trace:    true,
				Overhead: o.Overhead,
			}
			mc.Deploy(prod.Deployment{Module: a.Module, Version: 0})
			g.machines = append(g.machines, mc)
			machineID++
		}
		f.byName[a.Name] = g
	}
	if o.Telemetry != nil {
		f.registerMetrics(o.Telemetry)
	}
	return f, nil
}

// Start spins up the producer machines, the triage drainers (one per
// ingest shard), and the scheduler worker pool.
func (f *Fleet) Start() error {
	if !f.started.CompareAndSwap(false, true) {
		return fmt.Errorf("fleet: already started")
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.start = time.Now()

	if f.store == nil {
		dir, err := os.MkdirTemp("", "er-fleet-*")
		if err != nil {
			f.cancel()
			return fmt.Errorf("fleet: trace archive: %w", err)
		}
		if f.store, err = tracestore.Open(dir, tracestore.Options{}); err != nil {
			os.RemoveAll(dir)
			f.cancel()
			return fmt.Errorf("fleet: trace archive: %w", err)
		}
	}
	f.store.RegisterMetrics(f.opts.Telemetry)

	if f.opts.ListenAddr != "" {
		srv, err := telemetry.Serve(f.opts.ListenAddr, telemetry.ServerOptions{
			Registry: f.opts.Telemetry,
			Tracer:   f.opts.Tracer,
			Events:   telemetry.RingOf(f.opts.Logger),
			Overhead: f.opts.Overhead,
			Debug:    func() interface{} { return f.Snapshot() },
			Pprof:    f.opts.Pprof,
		})
		if err != nil {
			f.cancel()
			f.closePrivateStore()
			return fmt.Errorf("fleet: introspection endpoint: %w", err)
		}
		f.server = srv
		f.log.Info("introspection endpoint up", "url", "http://"+srv.Addr())
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

// drainShard is the triage consumer of one ingest shard.
func (f *Fleet) drainShard(s int) {
	defer f.wg.Done()
	sh := f.ingest.Shard(s)
	for {
		select {
		case <-f.ctx.Done():
			return
		case msg := <-sh:
			f.admit(msg)
		}
	}
}

// admit triages one shipped occurrence: it interns the failure
// signature (creating a bucket exactly once per distinct (app,
// signature) pair), banks the occurrence in the trace archive, hands a
// new bucket to triage and tells triage the occurrence is banked.
func (f *Fleet) admit(msg *prod.TraceMsg) {
	b, isNew := f.table.Intern(msg.Failure, msg.App)
	b.occurrences.Add(1)
	seq, err := f.store.AppendRing(msg.Failure, tracestore.Meta{
		App: msg.App, Machine: msg.Machine, Version: msg.Version,
		Seed: msg.Seed, Instrs: msg.Instrs,
	}, msg.Ring)
	if isNew {
		f.log.Info("new failure bucket", "app", b.App, "bucket", b.ID, "sig", b.Sig.Error())
		f.triage.NewBucket(b)
	}
	if err != nil {
		// The archive is the only delivery path, so a failed append
		// loses the occurrence — an error event.
		b.badDrops.Add(1)
		f.log.Error("archive append failed; occurrence lost", "app", b.App, "bucket", b.ID, "err", err)
		return
	}
	f.triage.Banked(b, seq)
}

// worker runs bucket pipelines, one at a time, until the fleet stops.
func (f *Fleet) worker() {
	defer f.wg.Done()
	f.runner.Work(f.ctx, f.work)
}

// archiveFeed feeds a local bucket's pipeline from the trace archive
// and reports through Rollout and ResolveBucket.
type archiveFeed struct {
	f *Fleet
	b *Bucket
}

// Start builds b's pipeline on its first run. It resolves b as failed
// and returns nil when that is impossible.
func (a archiveFeed) Start() *core.Pipeline {
	f, b := a.f, a.b
	g := f.byName[b.App]
	if g == nil {
		f.log.Error("bucket names an unknown app; abandoning", "app", b.App, "bucket", b.ID)
		f.ResolveBucket(b, &core.Report{Failure: b.Sig, FailReason: fmt.Sprintf("fleet: unknown app %q", b.App)})
		return nil
	}
	p, err := core.NewPipeline(core.Config{
		Module:    g.app.Module,
		Entry:     g.app.Entry,
		Symex:     g.app.Symex,
		Telemetry: f.opts.Telemetry,
		Tracer:    f.opts.Tracer,
		Logger:    f.opts.Logger.With("app", b.App, "bucket", b.ID),
	})
	if err != nil {
		f.log.Error("pipeline not built", "app", b.App, "bucket", b.ID, "err", err)
		f.ResolveBucket(b, &core.Report{Failure: b.Sig, FailReason: err.Error()})
		return nil
	}
	b.key = tracestore.KeyOf(b.Sig)
	return p
}

// Next returns the archive's next record for b at or after its cursor
// that this app recorded on deployment version with an unwrapped ring,
// opened as a streaming occurrence, or nil when none is banked yet. The
// lookup reads only record metadata; the app's records it passes over
// count as stale (an older deployment) or bad (a wrapped ring).
func (a archiveFeed) Next(version int) (*core.Occurrence, error) {
	f, b := a.f, a.b
	match := func(ri tracestore.RecordInfo) bool {
		switch {
		case ri.Meta.App != b.App:
			return false // another app sharing the signature
		case ri.Meta.Version != version:
			b.staleDrops.Add(1)
			return false
		case ri.Meta.Lost > 0:
			b.badDrops.Add(1)
			return false
		}
		return true
	}
	for {
		info, next, ok := f.store.Next(b.key, b.cursor, match)
		b.cursor = next
		if !ok {
			return nil, nil
		}
		occ := &core.Occurrence{
			Result: &vm.Result{
				Failure: b.Sig,
				Stats:   vm.Stats{Instrs: info.Meta.Instrs},
			},
			Seed: info.Meta.Seed,
		}
		if info.RawLen > 0 {
			r, err := f.store.OpenEvents(b.key, info.Seq)
			if err != nil {
				b.badDrops.Add(1)
				f.log.Warn("archived occurrence unreadable; dropped",
					"app", b.App, "bucket", b.ID, "seq", info.Seq, "err", err)
				continue
			}
			occ.Events = r
		}
		return occ, nil
	}
}

// Parked does nothing: Banked wakes the bucket.
func (archiveFeed) Parked() {}

func (a archiveFeed) Fed(_ *core.Pipeline, err error) {
	if err != nil {
		a.f.log.Error("pipeline failed", "app", a.b.App, "bucket", a.b.ID, "err", err)
	}
}

// Rollout attributes the new version's recording-set cost and rolls
// the instrumented module out to this app's machines.
func (a archiveFeed) Rollout(p *core.Pipeline) error {
	sites, cost := p.Report().RecordingSet()
	a.f.opts.Overhead.SetRecordingCost(a.b.App, p.Version(), sites, cost)
	_ = a.f.Rollout(a.b.App, p.Deployed(), p.Version())
	return nil
}

func (a archiveFeed) Resolve(rep *core.Report) { a.f.ResolveBucket(a.b, rep) }

// Rollout deploys mod as the named app's next versioned binary across
// its producer machines. A local pipeline calls it when it selects key
// data values; the cluster coordinator calls it for a triage node's
// pipeline.
func (f *Fleet) Rollout(app string, mod *ir.Module, version int) error {
	g := f.byName[app]
	if g == nil {
		return fmt.Errorf("fleet: rollout names unknown app %q", app)
	}
	dep := prod.Deployment{Module: mod, Version: version}
	for _, m := range g.machines {
		m.Deploy(dep)
	}
	f.log.Info("rolled out instrumented deployment", "app", app, "version", version)
	return nil
}

// ResolveBucket finishes a bucket, whether its reconstruction ran on
// the local worker pool or on a remote triage node: it records the
// report, retires the app's machines (its failure is resolved, so the
// fleet stops spending production capacity reproducing it) and signals
// completion toward Wait. It returns false (and does nothing) if the
// bucket was already resolved — the idempotence a coordinator
// replaying its commit log relies on.
func (f *Fleet) ResolveBucket(b *Bucket, rep *core.Report) bool {
	if !b.resolved.CompareAndSwap(false, true) {
		return false
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

// stop shuts the fleet's goroutines and introspection endpoint down,
// then ends the buckets whose pipelines were left unfinished.
func (f *Fleet) stop() {
	f.cancel()
	f.ingest.Close()
	f.wg.Wait()
	f.abortUnfinished()
	f.server.Close()
}

// abortUnfinished ends every bucket whose pipeline started but did not
// resolve before the workers stopped — parked, or woken and still on
// the ready queue: its wait span closes, the pipeline aborts and the
// bucket fails without a report. Parked buckets run no goroutine of
// their own, so nothing else is left to stop.
func (f *Fleet) abortUnfinished() {
	for _, b := range f.table.Buckets() {
		if b.p == nil {
			continue
		}
		b.abort("fleet shutdown")
		b.state.Store(int32(BucketFailed))
		f.bucketDone(b)
	}
}

// closePrivateStore closes and removes the store the fleet opened for
// itself when Options.Store was nil.
func (f *Fleet) closePrivateStore() {
	if f.opts.Store != nil || f.store == nil {
		return
	}
	f.store.Close()
	os.RemoveAll(f.store.Dir())
}

// Wait blocks until one failure per app resolves (or the timeout
// fires), then shuts the fleet down and returns the aggregate result.
func (f *Fleet) Wait() (*Result, error) {
	f.waitOnce.Do(func() {
		var timeout <-chan time.Time
		if f.opts.Timeout > 0 {
			t := time.NewTimer(f.opts.Timeout)
			defer t.Stop()
			timeout = t.C
		}
		expect := len(f.apps)
		done := 0
	loop:
		for done < expect {
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
		f.stop()

		res := &Result{Elapsed: elapsed, Final: f.Snapshot()}
		for _, b := range f.table.Buckets() {
			res.Buckets = append(res.Buckets, BucketResult{
				BucketSnapshot: f.snapshotBucket(b),
				Report:         b.report.Load(),
			})
		}
		f.result = res
		f.closePrivateStore()
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
	f.stop()
	f.closePrivateStore()
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
