package cluster

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/fleet"
	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// DefaultTTL is the default lease heartbeat deadline.
const DefaultTTL = 3 * time.Second

// CoordinatorOptions configures the cluster coordinator.
type CoordinatorOptions struct {
	// Fleet is the base fleet tuning (machines per app, pace, timeout,
	// telemetry registry, ...). Remote, Store, and ListenAddr are owned
	// by the coordinator and overwritten. The coordinator's endpoint
	// serves Fleet.Telemetry, Tracer and Overhead, the event ring
	// behind Fleet.Logger (if any), and mounts pprof when Fleet.Pprof
	// is set; its lease lifecycle events go to Fleet.Logger with
	// component=cluster.
	Fleet fleet.Options
	// Store is the durable trace archive — required: it is the only
	// occurrence delivery path to (possibly re-dispatched) nodes.
	Store *tracestore.Store
	// WALPath is the lease/commit log file — required: it is what
	// makes the coordinator itself restartable.
	WALPath string
	// TTL is the lease heartbeat deadline (default DefaultTTL). Nodes
	// renew at TTL/3; the sweeper re-dispatches at expiry.
	TTL time.Duration
	// Listen is the coordinator endpoint address (default
	// "127.0.0.1:0"). It serves /metrics, /debug/er, and the /v1/*
	// wire protocol on one mux.
	Listen string
	// CheckpointBytes triggers a WAL checkpoint (snapshot + truncate)
	// once the log exceeds this size (default 256 KB).
	CheckpointBytes int64
}

// ctlState is a bucket lease's lifecycle:
//
//	pending -> leased -> resolved
//	   ^         |
//	   +-expire--+   (sweeper: TTL missed -> re-dispatch)
type ctlState int32

const (
	ctlPending ctlState = iota
	ctlLeased
	ctlResolved
)

func (s ctlState) String() string {
	switch s {
	case ctlPending:
		return "pending"
	case ctlLeased:
		return "leased"
	case ctlResolved:
		return "resolved"
	}
	return "unknown"
}

// bucketCtl is the coordinator's per-bucket lease record. All fields
// are guarded by Coordinator.mu.
type bucketCtl struct {
	addr bucketAddr
	sig  *vm.Failure
	// b is the fleet's live bucket; nil for WAL-recovered buckets
	// until production re-interns them.
	b            *fleet.Bucket
	state        ctlState
	queued       bool
	term         uint64
	node         string
	expiry       time.Time
	version      int // highest acknowledged rollout version
	iterations   int
	redispatches int
	report       *core.Report
	// notify is closed (and replaced) every time an occurrence is
	// banked under this bucket — the long-poll wakeup for Fetch.
	notify chan struct{}

	// Timeline state (timeline.go): lifecycle timestamps, bounded
	// point events and lease windows, and the per-term remote replay
	// snapshots nodes ship back on renew/resolve.
	firstSeen  time.Time
	resolvedAt time.Time
	events     []tlEvent
	evDropped  int
	archived   bool // first archive event recorded
	leaseLog   []leaseWindow
	remote     map[uint64]telemetry.SpanSnapshot
}

// nodeSeen tracks a triage node's liveness and the vitals it
// piggybacks on heartbeats.
type nodeSeen struct {
	last   time.Time
	health NodeHealth
}

// Coordinator owns the production half of a distributed fleet: the
// producer machines, ingest, the bucket table, the trace archive, and
// the lease table — and serves the /v1/* wire protocol to triage
// nodes. It implements fleet.RemoteTriage.
type Coordinator struct {
	opts  CoordinatorOptions
	fleet *fleet.Fleet
	store *tracestore.Store
	wal   *WAL
	// base maps app name to its pristine module + entry, the root of
	// every stateless rollout rebuild.
	base   map[string]baseApp
	ttl    time.Duration
	server *telemetry.Server
	reg    *telemetry.Registry

	log *slog.Logger // Fleet.Logger with component=cluster

	mu        sync.Mutex
	ctls      map[bucketAddr]*bucketCtl
	queue     []*bucketCtl
	nodes     map[string]*nodeSeen
	recovered int
	// checkpointed is the log's size after the last checkpoint
	// maybeCheckpointLocked took.
	checkpointed int64
	// nodeGauges tracks which node names already have er_node_*
	// series registered (registration is dynamic, per first contact).
	nodeGauges map[string]bool

	// dispatch wakes lease long-pollers when the queue grows.
	dispatch chan struct{}

	granted      atomic.Int64
	renewed      atomic.Int64
	expired      atomic.Int64
	redispatched atomic.Int64
	resolvedN    atomic.Int64
	submits      atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

type baseApp struct {
	mod   *ir.Module
	entry string
}

// NewCoordinator replays the WAL, recovers the lease table, and
// assembles the coordinator's fleet in remote-node mode (not yet
// running).
func NewCoordinator(apps []fleet.App, opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("cluster: coordinator requires a trace store")
	}
	if opts.WALPath == "" {
		return nil, fmt.Errorf("cluster: coordinator requires a WAL path")
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.CheckpointBytes <= 0 {
		opts.CheckpointBytes = 256 << 10
	}
	wal, recovered, err := OpenWAL(opts.WALPath)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:       opts,
		store:      opts.Store,
		wal:        wal,
		base:       make(map[string]baseApp, len(apps)),
		ttl:        opts.TTL,
		log:        telemetry.OrDiscard(opts.Fleet.Logger).With("component", "cluster"),
		ctls:       make(map[bucketAddr]*bucketCtl),
		nodes:      make(map[string]*nodeSeen),
		nodeGauges: make(map[string]bool),
		dispatch:   make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	for _, a := range apps {
		entry := a.Entry
		if entry == "" {
			entry = "main"
		}
		c.base[a.Name] = baseApp{mod: a.Module, entry: entry}
	}
	// Rebuild the lease table. Resolved buckets keep their verdicts
	// (re-interned buckets are resolved instantly, never re-triaged);
	// leases that were in flight at the crash are fenced — their term
	// survives (the next grant goes above it, so a zombie leaseholder
	// can never pass validation again) and the bucket re-queues when
	// production re-interns it.
	now := time.Now()
	for addr, rb := range recovered.Buckets {
		ctl := &bucketCtl{
			addr:         addr,
			sig:          rb.Sig,
			term:         rb.Term,
			version:      rb.Version,
			iterations:   rb.Iterations,
			redispatches: rb.Redispatches,
			notify:       make(chan struct{}),
			firstSeen:    unstamp(rb.FirstSeen),
			resolvedAt:   unstamp(rb.ResolvedAt),
		}
		// Restore the timeline skeleton: the ingest time persisted on
		// the grant, the final replay span on the resolution — so
		// ingest-through-resolve still renders for buckets that
		// completed before the crash.
		if !ctl.firstSeen.IsZero() {
			ctl.eventLocked(ctl.firstSeen, "ingest", telemetry.A("recovered", true))
		}
		ctl.eventLocked(now, "recovered", telemetry.A("term", rb.Term))
		if rb.Span != nil {
			ctl.remoteSpanLocked(rb.Term, *rb.Span)
			node := rb.Node
			if node == "" {
				node = rb.Span.Attrs["node"]
			}
			ctl.leaseLog = append(ctl.leaseLog, leaseWindow{
				term: rb.Term, node: node, start: rb.Span.Start,
				end: ctl.resolvedAt, reason: "resolved",
			})
		}
		if rb.Resolved {
			ctl.state = ctlResolved
			ctl.report = rb.Report
		} else {
			// The restarted fleet's machines are back at the
			// uninstrumented base deployment, so the rollout version
			// guard must reset with them: the next leaseholder replays
			// its chain from the archive and re-deploys each step.
			ctl.version = 0
			if rb.Leased {
				// Fence: log the forced expiry so the next replay agrees.
				if err := wal.Append(walRecord{T: walExpire, App: addr.App, Key: addr.Key, Term: rb.Term}); err != nil {
					wal.Close()
					return nil, err
				}
				ctl.eventLocked(now, "fenced",
					telemetry.A("term", rb.Term), telemetry.A("node", rb.Node))
				ctl.redispatches++
				c.expired.Add(1)
				c.redispatched.Add(1)
			}
		}
		c.ctls[addr] = ctl
		c.recovered++
	}
	if recovered.Records > 0 || recovered.Truncated > 0 {
		c.log.Info("WAL recovered", "records", recovered.Records, "buckets", len(recovered.Buckets),
			"resolved", c.countResolvedLocked(), "truncated_bytes", recovered.Truncated)
	}

	fo := opts.Fleet
	fo.Remote = c
	fo.Store = opts.Store
	fo.ListenAddr = "" // the coordinator owns the endpoint
	f, err := fleet.New(apps, fo)
	if err != nil {
		wal.Close()
		return nil, err
	}
	c.fleet = f
	c.registerMetrics(fo.Telemetry)
	return c, nil
}

func (c *Coordinator) countResolvedLocked() int {
	n := 0
	for _, ctl := range c.ctls {
		if ctl.state == ctlResolved {
			n++
		}
	}
	return n
}

// Start launches the fleet's production half, the wire endpoint, and
// the lease sweeper.
func (c *Coordinator) Start() error {
	srv, err := telemetry.Serve(c.opts.Listen, telemetry.ServerOptions{
		Registry: c.opts.Fleet.Telemetry,
		Tracer:   c.opts.Fleet.Tracer,
		Events:   telemetry.RingOf(c.opts.Fleet.Logger),
		Overhead: c.opts.Fleet.Overhead,
		Timeline: func() interface{} { return c.Timelines() },
		Pprof:    c.opts.Fleet.Pprof,
		Debug: func() interface{} {
			return map[string]interface{}{
				"fleet":   c.fleet.Snapshot(),
				"cluster": c.Snapshot(),
			}
		},
		Extend: c.mount,
	})
	if err != nil {
		return fmt.Errorf("cluster: coordinator endpoint: %w", err)
	}
	c.server = srv
	if err := c.fleet.Start(); err != nil {
		srv.Close()
		return err
	}
	c.wg.Add(1)
	go c.sweeper()
	c.log.Info("coordinator up", "url", "http://"+srv.Addr(), "ttl", c.ttl.String())
	return nil
}

// Addr returns the bound endpoint address.
func (c *Coordinator) Addr() string { return c.server.Addr() }

// URL returns the coordinator base URL for Client.
func (c *Coordinator) URL() string { return "http://" + c.server.Addr() }

// Wait blocks until every expected failure resolves (or the fleet
// timeout fires), then shuts everything down: sweeper, endpoint, and
// — after a final checkpoint — the WAL.
func (c *Coordinator) Wait() (*fleet.Result, error) {
	res, ferr := c.fleet.Wait()
	close(c.done)
	c.wg.Wait()
	c.server.Close()
	c.mu.Lock()
	c.checkpointLocked()
	c.mu.Unlock()
	c.wal.Close()
	return res, ferr
}

// Crash abandons the coordinator without draining, checkpointing, or
// resolving anything — the kill -9 path the restart tests and the
// obs benchmark's coordinator-restart run exercise. The store stays
// open (it belongs to the caller).
func (c *Coordinator) Crash() {
	close(c.done)
	c.wg.Wait()
	c.server.Close()
	c.fleet.Abandon()
	c.wal.Close()
}

// Close releases a coordinator that was never started — the WAL
// handle is the only resource NewCoordinator acquires. It exists for
// recovery inspection (reopen the WAL, read Timelines, close);
// started coordinators shut down through Wait or Crash instead.
func (c *Coordinator) Close() { c.wal.Close() }

// --- fleet.RemoteTriage ---

// NewBucket attaches the fleet's freshly interned bucket to its lease
// record (creating one on first sight) and queues it for dispatch —
// or, if the WAL already carries its verdict, resolves it on the spot.
func (c *Coordinator) NewBucket(b *fleet.Bucket) {
	addr := bucketAddr{b.App, tracestore.KeyOf(b.Sig)}
	now := time.Now()
	c.mu.Lock()
	ctl := c.ctls[addr]
	if ctl == nil {
		ctl = &bucketCtl{addr: addr, sig: b.Sig, notify: make(chan struct{})}
		c.ctls[addr] = ctl
	}
	ctl.b = b
	if ctl.sig == nil {
		ctl.sig = b.Sig
	}
	if ctl.firstSeen.IsZero() {
		ctl.firstSeen = now
		ctl.eventLocked(now, "ingest", telemetry.A("sig", b.Sig.Error()))
	}
	if ctl.state == ctlResolved {
		rep := ctl.report
		c.mu.Unlock()
		c.fleet.ResolveBucket(b, rep)
		c.log.Info("bucket resolved from recovered WAL verdict", "app", addr.App, "key", hexKey(addr.Key))
		return
	}
	c.enqueueLocked(ctl)
	c.mu.Unlock()
	c.log.Info("bucket ingested", "app", addr.App, "key", hexKey(addr.Key))
}

// Banked wakes any node long-polling for this bucket's next banked
// occurrence, and marks the first archive on the timeline.
func (c *Coordinator) Banked(b *fleet.Bucket, seq uint64) {
	addr := bucketAddr{b.App, tracestore.KeyOf(b.Sig)}
	c.mu.Lock()
	if ctl := c.ctls[addr]; ctl != nil {
		if !ctl.archived {
			ctl.archived = true
			ctl.eventLocked(time.Now(), "archive", telemetry.A("seq", seq))
		}
		close(ctl.notify)
		ctl.notify = make(chan struct{})
	}
	c.mu.Unlock()
}

// enqueueLocked puts a pending ctl on the dispatch queue (idempotent)
// and signals lease long-pollers.
func (c *Coordinator) enqueueLocked(ctl *bucketCtl) {
	if ctl.queued || ctl.state != ctlPending || ctl.b == nil {
		return
	}
	ctl.queued = true
	c.queue = append(c.queue, ctl)
	select {
	case c.dispatch <- struct{}{}:
	default:
	}
}

// --- lease machinery ---

// grantLocked pops the next dispatchable bucket and leases it to
// node. The WAL append happens under the lock so the on-disk term
// order always matches the in-memory one.
func (c *Coordinator) grantLocked(node string) (*bucketCtl, uint64, error) {
	for len(c.queue) > 0 {
		ctl := c.queue[0]
		c.queue = c.queue[1:]
		ctl.queued = false
		if ctl.state != ctlPending || ctl.b == nil {
			continue // raced with resolve/expiry bookkeeping
		}
		ctl.term++
		if err := c.wal.Append(walRecord{
			T: walGrant, App: ctl.addr.App, Key: ctl.addr.Key,
			Node: node, Term: ctl.term, Sig: ctl.sig,
			FirstSeen: stamp(ctl.firstSeen),
		}); err != nil {
			ctl.term--
			c.enqueueLocked(ctl)
			return nil, 0, err
		}
		ctl.state = ctlLeased
		ctl.node = node
		now := time.Now()
		ctl.expiry = now.Add(c.ttl)
		ctl.openLeaseLocked(ctl.term, node, now)
		c.granted.Add(1)
		return ctl, ctl.term, nil
	}
	return nil, 0, nil
}

// validateLocked checks a node's fencing token: the lease must still
// be held by this node under this term.
func (ctl *bucketCtl) validateLocked(node string, term uint64) bool {
	return ctl != nil && ctl.state == ctlLeased && ctl.node == node && ctl.term == term
}

// touchNode records node liveness (any RPC counts).
func (c *Coordinator) touchNode(name string) {
	if name == "" {
		return
	}
	c.mu.Lock()
	ns := c.nodes[name]
	if ns == nil {
		ns = &nodeSeen{}
		c.nodes[name] = ns
	}
	ns.last = time.Now()
	c.mu.Unlock()
}

// sweeper expires overdue leases (re-dispatching their buckets) and
// prunes node liveness.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, ctl := range c.ctls {
			if ctl.state != ctlLeased || now.Before(ctl.expiry) {
				continue
			}
			if err := c.wal.Append(walRecord{
				T: walExpire, App: ctl.addr.App, Key: ctl.addr.Key,
				Node: ctl.node, Term: ctl.term,
			}); err != nil {
				// A WAL that stops accepting expiries threatens the
				// fencing invariant: an error event.
				c.log.Error("wal expire append failed", "app", ctl.addr.App, "key", hexKey(ctl.addr.Key),
					"term", ctl.term, "err", err)
				continue // retried next sweep
			}
			c.log.Warn("lease expired; re-dispatching", "app", ctl.addr.App, "key", hexKey(ctl.addr.Key),
				"term", ctl.term, "node", ctl.node)
			ctl.closeLeaseLocked(ctl.term, "expired", now)
			ctl.eventLocked(now, "expire",
				telemetry.A("term", ctl.term), telemetry.A("node", ctl.node))
			ctl.state = ctlPending
			ctl.node = ""
			ctl.redispatches++
			c.expired.Add(1)
			c.redispatched.Add(1)
			c.enqueueLocked(ctl)
		}
		for name, ns := range c.nodes {
			if now.Sub(ns.last) > 4*c.ttl {
				delete(c.nodes, name)
			}
		}
		c.mu.Unlock()
	}
}

// checkpointLocked snapshots the lease table into a single WAL
// checkpoint record, truncating the history it subsumes.
func (c *Coordinator) checkpointLocked() {
	state := make([]RecoveredBucket, 0, len(c.ctls))
	for _, ctl := range c.ctls {
		rb := RecoveredBucket{
			App: ctl.addr.App, Key: ctl.addr.Key, Sig: ctl.sig,
			Term: ctl.term, Version: ctl.version,
			Iterations: ctl.iterations, Redispatches: ctl.redispatches,
			FirstSeen: stamp(ctl.firstSeen), ResolvedAt: stamp(ctl.resolvedAt),
		}
		if sn, ok := ctl.remote[ctl.term]; ok {
			rb.Span = &sn
		}
		switch ctl.state {
		case ctlResolved:
			rb.Resolved = true
			rb.Report = ctl.report
		case ctlLeased:
			rb.Leased = true
			rb.Node = ctl.node
		}
		state = append(state, rb)
	}
	if err := c.wal.Checkpoint(state); err != nil {
		c.log.Error("wal checkpoint failed", "err", err)
	}
}

// maybeCheckpointLocked checkpoints when the log has outgrown the
// configured bound and at least doubled since the last checkpoint: a
// lease table whose checkpoint alone exceeds the bound is then not
// rewritten on every append.
func (c *Coordinator) maybeCheckpointLocked() {
	if n := c.wal.Bytes(); n > c.opts.CheckpointBytes && n > 2*c.checkpointed {
		c.checkpointLocked()
		c.checkpointed = c.wal.Bytes()
	}
}

// rebuildModule re-derives the instrumented module for a rollout
// chain by applying it cumulatively to the app's base module.
// keyselect.Instrument is pure, which is what makes rollout requests
// stateless and replayable.
func (c *Coordinator) rebuildModule(app string, chain [][]symex.SiteKey) (*ir.Module, error) {
	b, ok := c.base[app]
	if !ok {
		return nil, fmt.Errorf("cluster: rollout names unknown app %q", app)
	}
	mod, err := keyselect.InstrumentChain(b.mod, chain)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebuild %s: %w", app, err)
	}
	return mod, nil
}

// Snapshot returns the cluster section of /debug/er.
func (c *Coordinator) Snapshot() ClusterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Coordinator) snapshotLocked() ClusterSnapshot {
	snap := ClusterSnapshot{
		V:            ProtocolVersion,
		Granted:      c.granted.Load(),
		Renewed:      c.renewed.Load(),
		Expired:      c.expired.Load(),
		Redispatched: c.redispatched.Load(),
		Resolved:     c.resolvedN.Load(),
		Submits:      c.submits.Load(),
		WALBytes:     c.wal.Bytes(),
		Recovered:    c.recovered,
	}
	now := time.Now()
	leasesBy := make(map[string]int)
	for _, ctl := range c.ctls {
		if ctl.state == ctlLeased {
			leasesBy[ctl.node]++
		}
	}
	for name, ns := range c.nodes {
		if now.Sub(ns.last) <= 3*c.ttl {
			snap.NodesLive++
		}
		snap.Nodes = append(snap.Nodes, NodeInfo{
			Name: name, Leases: leasesBy[name], LastSeen: ns.last.Format(time.RFC3339Nano),
			Goroutines: ns.health.Goroutines, HeapBytes: ns.health.HeapBytes,
			Buckets: ns.health.Buckets,
		})
	}
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Name < snap.Nodes[j].Name })
	for _, ctl := range c.ctls {
		snap.Buckets = append(snap.Buckets, ctl.verdictLocked())
	}
	sort.Slice(snap.Buckets, func(i, j int) bool {
		if snap.Buckets[i].App != snap.Buckets[j].App {
			return snap.Buckets[i].App < snap.Buckets[j].App
		}
		return snap.Buckets[i].Key < snap.Buckets[j].Key
	})
	return snap
}

// nodesLive counts nodes heard from within the liveness window.
func (c *Coordinator) nodesLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, ns := range c.nodes {
		if now.Sub(ns.last) <= 3*c.ttl {
			n++
		}
	}
	return n
}

func (ctl *bucketCtl) verdictLocked() BucketVerdict {
	v := BucketVerdict{
		App:          ctl.addr.App,
		Key:          ctl.addr.Key,
		State:        ctl.state.String(),
		Node:         ctl.node,
		Term:         ctl.term,
		Iterations:   ctl.iterations,
		Redispatches: ctl.redispatches,
	}
	if ctl.sig != nil {
		v.Sig = ctl.sig.Error()
	}
	if ctl.report != nil {
		v.Reproduced = ctl.report.Reproduced
		v.Verified = ctl.report.Verified
		v.FailReason = ctl.report.FailReason
	}
	return v
}
