package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/fleet"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// NodeOptions configures a triage node.
type NodeOptions struct {
	// Name identifies the node in lease and liveness bookkeeping.
	Name string
	// Coordinator is the coordinator base URL.
	Coordinator string
	// Apps lists the applications this node can triage (module,
	// entry, symex options; the production-side fields are unused).
	Apps []fleet.App
	// Workers is how many bucket pipelines the node runs concurrently
	// (default 2). It does not bound the leases the node holds: a
	// bucket waiting for a reoccurrence parks and frees its worker.
	Workers int
	// Tracer records each leased bucket's replay as a span tree rooted
	// under the coordinator's bucket span (the lease grant carries the
	// parent context); snapshots ship back on heartbeats and with the
	// resolution. Nil disables span shipping (timelines still render
	// from coordinator-side events alone).
	Tracer *telemetry.Tracer
	// Log receives progress lines.
	Log io.Writer
}

// Node is a remote triage worker: it leases buckets from the
// coordinator and runs them on the fleet's bucket runner, fed by
// /v1/fetch: each banked occurrence advances a bucket's local ER
// pipeline, rollout chains ship back over /v1/rollout, and verdicts
// resolve over /v1/resolve. A bucket with nothing banked parks without
// holding a worker, and one heartbeat renews every lease the node
// holds.
type Node struct {
	opts   NodeOptions
	client *Client
	apps   map[string]fleet.App
	runner *fleet.Runner
	// fresh hands each newly granted lease to a worker.
	fresh chan *fleet.Job

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// ttl is the lease TTL of the latest grant; the heartbeat starts at
	// the first grant and renews at ttl/3.
	ttl    atomic.Int64
	hbOnce sync.Once

	// held is every lease the node holds: queued for a worker, running
	// or parked.
	mu   sync.Mutex
	held map[bucketAddr]*lease

	started  atomic.Bool
	killed   atomic.Bool
	resolved atomic.Int64 // buckets this node resolved
	lost     atomic.Int64 // leases lost (fenced or expired under us)
}

// errLeaseLost abandons a bucket whose lease the node no longer holds.
var errLeaseLost = errors.New("lease lost")

// NewNode validates the options and assembles a node (not yet
// running).
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("cluster: node requires a name")
	}
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("cluster: node requires a coordinator URL")
	}
	if len(opts.Apps) == 0 {
		return nil, fmt.Errorf("cluster: node requires at least one app module")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	n := &Node{
		opts:   opts,
		client: NewClient(opts.Coordinator, opts.Name),
		apps:   make(map[string]fleet.App, len(opts.Apps)),
		runner: fleet.NewRunner(),
		fresh:  make(chan *fleet.Job),
		held:   make(map[bucketAddr]*lease),
	}
	for _, a := range opts.Apps {
		n.apps[a.Name] = a
	}
	return n, nil
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.opts.Log != nil {
		fmt.Fprintf(n.opts.Log, "node %s: "+format+"\n", append([]interface{}{n.opts.Name}, args...)...)
	}
}

// Start launches the lease loop and the pipeline workers.
func (n *Node) Start() error {
	if !n.started.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: node already started")
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.wg.Add(1 + n.opts.Workers)
	go n.leaser()
	for i := 0; i < n.opts.Workers; i++ {
		go func() {
			defer n.wg.Done()
			n.runner.Work(n.ctx, n.fresh)
		}()
	}
	return nil
}

// Kill is the kill -9 of the chaos tests: every worker, long-poll and
// the heartbeat stop at their next context check and the node never
// speaks to the coordinator again. Running and parked reconstructions
// are simply abandoned — their leases expire and the coordinator
// re-dispatches the buckets.
func (n *Node) Kill() {
	if n.killed.CompareAndSwap(false, true) {
		n.cancel()
	}
}

// Killed reports whether Kill was called.
func (n *Node) Killed() bool { return n.killed.Load() }

// Close stops the node and joins its goroutines. (A killed node's
// goroutines are already unwinding; Close just joins them.)
func (n *Node) Close() {
	if !n.started.Load() {
		return
	}
	n.cancel()
	n.wg.Wait()
}

// Resolved returns how many buckets this node resolved.
func (n *Node) Resolved() int64 { return n.resolved.Load() }

// LeasesLost returns how many leases this node lost to fencing.
func (n *Node) LeasesLost() int64 { return n.lost.Load() }

// leaser takes leases and hands each to a worker. It keeps at most one
// granted lease waiting for a worker, so a node with every worker busy
// leaves the coordinator's queue to its peers.
func (n *Node) leaser() {
	defer n.wg.Done()
	for n.ctx.Err() == nil {
		resp, err := n.client.Lease(n.ctx, time.Second)
		if n.ctx.Err() != nil {
			return
		}
		if err != nil || !resp.OK {
			if err != nil {
				n.logf("lease: %v", err)
			}
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		if !resp.Granted {
			continue
		}
		l := n.accept(resp)
		if l == nil {
			continue
		}
		select {
		case n.fresh <- l.job:
		case <-n.ctx.Done():
			return
		}
	}
}

// accept starts holding a granted lease: the heartbeat renews it from
// now on. It returns nil for an app the node has no module for.
func (n *Node) accept(g *LeaseResponse) *lease {
	app, ok := n.apps[g.App]
	if !ok {
		// Misconfigured node: let the lease expire so a properly
		// configured survivor inherits the bucket.
		n.logf("leased %s/%#x but have no module for app %q; abandoning", g.App, g.Key, g.App)
		return nil
	}
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	l := &lease{n: n, grant: g, app: app}
	l.ctx, l.cancel = context.WithCancel(n.ctx)
	l.job = fleet.NewJob(l)
	n.mu.Lock()
	n.held[bucketAddr{g.App, g.Key}] = l
	n.mu.Unlock()
	n.ttl.Store(int64(ttl))
	n.hbOnce.Do(func() {
		n.wg.Add(1)
		go n.heartbeat()
	})
	return l
}

// heartbeat renews every held lease in one /v1/renew round trip each
// TTL/3, and abandons each lease the coordinator names lost.
func (n *Node) heartbeat() {
	defer n.wg.Done()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-time.After(time.Duration(n.ttl.Load()) / 3):
		}
		n.renew()
	}
}

// renew sends one heartbeat. A lease's span snapshot rides along only
// when it changed since the last heartbeat that carried it: the
// coordinator keeps the newest per term, and a parked bucket's snapshot
// does not change while it waits.
func (n *Node) renew() {
	n.mu.Lock()
	req := &RenewRequest{Leases: make([]LeaseRenewal, 0, len(n.held))}
	held := make([]*lease, 0, len(n.held))
	for _, l := range n.held {
		lr := LeaseRenewal{
			LeaseRef:   LeaseRef{App: l.grant.App, Key: l.grant.Key, Term: l.grant.Term},
			Iterations: l.job.Iterations(),
		}
		if sn := l.span.Load(); sn != l.shipped {
			lr.Span = sn
		}
		req.Leases = append(req.Leases, lr)
		held = append(held, l)
	}
	n.mu.Unlock()
	if len(req.Leases) == 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	req.Health = &NodeHealth{
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		Buckets:    len(req.Leases),
	}
	resp, err := n.client.Renew(n.ctx, req)
	if err != nil || !resp.OK {
		// Retried next tick; a lease that expires meanwhile is named
		// lost then.
		if err == nil {
			err = errors.New(resp.Err)
		}
		if n.ctx.Err() == nil {
			n.logf("renew: %v", err)
		}
		return
	}
	for i, l := range held {
		if sn := req.Leases[i].Span; sn != nil {
			l.shipped = sn
		}
	}
	for _, ref := range resp.Lost {
		n.mu.Lock()
		l := n.held[bucketAddr{ref.App, ref.Key}]
		n.mu.Unlock()
		if l != nil && l.grant.Term == ref.Term {
			n.lost.Add(1)
			n.logf("lease %s/%#x term %d lost", ref.App, ref.Key, ref.Term)
			l.drop()
		}
	}
}

// lease is one held bucket lease and its fleet.Feed: occurrences come
// from /v1/fetch, rollouts and the verdict go to /v1/rollout and
// /v1/resolve, every call fenced by the lease's term.
type lease struct {
	n     *Node
	grant *LeaseResponse
	app   fleet.App
	job   *fleet.Job
	// ctx ends when the node stops holding the lease.
	ctx    context.Context
	cancel context.CancelFunc

	// replay is the bucket's span tree on this node; span is its latest
	// snapshot, taken by the goroutine driving the bucket and shipped by
	// the heartbeat, which alone touches shipped: the last snapshot the
	// coordinator acknowledged.
	replay  *telemetry.Span
	span    atomic.Pointer[telemetry.SpanSnapshot]
	shipped *telemetry.SpanSnapshot

	// The fetch cursor: after is the next archive seq to consider and
	// version the deployment of the last lookup. stash is the record a
	// parked bucket's long-poll returned, delivered by the next lookup.
	after   uint64
	version int
	stash   *FetchResponse
	// rollout is the selected deployment not yet shipped: nothing can be
	// banked on it before it ships, so the bucket parks and its
	// long-poll ships it first.
	rollout *RolloutRequest
}

// drop stops holding the lease: the heartbeat no longer renews it, so
// the coordinator expires it unless it was resolved, and every call
// still in flight for it is cancelled.
func (l *lease) drop() {
	addr := bucketAddr{l.grant.App, l.grant.Key}
	l.n.mu.Lock()
	if l.n.held[addr] == l {
		delete(l.n.held, addr)
	}
	l.n.mu.Unlock()
	l.cancel()
}

func (l *lease) shipSpan() {
	if l.replay != nil {
		sn := l.replay.Snapshot()
		l.span.Store(&sn)
	}
}

// Start opens the replay span as a remote child of the coordinator's
// bucket span (the grant carried its context) and builds the pipeline
// under it.
func (l *lease) Start() *core.Pipeline {
	n, g := l.n, l.grant
	l.replay = n.opts.Tracer.StartRemote("replay", g.Trace,
		telemetry.A("node", n.opts.Name), telemetry.A("app", g.App),
		telemetry.A("key", fmt.Sprintf("%#x", g.Key)), telemetry.A("term", g.Term))
	l.shipSpan()
	p, err := core.NewPipeline(core.Config{
		Module:     l.app.Module,
		Entry:      l.app.Entry,
		Symex:      l.app.Symex,
		Tracer:     n.opts.Tracer,
		ParentSpan: l.replay,
		Log:        n.opts.Log,
	})
	if err != nil {
		// A broken pipeline config is permanent for this node-app
		// pair; resolving as failed beats leaving the bucket to ping
		// between equally broken nodes forever.
		n.logf("pipeline for %s: %v", g.App, err)
		l.Resolve(&core.Report{Failure: g.Sig, FailReason: err.Error()})
		return nil
	}
	return p
}

// Next fetches the bucket's next banked occurrence without waiting.
// The cursor starts at sequence zero: the archive is the delivery path,
// so a re-dispatched bucket retreads its whole history (reference
// occurrence, every banked reoccurrence, every rollout step) and lands
// exactly where the dead node left off.
func (l *lease) Next(version int) (*core.Occurrence, error) {
	n, g := l.n, l.grant
	l.version = version
	if l.rollout != nil {
		return nil, nil
	}
	for {
		if l.ctx.Err() != nil {
			return nil, errLeaseLost
		}
		fr := l.stash
		l.stash = nil
		if fr == nil {
			var err error
			fr, err = n.client.Fetch(l.ctx, g.App, g.Key, g.Term, l.after, version, 0)
			if err != nil {
				if l.ctx.Err() == nil {
					n.logf("fetch %s/%#x: %v", g.App, g.Key, err)
				}
				return nil, nil // park; the long-poll retries
			}
		}
		if !fr.OK {
			n.lost.Add(1)
			n.logf("lease %s/%#x term %d fenced during fetch: %s", g.App, g.Key, g.Term, fr.Err)
			l.drop()
			return nil, errLeaseLost
		}
		if !fr.Found {
			// Nothing banked for this version yet: production is still
			// re-hitting the failure.
			return nil, nil
		}
		l.after = fr.Seq + 1
		occ, err := occurrenceFromFetch(g.Sig, fr)
		if err != nil {
			n.logf("decode %s/%#x seq %d: %v", g.App, g.Key, fr.Seq, err)
			continue
		}
		return occ, nil
	}
}

// Parked ships the snapshot with the open wait span and waits for the
// next reoccurrence on a goroutine that holds no worker. That goroutine
// is the bucket's only waker, so nothing resumes the bucket before it
// starts.
func (l *lease) Parked() {
	l.shipSpan()
	l.n.wg.Add(1)
	go l.poll()
}

// poll ships a pending rollout, then long-polls /v1/fetch until a
// record or a rejection arrives, or the lease ends. It hands the result
// to the runner's next lookup and wakes the bucket; a lost lease wakes
// it too, and the worker that resumes it abandons it.
func (l *lease) poll() {
	defer l.n.wg.Done()
	defer l.n.runner.Wake(l.job)
	if req := l.rollout; req != nil {
		l.rollout = nil
		if !l.shipRollout(req) {
			return
		}
	}
	n, g := l.n, l.grant
	for l.ctx.Err() == nil {
		fr, err := n.client.Fetch(l.ctx, g.App, g.Key, g.Term, l.after, l.version, maxPollWait)
		if err != nil {
			if l.ctx.Err() == nil {
				n.logf("fetch %s/%#x: %v", g.App, g.Key, err)
				select {
				case <-l.ctx.Done():
				case <-time.After(100 * time.Millisecond):
				}
			}
			continue
		}
		if fr.OK && !fr.Found {
			continue
		}
		l.stash = fr
		return
	}
}

func (l *lease) Fed(_ *core.Pipeline, err error) {
	if err != nil {
		l.n.logf("pipeline %s/%#x: %v", l.grant.App, l.grant.Key, err)
	}
	l.shipSpan()
}

// Rollout queues the full accumulated chain, from which the
// coordinator rebuilds and deploys the instrumented module
// statelessly. The bucket parks next, and its long-poll ships the
// chain, so the worker does not wait for the rebuild.
func (l *lease) Rollout(p *core.Pipeline) error {
	g := l.grant
	sites, costBytes := p.Report().RecordingSet()
	l.rollout = &RolloutRequest{
		App: g.App, Key: g.Key, Term: g.Term,
		Version: p.Version(), Chain: chainOf(p.Report()),
		Sites: sites, CostBytes: costBytes,
	}
	return nil
}

// shipRollout sends a queued rollout. On failure the node drops the
// lease: the coordinator expires it and a survivor replays the bucket.
func (l *lease) shipRollout(req *RolloutRequest) bool {
	n, g := l.n, l.grant
	if l.ctx.Err() != nil {
		return false
	}
	resp, err := n.client.Rollout(req)
	if err != nil {
		n.logf("rollout %s/%#x v%d: %v", g.App, g.Key, req.Version, err)
		l.drop()
		return false
	}
	if !resp.OK {
		n.lost.Add(1)
		n.logf("lease %s/%#x term %d fenced during rollout: %s", g.App, g.Key, g.Term, resp.Err)
		l.drop()
		return false
	}
	return true
}

// Resolve closes the replay span tree and commits the verdict on a
// goroutine of its own, so the worker moves on at once.
func (l *lease) Resolve(rep *core.Report) {
	var span *telemetry.SpanSnapshot
	if l.replay != nil {
		l.replay.SetAttr("reproduced", rep.Reproduced)
		l.replay.SetAttr("verified", rep.Verified)
		l.replay.End()
		sn := l.replay.Snapshot()
		span = &sn
	}
	l.n.wg.Add(1)
	go l.resolve(rep, span)
}

// resolve commits the verdict, shipping the finished replay span tree
// so the coordinator can pin the final remote subtree on the bucket
// timeline; a fenced resolve is logged and dropped (the surviving
// leaseholder will resolve instead).
func (l *lease) resolve(rep *core.Report, span *telemetry.SpanSnapshot) {
	n, g := l.n, l.grant
	defer n.wg.Done()
	defer l.drop()
	if l.ctx.Err() != nil {
		return // killed or fenced between the last feed and here
	}
	resp, err := n.client.Resolve(&ResolveRequest{
		App: g.App, Key: g.Key, Term: g.Term, Report: rep, Span: span,
	})
	if err != nil {
		n.logf("resolve %s/%#x: %v", g.App, g.Key, err)
		return
	}
	if !resp.OK {
		n.lost.Add(1)
		n.logf("lease %s/%#x term %d fenced during resolve: %s", g.App, g.Key, g.Term, resp.Err)
		return
	}
	n.resolved.Add(1)
	n.logf("resolved %s/%#x (reproduced=%v verified=%v, %d iterations)",
		g.App, g.Key, rep.Reproduced, rep.Verified, len(rep.Iterations))
}

// chainOf extracts the accumulated instrumentation-site chain from a
// pipeline report (one entry per stall iteration, in order).
func chainOf(rep *core.Report) [][]symex.SiteKey {
	var chain [][]symex.SiteKey
	for _, it := range rep.Iterations {
		if len(it.Sites) > 0 {
			chain = append(chain, it.Sites)
		}
	}
	return chain
}

// occurrenceFromFetch rebuilds a pipeline occurrence from a fetched
// archive record.
func occurrenceFromFetch(sig *vm.Failure, fr *FetchResponse) (*core.Occurrence, error) {
	occ := &core.Occurrence{
		Result: &vm.Result{
			Failure: sig,
			Stats:   vm.Stats{Instrs: fr.Instrs},
		},
		Seed: fr.Seed,
	}
	if len(fr.Raw) == 0 {
		return occ, nil // untraced occurrence
	}
	tr, err := pt.DecodeBytes(fr.Raw, fr.Lost)
	if err != nil {
		return nil, fmt.Errorf("trace decode: %w", err)
	}
	if tr.Truncated {
		return nil, fmt.Errorf("trace ring overflowed (%d bytes lost)", tr.LostBytes)
	}
	occ.Events = pt.NewCursor(tr)
	return occ, nil
}
