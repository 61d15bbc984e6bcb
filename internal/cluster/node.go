package cluster

import (
	"context"
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
	// Workers is how many buckets the node reconstructs concurrently
	// (default 2).
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
// coordinator, replays their banked occurrences through a local ER
// pipeline, ships rollout chains back, and resolves verdicts.
type Node struct {
	opts   NodeOptions
	client *Client
	apps   map[string]fleet.App

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	started  atomic.Bool
	killed   atomic.Bool
	leases   atomic.Int64 // leases accepted over the node's lifetime
	held     atomic.Int64 // leases currently held (heartbeat vitals)
	resolved atomic.Int64 // buckets this node resolved
	lost     atomic.Int64 // leases lost (fenced or expired under us)
}

// health samples the node's runtime vitals for a heartbeat.
func (n *Node) health() *NodeHealth {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &NodeHealth{
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		Buckets:    int(n.held.Load()),
	}
}

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

// Start launches the lease workers.
func (n *Node) Start() error {
	if !n.started.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: node already started")
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	for i := 0; i < n.opts.Workers; i++ {
		n.wg.Add(1)
		go n.worker()
	}
	return nil
}

// Kill is the kill -9 of the chaos tests: every worker and heartbeat
// stops at its next context check and the node never speaks to the
// coordinator again. In-flight reconstructions are simply abandoned —
// their leases expire and the coordinator re-dispatches the buckets.
func (n *Node) Kill() {
	if n.killed.CompareAndSwap(false, true) {
		n.cancel()
	}
}

// Killed reports whether Kill was called.
func (n *Node) Killed() bool { return n.killed.Load() }

// Close stops the node and joins its workers. (A killed node's
// workers are already unwinding; Close just joins them.)
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

// worker is one lease loop: acquire, reconstruct, repeat.
func (n *Node) worker() {
	defer n.wg.Done()
	for n.ctx.Err() == nil {
		resp, err := n.client.Lease(time.Second)
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
		n.leases.Add(1)
		n.runLease(resp)
	}
}

// runLease drives one leased bucket's reconstruction to resolution —
// or abandons it the moment the lease is lost.
func (n *Node) runLease(l *LeaseResponse) {
	app, ok := n.apps[l.App]
	if !ok {
		// Misconfigured node: let the lease expire so a properly
		// configured survivor inherits the bucket.
		n.logf("leased %s/%#x but have no module for app %q; abandoning", l.App, l.Key, l.App)
		return
	}
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	leaseCtx, leaseCancel := context.WithCancel(n.ctx)
	defer leaseCancel()
	n.held.Add(1)
	defer n.held.Add(-1)

	// Open the replay span as a remote child of the coordinator's
	// bucket span (the grant carried its context). The replay loop
	// refreshes spanSnap after every feed; the heartbeat goroutine
	// ships whatever is latest, so a node killed mid-reconstruction
	// still leaves its partial subtree on the bucket timeline.
	replay := n.opts.Tracer.StartRemote("replay", l.Trace,
		telemetry.A("node", n.opts.Name), telemetry.A("app", l.App),
		telemetry.A("key", fmt.Sprintf("%#x", l.Key)), telemetry.A("term", l.Term))
	var spanSnap atomic.Pointer[telemetry.SpanSnapshot]
	shipSnap := func() {
		if replay != nil {
			sn := replay.Snapshot()
			spanSnap.Store(&sn)
		}
	}
	shipSnap()

	p, err := core.NewPipeline(core.Config{
		Module:     app.Module,
		Entry:      app.Entry,
		Symex:      app.Symex,
		Tracer:     n.opts.Tracer,
		ParentSpan: replay,
		Log:        n.opts.Log,
	})
	if err != nil {
		// A broken pipeline config is permanent for this node-app
		// pair; resolving as failed beats leaving the bucket to ping
		// between equally broken nodes forever.
		n.logf("pipeline for %s: %v", l.App, err)
		n.resolve(l, &core.Report{Failure: l.Sig, FailReason: err.Error()}, replay)
		return
	}

	// Heartbeat at TTL/3; a refused renewal means the lease is gone
	// and the reconstruction must be abandoned mid-flight.
	var iters atomic.Int32
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
			}
			resp, err := n.client.Renew(&RenewRequest{
				App: l.App, Key: l.Key, Term: l.Term,
				Iterations: int(iters.Load()),
				Span:       spanSnap.Load(),
				Health:     n.health(),
			})
			if err != nil || !resp.OK {
				if err == nil {
					n.lost.Add(1)
					n.logf("lease %s/%#x term %d lost: %s", l.App, l.Key, l.Term, resp.Err)
				}
				leaseCancel()
				return
			}
		}
	}()
	defer func() { leaseCancel(); <-hbDone }()

	// Replay from sequence zero: the archive is the delivery path, so
	// a re-dispatched bucket retreads its whole history (reference
	// occurrence, every banked reoccurrence, every rollout step) and
	// lands exactly where the dead node left off.
	var after uint64
	for !p.Done() {
		if leaseCtx.Err() != nil {
			return
		}
		fr, err := n.client.Fetch(l.App, l.Key, l.Term, after, p.Version(), 500*time.Millisecond)
		if err != nil {
			if leaseCtx.Err() != nil {
				return
			}
			n.logf("fetch %s/%#x: %v", l.App, l.Key, err)
			select {
			case <-leaseCtx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		if !fr.OK {
			n.lost.Add(1)
			n.logf("lease %s/%#x term %d fenced during fetch: %s", l.App, l.Key, l.Term, fr.Err)
			return
		}
		if !fr.Found {
			// Nothing banked for this version yet: production is still
			// re-hitting the failure.
			continue
		}
		after = fr.Seq + 1
		occ, err := occurrenceFromFetch(l.Sig, fr)
		if err != nil {
			n.logf("decode %s/%#x seq %d: %v", l.App, l.Key, fr.Seq, err)
			continue
		}
		before := p.Version()
		if _, err := p.Feed(occ); err != nil {
			n.logf("pipeline %s/%#x: %v", l.App, l.Key, err)
		}
		iters.Store(int32(len(p.Report().Iterations)))
		shipSnap()
		if p.Version() != before && !p.Done() {
			// Key data values selected: ship the full accumulated
			// chain so the coordinator can rebuild and deploy the
			// instrumented module statelessly.
			chain := chainOf(p.Report())
			sites, costBytes := p.Report().RecordingSet()
			resp, err := n.client.Rollout(&RolloutRequest{
				App: l.App, Key: l.Key, Term: l.Term,
				Version: p.Version(), Chain: chain,
				Sites: sites, CostBytes: costBytes,
			})
			if err != nil {
				n.logf("rollout %s/%#x v%d: %v", l.App, l.Key, p.Version(), err)
				return // lease will expire; survivor replays
			}
			if !resp.OK {
				n.lost.Add(1)
				n.logf("lease %s/%#x term %d fenced during rollout: %s", l.App, l.Key, l.Term, resp.Err)
				return
			}
		}
	}
	if leaseCtx.Err() != nil {
		return // killed or fenced between the last feed and here
	}
	n.resolve(l, p.Report(), replay)
}

// resolve commits the verdict, shipping the finished replay span tree
// so the coordinator can pin the final remote subtree on the bucket
// timeline; a fenced resolve is logged and dropped (the surviving
// leaseholder will resolve instead).
func (n *Node) resolve(l *LeaseResponse, rep *core.Report, replay *telemetry.Span) {
	var span *telemetry.SpanSnapshot
	if replay != nil {
		replay.SetAttr("reproduced", rep.Reproduced)
		replay.SetAttr("verified", rep.Verified)
		replay.End()
		sn := replay.Snapshot()
		span = &sn
	}
	resp, err := n.client.Resolve(&ResolveRequest{
		App: l.App, Key: l.Key, Term: l.Term, Report: rep, Span: span,
	})
	if err != nil {
		n.logf("resolve %s/%#x: %v", l.App, l.Key, err)
		return
	}
	if !resp.OK {
		n.lost.Add(1)
		n.logf("lease %s/%#x term %d fenced during resolve: %s", l.App, l.Key, l.Term, resp.Err)
		return
	}
	n.resolved.Add(1)
	n.logf("resolved %s/%#x (reproduced=%v verified=%v, %d iterations)",
		l.App, l.Key, rep.Reproduced, rep.Verified, len(rep.Iterations))
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
	occ.Trace = tr
	return occ, nil
}
