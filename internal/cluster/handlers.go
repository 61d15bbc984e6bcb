package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

// maxPollWait bounds every long-poll (lease and fetch) so a dead
// client can never pin a handler past the endpoint's drain window.
const maxPollWait = 2 * time.Second

// mount attaches the wire protocol to the coordinator's telemetry
// mux (telemetry.ServerOptions.Extend).
func (c *Coordinator) mount(mux *http.ServeMux) {
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathRenew, c.handleRenew)
	mux.HandleFunc(PathFetch, c.handleFetch)
	mux.HandleFunc(PathRollout, c.handleRollout)
	mux.HandleFunc(PathResolve, c.handleResolve)
	mux.HandleFunc(PathSubmit, c.handleSubmit)
	mux.HandleFunc(PathVerdicts, c.handleVerdicts)
	mux.HandleFunc(PathState, c.handleState)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// okStatus / rejection build the response envelope.
func okStatus() Status { return Status{V: ProtocolVersion, OK: true} }

func rejection(format string, args ...interface{}) Status {
	return Status{V: ProtocolVersion, Err: fmt.Sprintf(format, args...)}
}

// decodeReq parses the body and enforces the protocol version; a
// false return means the rejection was already written.
func decodeReq(w http.ResponseWriter, r *http.Request, v interface{}, ver func() int) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("cluster: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	if got := ver(); got != ProtocolVersion {
		writeJSON(w, rejection("protocol version mismatch: node speaks v%d, coordinator v%d", got, ProtocolVersion))
		return false
	}
	return true
}

// clampWait converts a client's poll window to a bounded duration.
func clampWait(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d < 0 {
		d = 0
	}
	if d > maxPollWait {
		d = maxPollWait
	}
	return d
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	c.touchNode(req.Node)
	deadline := time.Now().Add(clampWait(req.WaitMillis))
	for {
		c.mu.Lock()
		ctl, term, err := c.grantLocked(req.Node)
		c.mu.Unlock()
		if err != nil {
			writeJSON(w, LeaseResponse{Status: rejection("lease grant: %v", err)})
			return
		}
		if ctl != nil {
			c.logf("cluster: leased %s/%#x term %d to %s", ctl.addr.App, ctl.addr.Key, term, req.Node)
			writeJSON(w, LeaseResponse{
				Status: okStatus(), Granted: true,
				App: ctl.addr.App, Key: ctl.addr.Key, Sig: ctl.sig,
				Term: term, TTLMillis: c.ttl.Milliseconds(),
				Trace: ctl.trace,
			})
			return
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			writeJSON(w, LeaseResponse{Status: okStatus()})
			return
		}
		poll := 50 * time.Millisecond
		if rem < poll {
			poll = rem
		}
		select {
		case <-c.dispatch:
		case <-time.After(poll):
		case <-c.done:
			writeJSON(w, LeaseResponse{Status: rejection("coordinator shutting down")})
			return
		}
	}
}

// handleRenew extends every lease the heartbeat names that the node
// still holds and names the rest lost. A renew record reaches the WAL
// only for a lease whose iteration count rose: that count is all WAL
// replay reads from it.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	c.touchNode(req.Node)
	var lost []LeaseRef
	var renewed int64
	logged := false
	c.mu.Lock()
	if req.Health != nil {
		if ns := c.nodes[req.Node]; ns != nil {
			ns.health = *req.Health
			c.nodeGaugesLocked(req.Node)
		}
	}
	expiry := time.Now().Add(c.ttl)
	for _, lr := range req.Leases {
		ctl := c.ctls[bucketAddr{lr.App, lr.Key}]
		if !ctl.validateLocked(req.Node, lr.Term) {
			lost = append(lost, lr.LeaseRef)
			continue
		}
		ctl.expiry = expiry
		renewed++
		if lr.Span != nil {
			// Heartbeats ship the node's latest replay snapshot: even a
			// node that dies mid-reconstruction leaves its partial subtree
			// on the bucket timeline.
			ctl.remoteSpanLocked(lr.Term, *lr.Span)
		}
		if lr.Iterations <= ctl.iterations {
			continue
		}
		ctl.iterations = lr.Iterations
		if err := c.wal.Append(walRecord{
			T: walRenew, App: lr.App, Key: lr.Key,
			Node: req.Node, Term: lr.Term, Iterations: lr.Iterations,
		}); err != nil {
			// The record carries progress only; the lease stays held.
			c.journal.Log(telemetry.LevelError, "cluster", "wal renew append failed",
				telemetry.A("app", lr.App), telemetry.A("key", fmt.Sprintf("%#x", lr.Key)),
				telemetry.A("term", lr.Term), telemetry.A("err", err))
			continue
		}
		logged = true
	}
	if logged {
		c.maybeCheckpointLocked()
	}
	c.mu.Unlock()
	c.renewed.Add(renewed)
	writeJSON(w, RenewResponse{Status: okStatus(), Lost: lost})
}

func (c *Coordinator) handleFetch(w http.ResponseWriter, r *http.Request) {
	var req FetchRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	c.touchNode(req.Node)
	addr := bucketAddr{req.App, req.Key}
	deadline := time.Now().Add(clampWait(req.WaitMillis))
	for {
		c.mu.Lock()
		ctl := c.ctls[addr]
		valid := ctl.validateLocked(req.Node, req.Term)
		var notify chan struct{}
		if valid {
			notify = ctl.notify
		}
		c.mu.Unlock()
		if !valid {
			writeJSON(w, FetchResponse{Status: rejection("lease lost")})
			return
		}
		// Find the next matching record from the archive's metadata.
		// The node's cursor (AfterSeq) plus exact version matching skips
		// records banked for other apps sharing the key and records
		// from stale deployments; only the match is read.
		from := req.AfterSeq
		for {
			ri, next, ok := c.store.Next(req.Key, from, func(ri tracestore.RecordInfo) bool {
				return ri.Meta.App == req.App && ri.Meta.Lost == 0 && ri.Meta.Version == req.Version
			})
			if !ok {
				break
			}
			from = next
			raw, info, err := c.store.ReadRaw(req.Key, ri.Seq)
			if err != nil {
				// Previously a silent log line: an unreadable archive
				// record means the node's replay skips an occurrence.
				c.journal.Log(telemetry.LevelWarn, "cluster", "archived occurrence unreadable; skipped",
					telemetry.A("app", req.App), telemetry.A("key", fmt.Sprintf("%#x", req.Key)),
					telemetry.A("seq", ri.Seq), telemetry.A("err", err))
				c.logf("cluster: fetch %s/%#x seq %d: %v", req.App, req.Key, ri.Seq, err)
				continue
			}
			writeJSON(w, FetchResponse{
				Status: okStatus(), Found: true,
				Seq: info.Seq, Raw: raw, Lost: info.Meta.Lost,
				Seed: info.Meta.Seed, Instrs: info.Meta.Instrs,
			})
			return
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			writeJSON(w, FetchResponse{Status: okStatus()})
			return
		}
		poll := 500 * time.Millisecond
		if rem < poll {
			poll = rem
		}
		select {
		case <-notify:
		case <-time.After(poll):
		case <-c.done:
			writeJSON(w, FetchResponse{Status: rejection("coordinator shutting down")})
			return
		}
	}
}

func (c *Coordinator) handleRollout(w http.ResponseWriter, r *http.Request) {
	var req RolloutRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	c.touchNode(req.Node)
	addr := bucketAddr{req.App, req.Key}
	if req.Version != len(req.Chain) {
		writeJSON(w, RolloutResponse{Status: rejection("version %d does not match chain length %d", req.Version, len(req.Chain))})
		return
	}
	c.mu.Lock()
	ctl := c.ctls[addr]
	if !ctl.validateLocked(req.Node, req.Term) {
		c.mu.Unlock()
		writeJSON(w, RolloutResponse{Status: rejection("lease lost")})
		return
	}
	if req.Version <= ctl.version {
		// Replayed request (re-dispatched node retreading the chain):
		// the deployment is already at or past this version.
		c.mu.Unlock()
		writeJSON(w, RolloutResponse{Status: okStatus()})
		return
	}
	c.mu.Unlock()

	// Rebuild outside the lock — instrumentation is CPU work.
	mod, err := c.rebuildModule(req.App, req.Chain)
	if err != nil {
		writeJSON(w, RolloutResponse{Status: rejection("%v", err)})
		return
	}

	c.mu.Lock()
	if !ctl.validateLocked(req.Node, req.Term) {
		c.mu.Unlock()
		writeJSON(w, RolloutResponse{Status: rejection("lease lost")})
		return
	}
	if req.Version <= ctl.version {
		c.mu.Unlock()
		writeJSON(w, RolloutResponse{Status: okStatus()})
		return
	}
	if err := c.wal.Append(walRecord{
		T: walRollout, App: req.App, Key: req.Key,
		Node: req.Node, Term: req.Term, Version: req.Version,
	}); err != nil {
		c.mu.Unlock()
		writeJSON(w, RolloutResponse{Status: rejection("wal: %v", err)})
		return
	}
	ctl.version = req.Version
	ctl.eventLocked(time.Now(), "rollout",
		telemetry.A("version", req.Version), telemetry.A("sites", req.Sites),
		telemetry.A("cost_bytes", req.CostBytes))
	c.mu.Unlock()
	// Attribute the version's recording-set cost to the overhead
	// accountant's (app, version) ledger cell.
	c.opts.Fleet.Overhead.SetRecordingCost(req.App, req.Version, req.Sites, req.CostBytes)
	c.journal.Log(telemetry.LevelInfo, "cluster", "rollout deployed",
		telemetry.A("app", req.App), telemetry.A("key", fmt.Sprintf("%#x", req.Key)),
		telemetry.A("version", req.Version), telemetry.A("sites", req.Sites))
	if err := c.fleet.Rollout(req.App, mod, req.Version); err != nil {
		writeJSON(w, RolloutResponse{Status: rejection("%v", err)})
		return
	}
	writeJSON(w, RolloutResponse{Status: okStatus()})
}

func (c *Coordinator) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	c.touchNode(req.Node)
	if req.Report == nil {
		writeJSON(w, ResolveResponse{Status: rejection("resolve without a report")})
		return
	}
	addr := bucketAddr{req.App, req.Key}
	c.mu.Lock()
	ctl := c.ctls[addr]
	if ctl != nil && ctl.state == ctlResolved {
		c.mu.Unlock()
		writeJSON(w, ResolveResponse{Status: okStatus()}) // idempotent replay
		return
	}
	if !ctl.validateLocked(req.Node, req.Term) {
		c.mu.Unlock()
		writeJSON(w, ResolveResponse{Status: rejection("lease lost")})
		return
	}
	now := time.Now()
	if err := c.wal.Append(walRecord{
		T: walResolve, App: req.App, Key: req.Key,
		Node: req.Node, Term: req.Term, Sig: ctl.sig, Report: req.Report,
		At: &now, Span: req.Span,
	}); err != nil {
		c.mu.Unlock()
		writeJSON(w, ResolveResponse{Status: rejection("wal: %v", err)})
		return
	}
	ctl.state = ctlResolved
	ctl.report = req.Report
	ctl.node = ""
	ctl.resolvedAt = now
	ctl.closeLeaseLocked(req.Term, "resolved", now)
	if req.Span != nil {
		ctl.remoteSpanLocked(req.Term, *req.Span)
	}
	ctl.eventLocked(now, "resolve",
		telemetry.A("node", req.Node), telemetry.A("reproduced", req.Report.Reproduced),
		telemetry.A("verified", req.Report.Verified))
	if n := len(req.Report.Iterations); n > ctl.iterations {
		ctl.iterations = n
	}
	b := ctl.b
	c.resolvedN.Add(1)
	c.maybeCheckpointLocked()
	c.mu.Unlock()
	c.fleet.ResolveBucket(b, req.Report)
	c.journal.Log(telemetry.LevelInfo, "cluster", "bucket resolved",
		telemetry.A("app", req.App), telemetry.A("key", fmt.Sprintf("%#x", req.Key)),
		telemetry.A("node", req.Node), telemetry.A("reproduced", req.Report.Reproduced),
		telemetry.A("verified", req.Report.Verified))
	c.logf("cluster: bucket %s/%#x resolved by %s (reproduced=%v verified=%v)",
		req.App, req.Key, req.Node, req.Report.Reproduced, req.Report.Verified)
	writeJSON(w, ResolveResponse{Status: okStatus()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeReq(w, r, &req, func() int { return req.V }) {
		return
	}
	if req.Failure == nil {
		writeJSON(w, SubmitResponse{Status: rejection("submit without a failure signature")})
		return
	}
	if req.Lost > 0 {
		writeJSON(w, SubmitResponse{Status: rejection("trace ring overflowed (%d bytes lost); enlarge the capture ring", req.Lost)})
		return
	}
	if _, ok := c.base[req.App]; !ok {
		writeJSON(w, SubmitResponse{Status: rejection("unknown app %q", req.App)})
		return
	}
	var ring *pt.Ring
	if len(req.Raw) > 0 {
		ring = pt.NewRing(len(req.Raw))
		ring.Write(req.Raw)
	}
	accepted := c.fleet.Submit(&prod.TraceMsg{
		App:     req.App,
		Machine: req.Machine,
		Version: req.Version,
		Ring:    ring,
		Failure: req.Failure,
		Seed:    req.Seed,
		Instrs:  req.Instrs,
	})
	c.submits.Add(1)
	writeJSON(w, SubmitResponse{Status: okStatus(), Accepted: accepted})
}

func (c *Coordinator) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	snap := c.Snapshot()
	writeJSON(w, VerdictsResponse{Status: okStatus(), Buckets: snap.Buckets})
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Snapshot())
}
