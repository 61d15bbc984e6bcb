package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the coordinator's /v1/* wire protocol. All methods
// are safe for concurrent use.
type Client struct {
	base string
	node string
	hc   *http.Client
}

// maxIdleConns bounds the client's idle keep-alive connections to the
// coordinator. A node long-polls /v1/fetch once per parked bucket, so
// dozens of requests can finish at once; the default pool of two idle
// connections per host would close and re-dial most of them.
const maxIdleConns = 256

// NewClient returns a client for the coordinator at base (e.g.
// "http://127.0.0.1:9090"). node names this peer in lease and
// liveness bookkeeping ("" for pure submit/query clients).
func NewClient(base, node string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = maxIdleConns
	tr.MaxIdleConnsPerHost = maxIdleConns
	return &Client{
		base: strings.TrimRight(base, "/"),
		node: node,
		// The timeout must clear the coordinator's long-poll window
		// (maxPollWait) with margin, not race it.
		hc: &http.Client{Transport: tr, Timeout: maxPollWait + 10*time.Second},
	}
}

// post round-trips one JSON request; cancelling ctx abandons it.
// Transport and decode errors are returned as errors; protocol-level
// rejections ride in the response envelope (OK=false).
func (cl *Client) post(ctx context.Context, path string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hr, err := cl.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 512))
		return fmt.Errorf("cluster: %s: HTTP %d: %s", path, hr.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		return fmt.Errorf("cluster: decode %s: %w", path, err)
	}
	return nil
}

// Lease asks for the next unleased bucket, long-polling up to wait.
func (cl *Client) Lease(ctx context.Context, wait time.Duration) (*LeaseResponse, error) {
	var resp LeaseResponse
	err := cl.post(ctx, PathLease, &LeaseRequest{
		V: ProtocolVersion, Node: cl.node, WaitMillis: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew heartbeats every lease the request names; each may carry the
// node's latest replay span snapshot, and the request the node's
// runtime vitals.
func (cl *Client) Renew(ctx context.Context, req *RenewRequest) (*RenewResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp RenewResponse
	if err := cl.post(ctx, PathRenew, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Fetch asks for the next banked occurrence matching the cursor,
// long-polling up to wait.
func (cl *Client) Fetch(ctx context.Context, app string, key, term, afterSeq uint64, version int, wait time.Duration) (*FetchResponse, error) {
	var resp FetchResponse
	err := cl.post(ctx, PathFetch, &FetchRequest{
		V: ProtocolVersion, Node: cl.node, App: app, Key: key, Term: term,
		AfterSeq: afterSeq, Version: version, WaitMillis: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Rollout ships the full accumulated site chain for deployment.
func (cl *Client) Rollout(req *RolloutRequest) (*RolloutResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp RolloutResponse
	if err := cl.post(context.Background(), PathRollout, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Resolve commits a finished reconstruction.
func (cl *Client) Resolve(req *ResolveRequest) (*ResolveResponse, error) {
	req.V = ProtocolVersion
	req.Node = cl.node
	var resp ResolveResponse
	if err := cl.post(context.Background(), PathResolve, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Submit ships one externally captured occurrence into the
// coordinator's ingest path.
func (cl *Client) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	req.V = ProtocolVersion
	var resp SubmitResponse
	if err := cl.post(context.Background(), PathSubmit, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Verdicts lists every bucket's triage outcome.
func (cl *Client) Verdicts() (*VerdictsResponse, error) {
	hr, err := cl.hc.Get(cl.base + PathVerdicts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", PathVerdicts, err)
	}
	defer hr.Body.Close()
	var resp VerdictsResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: decode %s: %w", PathVerdicts, err)
	}
	return &resp, nil
}

// State fetches the coordinator's cluster snapshot.
func (cl *Client) State() (*ClusterSnapshot, error) {
	hr, err := cl.hc.Get(cl.base + PathState)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", PathState, err)
	}
	defer hr.Body.Close()
	var snap ClusterSnapshot
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("cluster: decode %s: %w", PathState, err)
	}
	return &snap, nil
}
