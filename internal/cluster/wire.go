// Package cluster distributes the fleet's triage tier across
// processes: a coordinator owns the production half (producer
// machines, ingest, the bucket table, and the durable trace archive)
// and leases failure buckets to remote triage nodes over a versioned
// HTTP/JSON wire protocol layered on the telemetry introspection
// endpoint.
//
// The design leans on two durability anchors:
//
//   - The tracestore is the source of truth for occurrences. In
//     remote-node mode the fleet never queues reoccurrences in RAM —
//     every one is banked in the archive and nodes *fetch* them over
//     the wire, each tracking its own replay cursor. A node that dies
//     mid-reconstruction loses nothing: the survivor that inherits the
//     bucket replays the same banked records from sequence zero.
//   - A write-ahead lease/commit log (wal.go) makes the coordinator
//     itself restartable: lease grants, renewals, expiries, rollouts,
//     and resolutions are appended before they take effect, and a
//     restarted coordinator replays the log to recover resolved
//     verdicts (never re-counting them) and to fence still-in-flight
//     leases (their terms stay monotonic; the buckets are
//     re-dispatched, never re-armed).
//
// Buckets are leases: a grant carries a monotonically increasing term
// and a TTL; a node renews every lease it holds in one heartbeat at
// TTL/3, and every RPC (renew, fetch, rollout, resolve) carries the
// term, so a node whose lease expired — because it crashed, stalled,
// or was partitioned — is fenced the moment it reappears: the
// coordinator names the lease lost and the zombie abandons the bucket.
//
// A node runs its leases on the fleet's bucket runner: a leased bucket
// with nothing banked parks and releases its worker, and a long-poll
// on /v1/fetch that holds no worker wakes it. A node therefore holds
// many more leases than it has workers.
//
// Rollouts are stateless on the wire: a node ships the *full*
// accumulated instrumentation-site chain, and the coordinator rebuilds
// the instrumented module from the app's base module by applying the
// chain cumulatively (keyselect.Instrument is pure), so rollout
// requests are idempotent and survive coordinator restarts.
package cluster

import (
	"execrecon/internal/core"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// ProtocolVersion is the wire protocol revision. Every request and
// response carries it in V; the coordinator rejects mismatches with
// OK=false so mixed deployments fail loudly instead of corrupting a
// reconstruction.
//
// v2 added span snapshots on renew/resolve, piggybacked node health on
// renewals, and recording-cost attribution on rollouts. v3 batches
// renewals: one heartbeat renews every lease a node holds and the
// response names each lost one.
//
// Dropping the grant's "trace" span context did not bump the version:
// a field one side omits decodes to its zero value on the other, an
// older coordinator's "trace" is ignored by a newer node, and an older
// node opens its replay tree as a fresh root when the field is absent.
// Either way the coordinator attaches the replay tree by bucket and
// term, as it always has.
const ProtocolVersion = 3

// Wire paths (mounted on the coordinator's telemetry mux).
const (
	PathLease    = "/v1/lease"
	PathRenew    = "/v1/renew"
	PathFetch    = "/v1/fetch"
	PathRollout  = "/v1/rollout"
	PathResolve  = "/v1/resolve"
	PathSubmit   = "/v1/submit"
	PathVerdicts = "/v1/verdicts"
	PathState    = "/v1/state"
)

// Status is the common response envelope: OK=false carries a
// protocol-level rejection (stale term, lost lease, version mismatch)
// in Err; transport/encoding failures use HTTP status codes instead.
type Status struct {
	V   int    `json:"v"`
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// LeaseRequest asks the coordinator for the next unleased bucket. The
// coordinator long-polls up to WaitMillis before answering
// Granted=false.
type LeaseRequest struct {
	V          int    `json:"v"`
	Node       string `json:"node"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
}

// LeaseResponse grants (or declines) a bucket lease. Key is the
// bucket's archive key; Sig the full failure signature (keys can
// collide, signatures cannot); Term the fencing token every follow-up
// RPC must echo; TTLMillis the heartbeat deadline.
type LeaseResponse struct {
	Status
	Granted   bool        `json:"granted"`
	App       string      `json:"app,omitempty"`
	Key       uint64      `json:"key,omitempty"`
	Sig       *vm.Failure `json:"sig,omitempty"`
	Term      uint64      `json:"term,omitempty"`
	TTLMillis int64       `json:"ttl_millis,omitempty"`
}

// NodeHealth is the node-side runtime vitals piggybacked on every
// heartbeat — the coordinator surfaces them as er_node_* gauges.
type NodeHealth struct {
	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`
	Buckets    int    `json:"buckets"` // leases currently held
}

// LeaseRef names one lease: the bucket and the term it was granted
// under.
type LeaseRef struct {
	App  string `json:"app"`
	Key  uint64 `json:"key"`
	Term uint64 `json:"term"`
}

// LeaseRenewal is one held lease in a heartbeat. Iterations reports
// reconstruction progress for the lease table; Span is the latest
// snapshot of the node's replay span tree (the coordinator keeps the
// newest per term, so even a node that dies mid-reconstruction leaves
// its partial subtree on the timeline).
type LeaseRenewal struct {
	LeaseRef
	Iterations int                     `json:"iterations,omitempty"`
	Span       *telemetry.SpanSnapshot `json:"span,omitempty"`
}

// RenewRequest is the node heartbeat (sent at TTL/3): it renews every
// lease the node holds, whether its bucket is running, parked or not
// yet started, and carries the node's vitals in Health.
type RenewRequest struct {
	V      int            `json:"v"`
	Node   string         `json:"node"`
	Leases []LeaseRenewal `json:"leases"`
	Health *NodeHealth    `json:"health,omitempty"`
}

// RenewResponse names in Lost every lease of the request the node no
// longer holds (expired and re-dispatched, or fenced by a newer term);
// the node must abandon those buckets immediately and keeps the rest.
type RenewResponse struct {
	Status
	Lost []LeaseRef `json:"lost,omitempty"`
}

// FetchRequest asks for the next banked occurrence of the leased
// bucket: the first archived record with sequence >= AfterSeq whose
// metadata matches the node's app and current deployment version.
// The node owns its replay cursor (AfterSeq), which keeps the
// coordinator stateless per fetch and makes re-dispatch a replay from
// zero. The coordinator long-polls up to WaitMillis when nothing
// matches yet: a node asks without waiting while a worker drives the
// bucket, and long-polls only while the bucket is parked.
type FetchRequest struct {
	V          int    `json:"v"`
	Node       string `json:"node"`
	App        string `json:"app"`
	Key        uint64 `json:"key"`
	Term       uint64 `json:"term"`
	AfterSeq   uint64 `json:"after_seq"`
	Version    int    `json:"version"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
}

// FetchResponse carries one banked occurrence (Found) or nothing
// matched within the poll window (!Found, poll again). Raw is the
// materialized trace blob (empty for untraced occurrences); Lost the
// ring bytes lost to wrapping.
type FetchResponse struct {
	Status
	Found  bool   `json:"found"`
	Seq    uint64 `json:"seq,omitempty"`
	Raw    []byte `json:"raw,omitempty"`
	Lost   uint64 `json:"lost,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Instrs int64  `json:"instrs,omitempty"`
}

// RolloutRequest asks the coordinator to deploy the node's
// re-instrumented module to the app's producer machines. Chain is the
// *full* accumulated site chain (one entry per stall iteration);
// Version must equal len(Chain). Shipping the whole chain instead of
// the module keeps the request stateless and idempotent: the
// coordinator rebuilds the module from the app's base by applying the
// chain cumulatively.
type RolloutRequest struct {
	V       int               `json:"v"`
	Node    string            `json:"node"`
	App     string            `json:"app"`
	Key     uint64            `json:"key"`
	Term    uint64            `json:"term"`
	Version int               `json:"version"`
	Chain   [][]symex.SiteKey `json:"chain"`
	// Sites/CostBytes attribute the version's recording-set cost (site
	// count, estimated per-occurrence bytes) to the overhead
	// accountant's (app, version) ledger cell.
	Sites     int   `json:"sites,omitempty"`
	CostBytes int64 `json:"cost_bytes,omitempty"`
}

// RolloutResponse acknowledges (or fences) a rollout.
type RolloutResponse struct {
	Status
}

// ResolveRequest commits a finished reconstruction: the node's full
// pipeline report, including the reproducing test case and the
// verification verdict.
type ResolveRequest struct {
	V      int          `json:"v"`
	Node   string       `json:"node"`
	App    string       `json:"app"`
	Key    uint64       `json:"key"`
	Term   uint64       `json:"term"`
	Report *core.Report `json:"report"`
	// Span is the node's finished replay span tree for this lease —
	// the final remote subtree of the bucket timeline, persisted with
	// the resolution so stitched timelines survive coordinator
	// restarts.
	Span *telemetry.SpanSnapshot `json:"span,omitempty"`
}

// ResolveResponse acknowledges (or fences) a resolution.
type ResolveResponse struct {
	Status
}

// SubmitRequest ships one externally captured failure occurrence into
// the coordinator's ingest path — er's client mode. Raw is the trace
// ring contents; a wrapped ring (Lost > 0) is rejected, since triage
// cannot decode a blob missing its prefix.
type SubmitRequest struct {
	V       int         `json:"v"`
	App     string      `json:"app"`
	Machine int         `json:"machine,omitempty"`
	Version int         `json:"version"`
	Failure *vm.Failure `json:"failure"`
	Raw     []byte      `json:"raw,omitempty"`
	Lost    uint64      `json:"lost,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Instrs  int64       `json:"instrs,omitempty"`
}

// SubmitResponse reports whether ingest accepted the occurrence.
type SubmitResponse struct {
	Status
	Accepted bool `json:"accepted"`
}

// BucketVerdict is one bucket's triage outcome as served by
// /v1/verdicts.
type BucketVerdict struct {
	App          string `json:"app"`
	Key          uint64 `json:"key"`
	Sig          string `json:"sig"`
	State        string `json:"state"`
	Node         string `json:"node,omitempty"`
	Term         uint64 `json:"term"`
	Iterations   int    `json:"iterations"`
	Redispatches int    `json:"redispatches"`
	Reproduced   bool   `json:"reproduced"`
	Verified     bool   `json:"verified"`
	FailReason   string `json:"fail_reason,omitempty"`
}

// VerdictsResponse lists every bucket the coordinator knows about.
type VerdictsResponse struct {
	Status
	Buckets []BucketVerdict `json:"buckets"`
}

// NodeInfo is one triage node's liveness row, including the vitals
// the node piggybacks on heartbeats.
type NodeInfo struct {
	Name       string `json:"name"`
	Leases     int    `json:"leases"`
	LastSeen   string `json:"last_seen"`
	Goroutines int    `json:"goroutines,omitempty"`
	HeapBytes  uint64 `json:"heap_bytes,omitempty"`
	Buckets    int    `json:"buckets,omitempty"`
}

// ClusterSnapshot is the coordinator's cluster section of /debug/er
// (and the /v1/state body): node liveness, the lease table, and the
// re-dispatch / WAL counters that tell the crash-tolerance story.
type ClusterSnapshot struct {
	V            int             `json:"v"`
	Nodes        []NodeInfo      `json:"nodes"`
	NodesLive    int             `json:"nodes_live"`
	Buckets      []BucketVerdict `json:"buckets"`
	Granted      int64           `json:"leases_granted"`
	Renewed      int64           `json:"leases_renewed"`
	Expired      int64           `json:"leases_expired"`
	Redispatched int64           `json:"leases_redispatched"`
	Resolved     int64           `json:"buckets_resolved"`
	Submits      int64           `json:"submits"`
	WALBytes     int64           `json:"wal_bytes"`
	Recovered    int             `json:"recovered_buckets"`
}
