package cluster

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

// HarnessOptions configures an in-process multi-node cluster: one
// coordinator plus N triage nodes wired over real HTTP on loopback —
// the `erbench -exp fleet -nodes N` backend and the chaos-test
// substrate.
type HarnessOptions struct {
	// Apps is the application mix (coordinator machines produce their
	// failures; every node can triage every app).
	Apps []fleet.App
	// Nodes is the triage node count (>= 1).
	Nodes int
	// WorkersPerNode is each node's concurrent-pipeline budget
	// (default 2); a node holds more leases than that while buckets
	// wait for reoccurrences.
	WorkersPerNode int
	// TTL is the lease heartbeat deadline (default 500ms — loopback
	// heartbeats are cheap and short TTLs keep re-dispatch snappy).
	TTL time.Duration
	// Dir roots the durable state: Dir/store (trace archive) and
	// Dir/lease.wal (commit log). Required.
	Dir string
	// KillAfter, when > 0, kill -9s node KillNode that long after
	// start — the chaos mode. The run must still resolve every
	// bucket: the victim's leases expire and survivors replay from
	// the archive.
	KillAfter time.Duration
	// KillNode is the victim's index in [0, Nodes) (default 0).
	KillNode int
	// Fleet tuning passed through to the coordinator.
	MachinesPerApp int
	Pace           time.Duration
	Timeout        time.Duration
	// Telemetry, when set, receives the er_fleet_*/er_cluster_*
	// series.
	Telemetry *telemetry.Registry
	// Journal, when set, receives the coordinator's and fleet's
	// structured events.
	Journal *telemetry.Journal
	// Overhead, when set, is the recording-overhead accountant the
	// coordinator's machines and rollouts report into.
	Overhead *telemetry.Overhead
	// NodeTracers, when true, gives every node its own tracer so
	// replay span trees ship back and stitch into bucket timelines.
	NodeTracers bool
	// Log receives progress lines.
	Log io.Writer
}

// HarnessResult is one multi-node run's outcome.
type HarnessResult struct {
	// Fleet is the coordinator fleet's aggregate result.
	Fleet *fleet.Result
	// Cluster is the closing lease-table snapshot.
	Cluster ClusterSnapshot
	// NodeResolved is the per-node resolved-bucket count.
	NodeResolved []int64
	// Killed is the chaos victim's index (-1 without chaos).
	Killed int
	// Timelines is every bucket's stitched end-to-end timeline,
	// captured before shutdown.
	Timelines []BucketTimeline
}

// RunHarness runs an in-process cluster to completion: coordinator on
// an ephemeral loopback port, N nodes leasing over real HTTP, and an
// optional mid-run node kill.
func RunHarness(opts HarnessOptions) (*HarnessResult, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("cluster: harness requires at least one node")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: harness requires a state directory")
	}
	if opts.TTL <= 0 {
		opts.TTL = 500 * time.Millisecond
	}
	if opts.WorkersPerNode <= 0 {
		opts.WorkersPerNode = 2
	}
	if opts.KillAfter > 0 && (opts.KillNode < 0 || opts.KillNode >= opts.Nodes) {
		return nil, fmt.Errorf("cluster: kill node %d out of range [0,%d)", opts.KillNode, opts.Nodes)
	}

	store, err := tracestore.Open(filepath.Join(opts.Dir, "store"), tracestore.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	coord, err := NewCoordinator(opts.Apps, CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: opts.MachinesPerApp,
			Pace:           opts.Pace,
			Timeout:        opts.Timeout,
			Telemetry:      opts.Telemetry,
			Journal:        opts.Journal,
			Overhead:       opts.Overhead,
			Log:            opts.Log,
		},
		Store:   store,
		WALPath: filepath.Join(opts.Dir, "lease.wal"),
		TTL:     opts.TTL,
		Log:     opts.Log,
	})
	if err != nil {
		return nil, err
	}
	if err := coord.Start(); err != nil {
		return nil, err
	}

	nodes := make([]*Node, opts.Nodes)
	for i := range nodes {
		var tracer *telemetry.Tracer
		if opts.NodeTracers {
			tracer = telemetry.NewTracer(0)
		}
		n, err := NewNode(NodeOptions{
			Name:        fmt.Sprintf("node-%d", i),
			Coordinator: coord.URL(),
			Apps:        opts.Apps,
			Workers:     opts.WorkersPerNode,
			Tracer:      tracer,
			Log:         opts.Log,
		})
		if err == nil {
			err = n.Start()
		}
		if err != nil {
			coord.Crash()
			for _, m := range nodes[:i] {
				m.Close()
			}
			return nil, err
		}
		nodes[i] = n
	}

	killed := -1
	var killTimer *time.Timer
	if opts.KillAfter > 0 {
		victim := nodes[opts.KillNode]
		killed = opts.KillNode
		killTimer = time.AfterFunc(opts.KillAfter, func() {
			victim.Kill()
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "harness: killed node-%d after %v\n", opts.KillNode, opts.KillAfter)
			}
		})
	}

	res, werr := coord.Wait()
	if killTimer != nil {
		killTimer.Stop()
	}
	for _, n := range nodes {
		n.Close()
	}
	out := &HarnessResult{
		Fleet:     res,
		Cluster:   coord.Snapshot(),
		Killed:    killed,
		Timelines: coord.Timelines(),
	}
	for _, n := range nodes {
		out.NodeResolved = append(out.NodeResolved, n.Resolved())
	}
	return out, werr
}
