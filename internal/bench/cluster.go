package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"execrecon/internal/cluster"
)

// FleetClusterOptions configures the multi-node fleet experiment: the
// mixed Table 1 corpus triaged by an in-process cluster (coordinator +
// N triage nodes over loopback HTTP) at each node count, plus an
// optional kill -9 chaos run.
type FleetClusterOptions struct {
	// Nodes is the maximum node count; the experiment runs every
	// count in {1, 2, 4} that is <= Nodes (so -nodes 4 produces the
	// scaling curve, -nodes 2 a smoke).
	Nodes int
	// WorkersPerNode is each node's concurrent-pipeline budget
	// (default 2).
	WorkersPerNode int
	// KillAfter, when > 0, adds a chaos run at the highest node count
	// that kill -9s node 0 that long after start. Every bucket must
	// still resolve (re-dispatch + archive replay) for parity to hold.
	KillAfter time.Duration
	// MachinesPerApp, Pace, Only as in FleetExpOptions.
	MachinesPerApp int
	Pace           time.Duration
	Only           []string
	// Log receives cluster progress lines.
	Log io.Writer
}

// FleetClusterRun is one multi-node run's outcome.
type FleetClusterRun struct {
	Nodes      int
	Killed     bool
	Elapsed    time.Duration
	Resolved   int
	Reproduced int
	Verified   int
	// NodeResolved is the per-node resolved-bucket distribution.
	NodeResolved []int64
	// Redispatched counts buckets re-dispatched after lease expiry.
	Redispatched int64
	// WALBytes is the commit log size at shutdown (post-checkpoint).
	WALBytes int64
}

// FleetClusterResult is the scaling curve plus the optional chaos run.
type FleetClusterResult struct {
	Apps int
	Runs []FleetClusterRun
	// Chaos is the node-kill run (nil when KillAfter was 0).
	Chaos *FleetClusterRun
}

// Parity reports whether every run (chaos included) resolved,
// reproduced, and verified every bucket.
func (r *FleetClusterResult) Parity() bool {
	check := func(run FleetClusterRun) bool {
		return run.Resolved == r.Apps && run.Reproduced == r.Apps && run.Verified == r.Apps
	}
	for _, run := range r.Runs {
		if !check(run) {
			return false
		}
	}
	if r.Chaos != nil && !check(*r.Chaos) {
		return false
	}
	return true
}

func runFleetCluster(nodes int, kill time.Duration, opts FleetClusterOptions) (FleetClusterRun, error) {
	dir, err := os.MkdirTemp("", "er-cluster-*")
	if err != nil {
		return FleetClusterRun{}, err
	}
	defer os.RemoveAll(dir)
	apps, err := fleetApps(opts.Only)
	if err != nil {
		return FleetClusterRun{}, err
	}
	res, err := cluster.RunHarness(cluster.HarnessOptions{
		Apps:           apps,
		Nodes:          nodes,
		WorkersPerNode: opts.WorkersPerNode,
		Dir:            dir,
		KillAfter:      kill,
		MachinesPerApp: opts.MachinesPerApp,
		Pace:           opts.Pace,
		Log:            opts.Log,
	})
	if err != nil {
		return FleetClusterRun{}, err
	}
	run := FleetClusterRun{
		Nodes:        nodes,
		Killed:       kill > 0,
		Elapsed:      res.Fleet.Elapsed,
		NodeResolved: res.NodeResolved,
		Redispatched: res.Cluster.Redispatched,
		WALBytes:     res.Cluster.WALBytes,
	}
	for _, b := range res.Fleet.Buckets {
		run.Resolved++
		if b.Reproduced {
			run.Reproduced++
		}
		if b.Verified {
			run.Verified++
		}
	}
	return run, nil
}

// RunFleetCluster triages the mixed corpus through an in-process
// multi-node cluster at each node count in {1, 2, 4} capped by
// opts.Nodes, then (with KillAfter set) once more under node-kill
// chaos at the highest count.
func RunFleetCluster(opts FleetClusterOptions) (*FleetClusterResult, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("bench: cluster fleet requires -nodes >= 1")
	}
	if opts.WorkersPerNode <= 0 {
		opts.WorkersPerNode = 2
	}
	if opts.MachinesPerApp <= 0 {
		opts.MachinesPerApp = 2
	}
	if opts.Pace == 0 {
		opts.Pace = 100 * time.Millisecond
	}
	fapps, err := fleetApps(opts.Only)
	if err != nil {
		return nil, err
	}
	r := &FleetClusterResult{Apps: len(fapps)}
	var counts []int
	for _, n := range []int{1, 2, 4} {
		if n <= opts.Nodes {
			counts = append(counts, n)
		}
	}
	if len(counts) == 0 || counts[len(counts)-1] != opts.Nodes {
		counts = append(counts, opts.Nodes)
	}
	for _, n := range counts {
		run, err := runFleetCluster(n, 0, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster fleet (%d nodes): %w", n, err)
		}
		r.Runs = append(r.Runs, run)
	}
	if opts.KillAfter > 0 {
		n := counts[len(counts)-1]
		if n < 2 {
			n = 2
		}
		run, err := runFleetCluster(n, opts.KillAfter, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster fleet chaos (%d nodes): %w", n, err)
		}
		r.Chaos = &run
	}
	return r, nil
}

// RenderFleetCluster prints the scaling table and the chaos run.
func RenderFleetCluster(w io.Writer, r *FleetClusterResult) {
	header := []string{"Nodes", "Chaos", "End-to-end", "Scaling", "Resolved", "Reproduced", "Verified", "Redispatched", "Per-node", "WAL"}
	var rows [][]string
	base := time.Duration(0)
	if len(r.Runs) > 0 {
		base = r.Runs[0].Elapsed
	}
	row := func(run FleetClusterRun) []string {
		chaos := "-"
		if run.Killed {
			chaos = "kill -9 node-0"
		}
		scale := "-"
		if base > 0 && run.Elapsed > 0 && !run.Killed {
			scale = fmt.Sprintf("%.2fx", float64(base)/float64(run.Elapsed))
		}
		return []string{
			fmt.Sprintf("%d", run.Nodes),
			chaos,
			run.Elapsed.Round(time.Millisecond).String(),
			scale,
			fmt.Sprintf("%d/%d", run.Resolved, r.Apps),
			fmt.Sprintf("%d/%d", run.Reproduced, r.Apps),
			fmt.Sprintf("%d/%d", run.Verified, r.Apps),
			fmt.Sprintf("%d", run.Redispatched),
			fmt.Sprintf("%v", run.NodeResolved),
			fmt.Sprintf("%dB", run.WALBytes),
		}
	}
	for _, run := range r.Runs {
		rows = append(rows, row(run))
	}
	if r.Chaos != nil {
		rows = append(rows, row(*r.Chaos))
	}
	table(w, header, rows)
	if r.Parity() {
		fmt.Fprintf(w, "\nverdict parity: %d/%d buckets reproduced+verified in every run\n", r.Apps, r.Apps)
	} else {
		fmt.Fprintln(w, "\nverdict parity VIOLATED (see table)")
	}
}
