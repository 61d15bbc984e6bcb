package cluster

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// gated makes app a's machines fail only while open holds, except that
// a machine's first run fails when first is set. With one machine per
// app, a stalling app then sees exactly one occurrence on its base
// deployment, and its reoccurrence on the instrumented one waits for
// the test to open the gate.
func gated(a fleet.App, benign *vm.Workload, open *atomic.Bool, first bool) fleet.App {
	fail := a.Failing
	a.Gen = func(n int) (*vm.Workload, int64) {
		if (first && n == 0) || open.Load() {
			return fail(), a.Seed
		}
		return benign.Clone(), a.Seed
	}
	return a
}

// gammaBenign runs gamma's loop without reaching the assertion.
func gammaBenign() *vm.Workload {
	return vm.NewWorkload().Add("k", 200, 200, 200, 200, 200, 200, 200, 200, 200, 200)
}

// startCluster starts a coordinator over a fresh archive and WAL, with
// one machine per app.
func startCluster(t *testing.T, apps []fleet.App, ttl time.Duration, reg *telemetry.Registry) *Coordinator {
	t.Helper()
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: 1,
			Pace:           time.Millisecond,
			Timeout:        90 * time.Second,
			Telemetry:      reg,
		},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
		TTL:     ttl,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return coord
}

func startNode(t *testing.T, coord *Coordinator, name string, apps []fleet.App, tracer *telemetry.Tracer) *Node {
	t.Helper()
	n, err := NewNode(NodeOptions{Name: name, Coordinator: coord.URL(), Apps: apps, Workers: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	return n
}

// parkedLeases counts the leases n holds whose buckets are parked.
func (n *Node) parkedLeases() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	parked := 0
	for _, l := range n.held {
		if l.job.State() == fleet.BucketWaiting {
			parked++
		}
	}
	return parked
}

func resolvedApp(snap ClusterSnapshot, app string) bool {
	for _, b := range snap.Buckets {
		if b.App == app && b.State == "resolved" {
			return true
		}
	}
	return false
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterNodeNotHeldByWait: a leased bucket waiting on production
// does not hold the node's worker. With one worker, gamma stalls and
// waits for a reoccurrence on its instrumented deployment; that
// reoccurrence is held back until alpha, which starts failing only once
// gamma is leased, has resolved on the same node.
func TestClusterNodeNotHeldByWait(t *testing.T) {
	var release, alphaGo atomic.Bool
	base := testApps(t)
	gamma := gated(base[2], gammaBenign(), &release, true)
	alpha := gated(base[0], vm.NewWorkload().Add("x", 0), &alphaGo, false)
	apps := []fleet.App{gamma, alpha}
	coord := startCluster(t, apps, 0, nil)
	node := startNode(t, coord, "n0", apps, nil)
	defer node.Close()

	waitUntil(t, "gamma's lease", 30*time.Second, func() bool { return coord.Snapshot().Granted >= 1 })
	alphaGo.Store(true)
	deadline := time.Now().Add(20 * time.Second)
	for !resolvedApp(coord.Snapshot(), "alpha") {
		if time.Now().After(deadline) {
			release.Store(true)
			coord.Crash()
			t.Fatal("alpha never resolved: the node's only worker is held by gamma's wait")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resolvedApp(coord.Snapshot(), "gamma") {
		t.Fatal("gamma resolved while its reoccurrence was held back")
	}
	release.Store(true)
	res, err := coord.Wait()
	node.Close()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkParity(t, res, apps)
	if node.Resolved() != 2 {
		t.Errorf("node resolved %d buckets, want 2", node.Resolved())
	}
}

// TestClusterParkedLeaseRenews: the node heartbeat renews a parked
// bucket's lease, so a TTL shorter than the reoccurrence wait never
// expires it.
func TestClusterParkedLeaseRenews(t *testing.T) {
	var release atomic.Bool
	apps := []fleet.App{gated(testApps(t)[2], gammaBenign(), &release, true)}
	const ttl = 200 * time.Millisecond
	reg := telemetry.New()
	coord := startCluster(t, apps, ttl, reg)
	node := startNode(t, coord, "n0", apps, nil)
	defer node.Close()

	waitUntil(t, "gamma to park", 30*time.Second, func() bool { return node.parkedLeases() == 1 })
	// Six renewals at TTL/3 span two TTLs of waiting.
	before := coord.Snapshot().Renewed
	waitUntil(t, "six renewals of the parked lease", 30*time.Second, func() bool {
		return coord.Snapshot().Renewed-before >= 6
	})
	if node.parkedLeases() != 1 {
		t.Fatal("gamma no longer parked while its reoccurrence is held back")
	}
	if snap := coord.Snapshot(); snap.Expired != 0 {
		t.Errorf("parked lease expired %d times", snap.Expired)
	}

	release.Store(true)
	res, err := coord.Wait()
	node.Close()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkParity(t, res, apps)
	if snap := coord.Snapshot(); snap.Expired != 0 || snap.Redispatched != 0 || node.Resolved() != 1 {
		t.Errorf("expired %d, redispatched %d, node resolved %d; want 0, 0, 1",
			snap.Expired, snap.Redispatched, node.Resolved())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, sb.String(), "er_cluster_leases_expired_total"); v != 0 {
		t.Errorf("er_cluster_leases_expired_total = %v, want 0", v)
	}
}
