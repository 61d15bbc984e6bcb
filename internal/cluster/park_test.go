package cluster

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
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

// fetchLog is a RoundTripper that counts every request by path and
// timestamps every /v1/fetch attempt by bucket key before passing the
// request on.
type fetchLog struct {
	next  http.RoundTripper
	mu    sync.Mutex
	at    map[uint64][]time.Time
	calls map[string]int
}

func (f *fetchLog) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls[r.URL.Path]++
	f.mu.Unlock()
	if r.URL.Path == PathFetch {
		var req FetchRequest
		body, _ := r.GetBody()
		if err := json.NewDecoder(body).Decode(&req); err == nil {
			f.mu.Lock()
			f.at[req.Key] = append(f.at[req.Key], time.Now())
			f.mu.Unlock()
		}
	}
	return f.next.RoundTrip(r)
}

func (f *fetchLog) attempts(key uint64) []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.at[key]...)
}

func (f *fetchLog) requests(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[path]
}

// TestNodeFetchBackoff: parked leases whose coordinator is gone log one
// "fetch failed" each, and each retries on a doubling schedule from
// 100 ms capped at the heartbeat period, not every 100 ms. The lease
// loop and the heartbeat fail throughout too, and each logs one
// warning for its failure streak.
func TestNodeFetchBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close() // every request is refused

	ring := telemetry.NewEventRing(nil, nil)
	apps := testApps(t)[:1]
	n, err := NewNode(NodeOptions{Name: "n0", Coordinator: url, Apps: apps, Workers: 1, Logger: slog.New(ring)})
	if err != nil {
		t.Fatal(err)
	}
	fl := &fetchLog{next: n.client.hc.Transport, at: make(map[uint64][]time.Time), calls: make(map[string]int)}
	n.client.hc.Transport = fl
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const ttl = 900 * time.Millisecond
	hb := ttl / 3
	keys := []uint64{1, 2, 3}
	for _, k := range keys {
		l := n.accept(&LeaseResponse{Granted: true, App: apps[0].Name, Key: k, Term: 1,
			TTLMillis: ttl.Milliseconds()})
		l.Parked()
	}
	// Waits: 100, 200, 300, 300, 300 ms (doubling, capped at TTL/3).
	const want = 6
	waitUntil(t, "six fetch attempts per lease", 30*time.Second, func() bool {
		for _, k := range keys {
			if len(fl.attempts(k)) < want {
				return false
			}
		}
		return true
	})

	for _, k := range keys {
		at := fl.attempts(k)[:want]
		wait := retryMin
		for i := 1; i < len(at); i++ {
			// A retry never comes before its wait is up, and once the
			// wait is capped it never stretches towards a doubled one.
			gap := at[i].Sub(at[i-1])
			if gap < wait-5*time.Millisecond || (wait == hb && gap >= 2*hb) {
				t.Errorf("key %d: retry %d came %v after the last, want %v (capped at %v)", k, i, gap, wait, hb)
			}
			wait = min(2*wait, hb)
		}
	}
	failed := make(map[string]int)
	warns := make(map[string]int)
	for _, line := range ring.Recent(slog.LevelWarn, 0) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprint(rec["msg"])
		warns[msg]++
		if msg == "fetch failed" {
			failed[fmt.Sprint(rec["key"])]++
		}
	}
	for _, k := range keys {
		if got := failed[hexKey(k)]; got != 1 {
			t.Errorf("key %d: %d \"fetch failed\" events, want 1 per failure streak (all: %v)", k, got, failed)
		}
	}
	for _, c := range []struct{ msg, path string }{
		{"lease request failed", PathLease},
		{"renew failed", PathRenew},
	} {
		if n := fl.requests(c.path); n < 2 {
			t.Errorf("%s: %d attempts, want a failure streak of at least 2", c.path, n)
		}
		if got := warns[c.msg]; got != 1 {
			t.Errorf("%d %q events over %d attempts, want 1 per failure streak (all: %v)", got, c.msg, fl.requests(c.path), warns)
		}
	}
}
