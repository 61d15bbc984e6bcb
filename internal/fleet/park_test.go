package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"execrecon/internal/prod"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// bankCurrent records one failing run of app a on the deployment its
// first machine currently runs and admits it, as a machine would.
func bankCurrent(t *testing.T, f *Fleet, a App) *vm.Result {
	t.Helper()
	dep := f.byName[a.Name].machines[0].Current()
	var rec prod.Recorder
	res, ring := rec.Run(dep.Module, "main", a.Failing(), a.Seed, true, prod.MachineRingSize)
	if res.Failure == nil {
		t.Fatalf("%s v%d: failing workload did not fail", a.Name, dep.Version)
	}
	f.admit(&prod.TraceMsg{
		App: a.Name, Version: dep.Version, Ring: ring,
		Failure: res.Failure, Seed: a.Seed, Instrs: res.Stats.Instrs,
	})
	return res
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetWorkerNotHeldByWait: a bucket waiting on production does not
// hold its worker. With a single worker, gamma stalls and waits for a
// reoccurrence on its instrumented deployment; that reoccurrence is
// held back until beta's bucket, interned after gamma parked, has
// resolved on the same worker. Occurrences are banked by hand, without
// machines, so the interleaving is fixed.
func TestFleetWorkerNotHeldByWait(t *testing.T) {
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	apps := testApps(t)
	beta, gamma := apps[1], apps[2]
	f, err := New([]App{gamma, beta}, Options{Workers: 1, MachinesPerApp: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.worker()
	defer f.stop()

	bankCurrent(t, f, gamma)
	g := f.table.Buckets()[0]
	waitFor(t, "gamma to stall and park", func() bool {
		return g.State() == BucketWaiting && f.byName[gamma.Name].machines[0].Current().Version > 0
	})

	bankCurrent(t, f, beta)
	select {
	case b := <-f.completed:
		if b.App != beta.Name {
			t.Fatalf("bucket %s resolved first, want beta", b.App)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("beta never resolved: the only worker is held by gamma's wait")
	}
	if g.State() != BucketWaiting {
		t.Fatalf("gamma state = %v while its reoccurrence is held back, want waiting", g.State())
	}

	// Release gamma's reoccurrences on its current deployment until it
	// resolves.
	waitFor(t, "gamma to resolve", func() bool {
		if g.resolved.Load() {
			return true
		}
		if g.State() == BucketWaiting {
			bankCurrent(t, f, gamma)
		}
		return false
	})
	for _, b := range f.table.Buckets() {
		if rep := b.report.Load(); rep == nil || !rep.Reproduced || !rep.Verified {
			t.Errorf("bucket %s: report %+v, want reproduced and verified", b.App, rep)
		}
	}
}

// TestFleetParkedShutdown: a bucket still parked when Wait times out
// reports waiting until then and ends failed, with no report, its
// pipeline aborted and its wait span closed — the end a worker blocked
// on the reoccurrence used to reach.
func TestFleetParkedShutdown(t *testing.T) {
	gamma := testApps(t)[2]
	benign := vm.NewWorkload().Add("k", 200, 200, 200, 200, 200, 200, 200, 200, 200, 200)
	// The failure occurs once; the instrumented deployment never sees
	// it again.
	gamma.Gen = func(n int) (*vm.Workload, int64) {
		if n == 0 {
			return gammaWorkload(), gamma.Seed
		}
		return benign.Clone(), gamma.Seed
	}
	reg := telemetry.New()
	tr := telemetry.NewTracer(8)
	f, err := New([]App{gamma}, Options{
		Workers:        1,
		MachinesPerApp: 1,
		Pace:           50 * time.Microsecond,
		Timeout:        200 * time.Millisecond,
		Telemetry:      reg,
		Tracer:         tr,
		ListenAddr:     "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gamma to park", func() bool {
		bs := f.table.Buckets()
		return len(bs) == 1 && bs[0].State() == BucketWaiting
	})

	// Waiting is visible on every surface.
	body, err := httpGet(t, "http://"+f.IntrospectionAddr()+"/debug/er")
	if err != nil {
		t.Fatalf("/debug/er: %v", err)
	}
	var doc struct{ State Snapshot }
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("debug JSON: %v", err)
	}
	if len(doc.State.Buckets) != 1 || doc.State.Buckets[0].State != "waiting" {
		t.Errorf("/debug/er buckets = %+v, want one waiting", doc.State.Buckets)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `er_fleet_buckets{state="waiting"} 1`) {
		t.Errorf("bucket state gauge:\n%s", grepLines(sb.String(), "er_fleet_buckets{"))
	}

	res, err := f.Wait()
	if err == nil {
		t.Fatal("Wait succeeded; want a timeout")
	}
	if len(res.Buckets) != 1 {
		t.Fatalf("buckets = %+v, want one", res.Buckets)
	}
	if b := res.Buckets[0]; b.State != "failed" || b.Report != nil {
		t.Errorf("parked bucket ended %s with report %+v, want failed without one", b.State, b.Report)
	}
	if b := f.table.Buckets()[0]; b.p != nil || b.wait != nil {
		t.Error("parked bucket keeps its run state after shutdown")
	}
	roots := tr.Recent()
	if len(roots) != 1 || roots[0].Attrs["abort"] != "fleet shutdown" {
		t.Fatalf("span trees = %+v, want one aborted at shutdown", roots)
	}
	var waits int
	for _, c := range roots[0].Children {
		if c.Name == "reoccurrence-wait" {
			waits++
			if c.Open {
				t.Error("reoccurrence-wait span left open at shutdown")
			}
		}
	}
	if waits == 0 {
		t.Error("no reoccurrence-wait span")
	}
}
