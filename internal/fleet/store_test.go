package fleet

import (
	"context"
	"os"
	"slices"
	"testing"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// TestFleetWithStore runs the stress fleet with a caller-owned trace
// archive wired in (run with -race): every ingested reoccurrence is
// archived delta-compressed, verdicts stay identical to the store-less
// fleet, the snapshot surfaces archive stats, and every appended
// record is still reachable after the run.
func TestFleetWithStore(t *testing.T) {
	apps := testApps(t)
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	defer store.Close()

	f, err := New(apps, Options{
		Workers:        4,
		MachinesPerApp: 3,
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
		Store:          store,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	_ = f.Snapshot() // live stats surface mid-run

	res, err := f.Wait()
	if err != nil {
		t.Fatalf("Wait: %v\nsnapshot: %+v", err, f.Snapshot())
	}
	if len(res.Buckets) != 3 {
		t.Fatalf("buckets = %d, want 3: %+v", len(res.Buckets), res.Buckets)
	}
	for _, b := range res.Buckets {
		if !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s: reproduced=%v verified=%v (report %+v)",
				b.App, b.Reproduced, b.Verified, b.Report)
		}
	}
	final := res.Final
	// Every drained message was archived: accepted messages are either
	// still sitting in a shard queue at shutdown (bounded by the total
	// ingest capacity) or went through the archive append.
	backlog := int64(ingestShards * ingestQueueCap)
	if final.Store.Appends < final.Accepted-backlog {
		t.Errorf("archive appends %d < accepted %d - backlog %d", final.Store.Appends, final.Accepted, backlog)
	}
	if len(store.Keys()) < 3 {
		t.Errorf("archive keys = %d, want >= 3 (one per signature)", len(store.Keys()))
	}
	// Resolution removes nothing: every record appended during the run
	// is still reachable through Next.
	var reachable int64
	all := func(tracestore.RecordInfo) bool { return true }
	for _, key := range store.Keys() {
		for from := uint64(0); ; {
			_, next, ok := store.Next(key, from, all)
			if !ok {
				break
			}
			reachable++
			from = next
		}
	}
	if st := store.Stats(); reachable != st.Appends || st.Records != st.Appends {
		t.Errorf("reachable records = %d, stats %+v; want every append reachable", reachable, st)
	}
}

// TestArchiveCursor pins the one delivery path deterministically: a
// bucket's pipeline is fed exactly the archived records at or after its
// cursor that its own app recorded on the current deployment with an
// unwrapped ring, in seq order. Records of a stale deployment and
// wrapped rings are skipped with accounting; another app's records
// under the same key are left to that app's bucket. Once nothing
// matches, the bucket parks, and one banked occurrence re-queues it
// exactly once.
func TestArchiveCursor(t *testing.T) {
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	apps := testApps(t)
	f, err := New(apps, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	defer f.cancel()

	sig := &vm.Failure{Kind: vm.FailAssert, Func: "shared", InstrID: 3, Stack: []string{"main", "shared"}}
	makeMsg := func(app string, seed int64, version, ringSize int) *prod.TraceMsg {
		ring := pt.NewRing(ringSize)
		enc := pt.NewEncoder(ring)
		enc.Chunk(0, 0)
		for i := 0; i < 50; i++ {
			enc.TNT(i%2 == 0)
		}
		enc.Finish()
		return &prod.TraceMsg{
			App: app, Version: version, Ring: ring,
			Failure: sig, Seed: seed, Instrs: 100 + seed,
		}
	}
	for _, msg := range []*prod.TraceMsg{
		makeMsg("alpha", 0, 0, 1<<16), // seq 0: delivered
		makeMsg("alpha", 1, 1, 1<<16), // seq 1: another deployment
		makeMsg("beta", 2, 0, 1<<16),  // seq 2: another app, same key
		makeMsg("alpha", 3, 0, 4),     // seq 3: wrapped ring
		makeMsg("alpha", 4, 0, 1<<16), // seq 4: delivered
	} {
		f.admit(msg)
	}
	buckets := f.table.Buckets()
	if len(buckets) != 2 || buckets[0].App != "alpha" || buckets[1].App != "beta" {
		t.Fatalf("buckets = %+v, want alpha and beta", buckets)
	}
	key := tracestore.KeyOf(sig)
	start := func(b *Bucket, app App) {
		t.Helper()
		p, err := core.NewPipeline(core.Config{Module: app.Module})
		if err != nil {
			t.Fatal(err)
		}
		b.p, b.key = p, key
	}
	feed := func(b *Bucket, app App, wantSeeds ...int64) {
		t.Helper()
		start(b, app)
		for _, want := range wantSeeds {
			occ, _ := f.runner.next(&b.Job)
			if occ == nil {
				t.Fatalf("%s: no occurrence (want seed %d)", b.App, want)
			}
			if occ.Seed != want || occ.Result.Failure != b.Sig || occ.Result.Stats.Instrs != 100+want {
				t.Fatalf("%s: occurrence = %+v, want seed %d", b.App, occ, want)
			}
			n := 0
			for occ.Events.Next() != nil {
				n++
			}
			if n != 51 { // Chunk + 50 TNTs
				t.Fatalf("%s seed %d: streamed %d events, want 51", b.App, want, n)
			}
		}
		if b.cursor != 5 && b.App == "alpha" {
			t.Fatalf("alpha cursor = %d after its last record, want 5", b.cursor)
		}
	}
	feed(buckets[0], apps[0], 0, 4)
	feed(buckets[1], apps[1], 2)
	if got := buckets[0].staleDrops.Load(); got != 1 {
		t.Errorf("alpha staleDrops = %d, want 1", got)
	}
	if got := buckets[0].badDrops.Load(); got != 1 {
		t.Errorf("alpha badDrops = %d, want 1", got)
	}
	if s, b := buckets[1].staleDrops.Load(), buckets[1].badDrops.Load(); s != 0 || b != 0 {
		t.Errorf("beta drops = %d stale, %d bad; want none", s, b)
	}

	// Nothing further matches: the lookup parks the bucket and returns
	// nil without blocking, and the drops are not counted again.
	alpha := buckets[0]
	start(alpha, apps[0])
	alpha.cursor = 5
	if occ, _ := f.runner.next(&alpha.Job); occ != nil {
		t.Fatalf("occurrence past the last record: %+v", occ)
	}
	if !alpha.parked || alpha.State() != BucketWaiting {
		t.Fatalf("alpha parked = %v, state %v; want parked and waiting", alpha.parked, alpha.State())
	}
	if s, b := alpha.staleDrops.Load(), alpha.badDrops.Load(); s != 1 || b != 1 {
		t.Errorf("alpha drops after parking = %d stale, %d bad; want 1 and 1", s, b)
	}
	// One banked occurrence re-queues the parked bucket, exactly once.
	triage := localTriage{f}
	triage.Banked(alpha, 5)
	triage.Banked(alpha, 6)
	if got := f.runner.ready.pop(); got != &alpha.Job {
		t.Fatalf("ready queue = %v, want alpha", got)
	}
	if got := f.runner.ready.pop(); got != nil {
		t.Fatal("alpha queued twice")
	}
	if snap := f.Snapshot(); snap.Store.Records != 5 {
		t.Fatalf("snapshot store stats = %+v", snap.Store)
	}
}

// Programs whose failures share the scheduler-level deadlock
// signature, and so one archive key.
const lockASrc = `
func worker() {
	lock(1);
	unlock(1);
}
func main() int {
	int x = input32("x");
	if (x == 7) { lock(1); }
	long t = spawn worker();
	join(t);
	return 0;
}`

const lockBSrc = `
func worker() {
	lock(2);
	unlock(2);
}
func main() int {
	int y = input32("y");
	if (y == 9) { lock(2); }
	long t = spawn worker();
	join(t);
	return 0;
}`

// TestFleetSharedKeyReplay: buckets intern by (app, signature), the
// archive keys by signature alone. When one app resolves, every record
// another app sharing the key banked is still there to replay, and an
// app interned on the key afterwards resolves from the archive too.
func TestFleetSharedKeyReplay(t *testing.T) {
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	apps := []App{
		{Name: "lockA", Module: compile(t, "lockA", lockASrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 7) }, Seed: 1},
		{Name: "lockB", Module: compile(t, "lockB", lockBSrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("y", 9) }, Seed: 1},
		{Name: "lockC", Module: compile(t, "lockC", lockASrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 7) }, Seed: 1},
	}
	f, err := New(apps, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Drive triage and the pipelines by hand, without machines, so the
	// interleaving is fixed.
	f.ctx, f.cancel = context.WithCancel(context.Background())
	defer f.cancel()
	bank := func(a App, n int) {
		for i := 0; i < n; i++ {
			if res := bankCurrent(t, f, a); res.Failure.Kind != vm.FailDeadlock {
				t.Fatalf("%s: failing run = %v, want a deadlock", a.Name, res.Failure)
			}
		}
	}
	// lockB's records sit strictly inside the key's history.
	bank(apps[0], 1)
	bank(apps[1], 3)
	bank(apps[0], 1)
	<-f.work
	<-f.work
	bA, bB := f.table.Buckets()[0], f.table.Buckets()[1]
	if bA.App != "lockA" || bB.App != "lockB" {
		t.Fatalf("scheduled %s, %s; want lockA, lockB", bA.App, bB.App)
	}
	key := tracestore.KeyOf(bA.Sig)
	if tracestore.KeyOf(bB.Sig) != key {
		t.Fatal("fixture broken: the deadlocks do not share an archive key")
	}

	f.runner.run(&bA.Job)
	if !bA.resolved.Load() {
		t.Fatal("lockA did not resolve from its banked occurrences")
	}
	// Every record lockB banked still replays after lockA resolved.
	var seqs []uint64
	isB := func(ri tracestore.RecordInfo) bool { return ri.Meta.App == "lockB" }
	for from := uint64(0); ; {
		info, next, ok := store.Next(key, from, isB)
		if !ok {
			break
		}
		r, err := store.OpenEvents(key, info.Seq)
		if err != nil {
			t.Fatalf("OpenEvents(seq %d): %v", info.Seq, err)
		}
		for r.Next() != nil {
		}
		if err := r.Err(); err != nil {
			t.Fatalf("replay of seq %d: %v", info.Seq, err)
		}
		seqs = append(seqs, info.Seq)
		from = next
	}
	if !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("lockB records after lockA resolved = %v, want [1 2 3]", seqs)
	}
	// run parks, rather than blocks, when nothing is left to feed.
	f.runner.run(&bB.Job)
	if !bB.resolved.Load() {
		t.Fatalf("lockB never resolved (state %v)", bB.State())
	}
	// A third app hitting the same deadlock after both resolved replays
	// its record from the archive.
	bank(apps[2], 1)
	<-f.work
	bC := f.table.Buckets()[2]
	if bC.App != "lockC" || tracestore.KeyOf(bC.Sig) != key {
		t.Fatalf("third bucket = %s, want lockC on the shared key", bC.App)
	}
	f.runner.run(&bC.Job)
	for _, b := range []*Bucket{bA, bB, bC} {
		if rep := b.report.Load(); rep == nil || !rep.Reproduced || !rep.Verified {
			t.Errorf("bucket %s: report %+v, want reproduced and verified", b.App, rep)
		}
	}
}

// TestFleetPrivateStoreRemoved: a fleet run without Options.Store
// banks into a private archive in a temporary directory and removes
// it on shutdown, whether through Wait or Abandon.
func TestFleetPrivateStoreRemoved(t *testing.T) {
	for _, abandon := range []bool{false, true} {
		name := "wait"
		if abandon {
			name = "abandon"
		}
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			f, err := New(testApps(t)[:1], Options{
				MachinesPerApp: 1,
				Pace:           50 * time.Microsecond,
				Timeout:        60 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Start(); err != nil {
				t.Fatal(err)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 1 {
				t.Fatalf("temp dir holds %d entries while running, want the private store", len(entries))
			}
			if abandon {
				f.Abandon()
			} else if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
				t.Fatalf("temp dir still holds %v after shutdown", entries)
			}
		})
	}
}
