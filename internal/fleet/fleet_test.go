package fleet

import (
	"sync"
	"testing"
	"time"

	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/prod"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

func compile(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	mod, err := minc.Compile(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return mod
}

// Three fleet apps with distinct failure signatures. gamma stalls on
// a long symbolic write chain under a small solver budget, forcing
// key-data-value selection, re-instrumentation, and a fleet rollout.
const alphaSrc = `
func main() int {
	int x = input32("x");
	assert(x != 42, "alpha bug");
	return 0;
}`

const betaSrc = `
func check(int v) {
	assert(v != 7, "beta bug");
}
func main() int {
	check(input32("y"));
	return 0;
}`

const gammaSrc = `
int m[256];
func main() int {
	int i = 0;
	while (i < 10) {
		int k = input32("k");
		if (k < 0 || k >= 250) { return 0; }
		m[k] = m[k + 1] + 1;
		i = i + 1;
	}
	assert(m[60] != 3, "gamma chain");
	return 0;
}`

func gammaWorkload() *vm.Workload {
	w := vm.NewWorkload().Add("k", 62, 61, 60)
	for i := 0; i < 7; i++ {
		w.Add("k", 200)
	}
	return w
}

func testApps(t *testing.T) []App {
	t.Helper()
	return []App{
		{
			Name:    "alpha",
			Module:  compile(t, "alpha", alphaSrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 42) },
			Seed:    1,
		},
		{
			Name:    "beta",
			Module:  compile(t, "beta", betaSrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("y", 7) },
			Seed:    1,
		},
		{
			Name:    "gamma",
			Module:  compile(t, "gamma", gammaSrc),
			Failing: gammaWorkload,
			Seed:    1,
			Symex:   symex.Options{QueryBudget: 30_000},
		},
	}
}

// TestFleetStress is the acceptance stress test: >= 8 producer
// machines and >= 4 pipeline workers over >= 3 distinct failure
// signatures, one of which (gamma) stalls and forces an instrumented
// rollout mid-fleet. Run with -race.
func TestFleetStress(t *testing.T) {
	apps := testApps(t)
	f, err := New(apps, Options{
		Workers:        4,
		MachinesPerApp: 3, // 9 producers total
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Exercise the live stats surface mid-run.
	_ = f.Snapshot()

	res, err := f.Wait()
	if err != nil {
		t.Fatalf("Wait: %v\nsnapshot: %+v", err, f.Snapshot())
	}
	if len(res.Buckets) != 3 {
		t.Fatalf("buckets = %d, want 3: %+v", len(res.Buckets), res.Buckets)
	}
	seen := map[string]BucketResult{}
	hashes := map[uint64]bool{}
	for _, b := range res.Buckets {
		seen[b.App] = b
		hashes[b.Hash] = true
		if !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s: reproduced=%v verified=%v (report %+v)",
				b.App, b.Reproduced, b.Verified, b.Report)
		}
		if b.Occurrences < 1 {
			t.Errorf("bucket %s: occurrences = %d", b.App, b.Occurrences)
		}
	}
	if len(hashes) != 3 {
		t.Errorf("signature hashes not distinct: %v", hashes)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if _, ok := seen[name]; !ok {
			t.Errorf("no bucket for app %s", name)
		}
	}
	// Every bucket pipeline shepherds through the static failure slice:
	// some instructions must have run natively.
	var conc int64
	for _, b := range res.Buckets {
		if b.Report != nil {
			for _, it := range b.Report.Iterations {
				conc += it.ConcSteps
			}
		}
	}
	if conc == 0 {
		t.Error("no instruction executed natively: the failure slice did not reach the fleet's pipelines")
	}
	// gamma must have iterated: its first attempt stalls, so it needs
	// > 1 occurrence and at least one instrumented rollout.
	if g := seen["gamma"]; g.Report != nil {
		if g.Report.Occurrences < 2 {
			t.Errorf("gamma occurrences = %d, want >= 2 (stall + retry)", g.Report.Occurrences)
		}
		if len(g.Report.Iterations) < 2 {
			t.Errorf("gamma iterations = %d, want >= 2", len(g.Report.Iterations))
		}
	}
	// Dedup: machines kept producing while pipelines ran, so triage
	// must have seen more occurrences than the 3 that spawned work.
	if res.Final.Accepted < 3 {
		t.Errorf("accepted = %d, want >= 3", res.Final.Accepted)
	}
	if res.Final.Machines.Fails < res.Final.Accepted {
		t.Errorf("machine fails %d < accepted %d", res.Final.Machines.Fails, res.Final.Accepted)
	}
}

// TestFleetSequentialOneWorker: the same fleet resolves with a single
// pipeline worker.
func TestFleetSequentialOneWorker(t *testing.T) {
	res, err := Run(testApps(t), Options{
		Workers:        1,
		MachinesPerApp: 1,
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, b := range res.Buckets {
		if !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s: reproduced=%v verified=%v", b.App, b.Reproduced, b.Verified)
		}
	}
}

func sig(kind vm.FailKind, fn string, id int32, stack ...string) *vm.Failure {
	return &vm.Failure{Kind: kind, Func: fn, InstrID: id, Stack: stack}
}

func TestSigHashMatchesSameSignature(t *testing.T) {
	a := sig(vm.FailAssert, "main", 3, "main")
	b := sig(vm.FailAssert, "main", 3, "main")
	if !a.SameSignature(b) {
		t.Fatal("fixture broken: a and b should match")
	}
	if SigHash(a) != SigHash(b) {
		t.Error("equal signatures must hash equally")
	}
	cases := []*vm.Failure{
		sig(vm.FailAbort, "main", 3, "main"),          // different kind
		sig(vm.FailAssert, "helper", 3, "main"),       // different pc func
		sig(vm.FailAssert, "main", 4, "main"),         // different instr
		sig(vm.FailAssert, "main", 3, "main", "main"), // deeper stack
		sig(vm.FailAssert, "main", 3, "other"),        // same pc, different stack
		sig(vm.FailAssert, "mai", 3, "nmain"),         // boundary shift across fields
	}
	for i, c := range cases {
		if a.SameSignature(c) {
			t.Errorf("case %d: fixture broken, signatures match", i)
			continue
		}
		if SigHash(a) == SigHash(c) {
			t.Errorf("case %d: distinct signature hashed equally", i)
		}
	}
}

// TestTableCollisionChaining forces every signature onto one hash and
// checks that distinct failures still get distinct buckets via the
// SameSignature chain.
func TestTableCollisionChaining(t *testing.T) {
	tbl := newTableWithHash(func(*vm.Failure) uint64 { return 0xdead })
	a := sig(vm.FailAssert, "main", 1, "main")
	b := sig(vm.FailAssert, "main", 2, "main") // same hash, different signature
	ba, newA := tbl.Intern(a, "appA")
	bb, newB := tbl.Intern(b, "appB")
	if !newA || !newB {
		t.Fatalf("both interns should be new: %v %v", newA, newB)
	}
	if ba == bb {
		t.Fatal("colliding distinct signatures shared a bucket")
	}
	if ba.Hash != bb.Hash {
		t.Fatal("test fixture broken: hashes differ")
	}
	if got, isNew := tbl.Intern(a, "appA"); got != ba || isNew {
		t.Errorf("re-intern of a: bucket=%p isNew=%v", got, isNew)
	}
	if tbl.Len() != 2 {
		t.Errorf("table len = %d, want 2", tbl.Len())
	}
}

// TestTablePerAppBuckets checks the dedup key is (app, signature):
// two applications sharing one signature — the norm for
// scheduler-level deadlocks, which all report the same located-nowhere
// <scheduler> site — must get distinct buckets.
func TestTablePerAppBuckets(t *testing.T) {
	tbl := NewTable()
	dead := sig(vm.FailDeadlock, "<scheduler>", 0)
	ba, newA := tbl.Intern(dead, "corpus-lock-inversion-005")
	bb, newB := tbl.Intern(dead, "corpus-lock-inversion-012")
	if !newA || !newB {
		t.Fatalf("both interns should be new: %v %v", newA, newB)
	}
	if ba == bb {
		t.Fatal("two apps sharing a signature shared a bucket")
	}
	if got, isNew := tbl.Intern(dead, "corpus-lock-inversion-005"); got != ba || isNew {
		t.Errorf("re-intern for the same app: bucket=%p isNew=%v", got, isNew)
	}
	if tbl.Len() != 2 {
		t.Errorf("table len = %d, want 2", tbl.Len())
	}
}

// TestTableConcurrentIntern hammers Intern from many goroutines (run
// with -race): each distinct signature must get exactly one bucket,
// and the occurrences counted on the returned buckets must add up.
func TestTableConcurrentIntern(t *testing.T) {
	tbl := NewTable()
	sigs := []*vm.Failure{
		sig(vm.FailAssert, "a", 1, "a"),
		sig(vm.FailAssert, "b", 2, "a", "b"),
		sig(vm.FailNullDeref, "c", 3, "c"),
		sig(vm.FailOutOfBounds, "d", 4, "d"),
	}
	const workers = 16
	const perWorker = 200
	creations := make([]int, len(sigs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % len(sigs)
				b, isNew := tbl.Intern(sigs[k], "app")
				if isNew {
					mu.Lock()
					creations[k]++
					mu.Unlock()
				}
				b.occurrences.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != len(sigs) {
		t.Fatalf("table len = %d, want %d", tbl.Len(), len(sigs))
	}
	for k, n := range creations {
		if n != 1 {
			t.Errorf("signature %d created %d buckets, want 1", k, n)
		}
	}
	var total int64
	for _, b := range tbl.Buckets() {
		if got, want := b.Occurrences(), int64(workers*perWorker/len(sigs)); got != want {
			t.Errorf("bucket %d: occurrences = %d, want %d", b.ID, got, want)
		}
		total += b.Occurrences()
	}
	if want := int64(workers * perWorker); total != want {
		t.Errorf("total occurrences = %d, want %d", total, want)
	}
}

func TestIngestCloseUnblocksBackpressure(t *testing.T) {
	q := NewIngest(1, 1)
	f := sig(vm.FailAssert, "main", 1, "main")
	if !q.Emit(&prod.TraceMsg{Failure: f}) {
		t.Fatal("first emit should be accepted")
	}
	blocked := make(chan bool)
	go func() {
		blocked <- q.Emit(&prod.TraceMsg{Failure: f}) // shard full: blocks
	}()
	select {
	case <-blocked:
		t.Fatal("second emit should have blocked on the full shard")
	case <-time.After(20 * time.Millisecond):
	}
	q.Close()
	select {
	case ok := <-blocked:
		if ok {
			t.Error("emit after close must report rejection")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock the producer")
	}
	if q.Emit(&prod.TraceMsg{Failure: f}) {
		t.Error("emit on a closed queue must be rejected")
	}
	q.Close() // idempotent
}

// TestIngestShardsBySignature: all reoccurrences of one failure land
// on one shard, in order, and messages without a failure are refused.
func TestIngestShardsBySignature(t *testing.T) {
	q := NewIngest(8, 64)
	f := sig(vm.FailAssert, "main", 9, "main")
	for i := 0; i < 16; i++ {
		if !q.Emit(&prod.TraceMsg{Machine: i, Failure: f}) {
			t.Fatalf("emit %d rejected", i)
		}
	}
	if q.Emit(nil) || q.Emit(&prod.TraceMsg{}) {
		t.Error("a message without a failure must be rejected")
	}
	if got := q.Accepted(); got != 16 {
		t.Errorf("Accepted() = %d, want 16", got)
	}
	want := int(SigHash(f) % 8)
	for i, d := range q.Depths() {
		if i == want && d != 16 {
			t.Errorf("shard %d depth = %d, want 16", i, d)
		}
		if i != want && d != 0 {
			t.Errorf("shard %d depth = %d, want 0", i, d)
		}
	}
	for i := 0; i < 16; i++ {
		msg := <-q.Shard(want)
		if msg.Machine != i {
			t.Fatalf("shard order broken: got machine %d at position %d", msg.Machine, i)
		}
	}
}
