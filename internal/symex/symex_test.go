package symex_test

import (
	"strings"
	"testing"

	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// recordRun compiles src, runs it with the workload under tracing,
// and returns the module, the decoded trace, and the VM result.
func recordRun(t *testing.T, src string, w *vm.Workload, seed int64) (*ir.Module, *pt.Trace, *vm.Result) {
	t.Helper()
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ring := pt.NewRing(1 << 24)
	enc := pt.NewEncoder(ring)
	res := vm.New(mod, vm.Config{Input: w, Tracer: enc, Seed: seed}).Run("main")
	enc.Finish()
	tr, err := pt.Decode(ring)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return mod, tr, res
}

// reconstruct runs shepherded symbolic execution and, on completion,
// verifies the generated test case reproduces the same failure
// signature in a fresh concrete run.
func reconstruct(t *testing.T, src string, w *vm.Workload, opts symex.Options) *symex.Result {
	t.Helper()
	mod, tr, res := recordRun(t, src, w, 1)
	if res.Failure == nil {
		t.Fatal("recorded run did not fail")
	}
	sres := symex.New(mod, tr, res.Failure, opts).Run("main")
	if sres.Status == symex.StatusCompleted {
		rerun := vm.New(mod, vm.Config{Input: sres.TestCase.Clone(), Seed: 1}).Run("main")
		if rerun.Failure == nil {
			t.Fatalf("generated test case does not fail (inputs %v)", sres.TestCase.Streams)
		}
		if !rerun.Failure.SameSignature(res.Failure) {
			t.Fatalf("generated test case fails differently:\n  original: %v\n  replayed: %v",
				res.Failure, rerun.Failure)
		}
	}
	return sres
}

func TestReconstructAssert(t *testing.T) {
	src := `
func main() int {
	int x = input32("req");
	int y = input32("req");
	int s = x + y;
	assert(s != 70, "sum is 70");
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("req", 30, 40), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	tc := sres.TestCase.Streams["req"]
	if len(tc) != 2 || uint32(tc[0])+uint32(tc[1]) != 70 {
		t.Errorf("generated inputs %v do not sum to 70", tc)
	}
}

func TestReconstructBranchy(t *testing.T) {
	src := `
func classify(int v) int {
	if (v < 10) { return 1; }
	if (v < 100) { return 2; }
	return 3;
}
func main() int {
	int a = input32("a");
	int b = input32("b");
	int c = classify(a) * 10 + classify(b);
	if (c == 23) { abort("bad combination"); }
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("a", 50).Add("b", 1000), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	a := uint32(sres.TestCase.Streams["a"][0])
	b := uint32(sres.TestCase.Streams["b"][0])
	if !(int32(a) >= 10 && int32(a) < 100) || int32(b) < 100 {
		t.Errorf("generated a=%d b=%d do not satisfy the path", a, b)
	}
}

func TestReconstructLoopAccumulator(t *testing.T) {
	src := `
func main() int {
	int n = input32("n");
	if (n < 0 || n > 20) { return 0; }
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
	assert(acc != 45, "triangular 45");
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("n", 10), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	// The loop ran exactly 10 times in the trace, so n must be 10.
	if got := sres.TestCase.Streams["n"][0]; uint32(got) != 10 {
		t.Errorf("n = %d, want 10", got)
	}
}

func TestReconstructMemoryWrite(t *testing.T) {
	src := `
int tbl[64];
func main() int {
	int i = input32("i");
	if (i < 0 || i >= 64) { return 0; }
	tbl[i] = 7;
	if (tbl[13] == 7) { abort("slot 13 written"); }
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("i", 13), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	if got := sres.TestCase.Streams["i"][0]; uint32(got) != 13 {
		t.Errorf("i = %d, want 13", got)
	}
}

func TestReconstructOutOfBounds(t *testing.T) {
	src := `
int buf[16];
func main() int {
	int i = input32("i");
	if (i > 100) { return 0; }
	buf[i] = 1;
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("i", 40), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	i := uint32(sres.TestCase.Streams["i"][0])
	if i < 16 || i > 100 {
		t.Errorf("generated i=%d is not an in-path out-of-bounds index", i)
	}
}

func TestReconstructDivByZero(t *testing.T) {
	src := `
func main() int {
	int d = input32("d");
	int q = 100 / (d - 7);
	output(q);
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("d", 7), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	if got := uint32(sres.TestCase.Streams["d"][0]); got != 7 {
		t.Errorf("d = %d, want 7", got)
	}
}

func TestReconstructNullDeref(t *testing.T) {
	src := `
int g = 5;
func main() int {
	int sel = input32("sel");
	int *p = &g;
	if (sel == 3) { p = (int*)0; }
	return *p;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("sel", 3), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	if got := uint32(sres.TestCase.Streams["sel"][0]); got != 3 {
		t.Errorf("sel = %d, want 3", got)
	}
}

func TestReconstructUseAfterFree(t *testing.T) {
	src := `
func main() int {
	int n = input32("n");
	char *p = malloc(16);
	p[0] = 1;
	if (n == 9) { free(p); }
	p[1] = 2;
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("n", 9), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	if got := uint32(sres.TestCase.Streams["n"][0]); got != 9 {
		t.Errorf("n = %d, want 9", got)
	}
}

// TestReconstructPaperExample is the running example of Fig. 3 in
// minc: the abort requires x == d.
func TestReconstructPaperExample(t *testing.T) {
	src := `
uint V[256];
func foo(uint a, uint b, uint c, uint d) {
	uint x = a + b;
	if (x < 256 && c < 256 && d < 256) {
		V[x] = 1;
		if (V[c] == 0) {
			V[c] = 512;
		}
		V[V[x]] = x;
		if (c < d) {
			if (V[V[d]] == x) {
				abort("paper example");
			}
		}
	}
}
func main() int {
	foo((uint)input32("a"), (uint)input32("b"), (uint)input32("c"), (uint)input32("d"));
	return 0;
}`
	w := vm.NewWorkload().Add("a", 0).Add("b", 2).Add("c", 0).Add("d", 2)
	sres := reconstruct(t, src, w, symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	t.Logf("generated inputs: a=%d b=%d c=%d d=%d",
		sres.TestCase.Streams["a"][0], sres.TestCase.Streams["b"][0],
		sres.TestCase.Streams["c"][0], sres.TestCase.Streams["d"][0])
}

func TestReconstructMultithreaded(t *testing.T) {
	src := `
int shared = 0;
func worker(int v) {
	lock(1);
	shared = shared + v;
	unlock(1);
}
func main() int {
	int a = input32("a");
	long t1 = spawn worker(a);
	long t2 = spawn worker(10);
	join(t1);
	join(t2);
	assert(shared != 17, "racy sum");
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("a", 7), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v (%s)", sres.Status, sres.Err, sres.StallReason)
	}
	if got := uint32(sres.TestCase.Streams["a"][0]); got != 7 {
		t.Errorf("a = %d, want 7", got)
	}
}

func TestStallOnTinyBudget(t *testing.T) {
	// A write chain through symbolic indices: with a tiny solver
	// budget the engine must stall, not spin or fail.
	src := `
int m[128];
func main() int {
	int i = 0;
	while (i < 12) {
		int k = input32("k");
		if (k < 0 || k >= 120) { return 0; }
		m[k] = m[k + 1] + 1;
		i = i + 1;
	}
	assert(m[60] != 3, "chain");
	return 0;
}`
	// Build the chain upward so m[60] really reaches 3:
	// m[62]=1, m[61]=2, m[60]=3, then harmless writes.
	w := vm.NewWorkload().Add("k", 62, 61, 60)
	for i := 0; i < 9; i++ {
		w.Add("k", 100)
	}
	mod, tr, res := recordRun(t, src, w, 1)
	if res.Failure == nil {
		t.Fatal("expected failure in recorded run")
	}
	sres := symex.New(mod, tr, res.Failure, symex.Options{QueryBudget: 2000}).Run("main")
	if sres.Status != symex.StatusStalled {
		t.Fatalf("status %v (err %v), want stalled", sres.Status, sres.Err)
	}
	if len(sres.PathConstraint) == 0 {
		t.Error("stalled result should carry the path constraint")
	}
	if len(sres.Objects) == 0 {
		t.Error("stalled result should carry object states")
	}
}

func TestInputOrderAndSites(t *testing.T) {
	src := `
func main() int {
	int a = input32("x");
	int b = input32("y");
	int c = input32("x");
	assert(a + b + c != 6, "six");
	return 0;
}`
	sres := reconstruct(t, src, vm.NewWorkload().Add("x", 1, 3).Add("y", 2), symex.Options{})
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v", sres.Status, sres.Err)
	}
	if len(sres.Inputs) != 3 {
		t.Fatalf("inputs: %v", sres.Inputs)
	}
	if sres.Inputs[0].Tag != "x" || sres.Inputs[1].Tag != "y" || sres.Inputs[2].Tag != "x" {
		t.Errorf("input order wrong: %v", sres.Inputs)
	}
	if len(sres.Sites) == 0 {
		t.Error("no sites recorded")
	}
}

func TestProgressSampling(t *testing.T) {
	src := `
func main() int {
	int n = input32("n");
	int acc = 0;
	for (int i = 0; i < 2000; i = i + 1) { acc = acc + 1; }
	assert(acc + n != 2007, "x");
	return 0;
}`
	mod, tr, res := recordRun(t, src, vm.NewWorkload().Add("n", 7), 1)
	if res.Failure == nil {
		t.Fatal("expected failure")
	}
	sres := symex.New(mod, tr, res.Failure, symex.Options{ProgressEvery: 1000}).Run("main")
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v: %v", sres.Status, sres.Err)
	}
	if len(sres.Progress) == 0 {
		t.Error("no progress samples")
	}
}

func TestDumpConstraints(t *testing.T) {
	src := `
func main() int {
	int x = input32("x");
	assert(x != 9, "nine");
	return 0;
}`
	mod, tr, res := recordRun(t, src, vm.NewWorkload().Add("x", 9), 1)
	sres := symex.New(mod, tr, res.Failure, symex.Options{}).Run("main")
	if sres.Status != symex.StatusCompleted {
		t.Fatalf("status %v", sres.Status)
	}
	var sb strings.Builder
	if err := sres.DumpConstraints(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(set-logic QF_ABV)") ||
		!strings.Contains(sb.String(), "check-sat") {
		t.Errorf("SMT-LIB dump malformed:\n%s", sb.String())
	}
}
