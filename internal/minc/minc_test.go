package minc

import (
	"strings"
	"testing"

	"execrecon/internal/dataflow"
)

func compileOK(t *testing.T, src string) {
	t.Helper()
	if _, err := Compile("test", src); err != nil {
		t.Fatalf("compile: %v", err)
	}
}

func compileErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Compile("test", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestCompileMinimal(t *testing.T) {
	compileOK(t, `func main() int { return 0; }`)
}

func TestCompileArithmetic(t *testing.T) {
	compileOK(t, `
func main() int {
	int a = 1 + 2 * 3 - 4 / 2;
	int b = (a << 2) | (a & 7) ^ (a % 3);
	uint c = (uint)a >> 1;
	long d = (long)b + (long)c;
	return (int)d;
}`)
}

func TestCompileControlFlow(t *testing.T) {
	compileOK(t, `
func f(int n) int {
	int acc = 0;
	for (int i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
		if (acc > 100) { break; }
		if (acc < 0) { continue; }
	}
	while (acc > 10) { acc = acc / 2; }
	return acc;
}
func main() int { return f(10); }`)
}

func TestCompileGlobalsArraysPointers(t *testing.T) {
	compileOK(t, `
int V[256];
int counter = 41;
char msg[16] = "hi";
int tbl[4] = {1, 2, 3, 4};

func main() int {
	V[0] = counter;
	int *p = &V[0];
	p[1] = *p + 1;
	char *s = msg;
	char c = s[0];
	char buf[8];
	buf[0] = c;
	int x = 5;
	int *px = &x;
	*px = 6;
	return x + (int)c;
}`)
}

func TestCompileFuncsAndBuiltins(t *testing.T) {
	compileOK(t, `
func helper(int a, int b) int { return a + b; }
func noret(int x) { output(x); }

func main() int {
	int v = input32("req");
	char b = input8("req");
	assert(v >= 0, "neg");
	char *p = malloc(16);
	p[0] = b;
	free(p);
	noret(helper(v, 2));
	long fp = fnptr("helper");
	long r = icall2(fp, 1, 2);
	return (int)r;
}`)
}

func TestCompileThreads(t *testing.T) {
	compileOK(t, `
int shared = 0;
func worker(int n) {
	lock(1);
	shared = shared + n;
	unlock(1);
}
func main() int {
	long t1 = spawn worker(1);
	long t2 = spawn worker(2);
	join(t1);
	join(t2);
	return shared;
}`)
}

func TestCompileShortCircuit(t *testing.T) {
	compileOK(t, `
func main() int {
	int a = 1;
	int b = 0;
	if (a > 0 && b == 0) { a = 2; }
	if (a > 5 || b < 3) { a = 3; }
	int c = a && b;
	int d = a || b;
	return c + d;
}`)
}

func TestErrors(t *testing.T) {
	compileErr(t, `func main() int { return x; }`, "undefined variable")
	compileErr(t, `func main() int { int a = 1; int a = 2; return a; }`, "redeclaration")
	compileErr(t, `func main() int { break; }`, "break outside loop")
	compileErr(t, `func f() int { return 0; } func f() int { return 1; }`, "duplicate function")
	compileErr(t, `int g; int g;`, "duplicate global")
	compileErr(t, `func main() int { unknown(1); return 0; }`, "unknown function")
	compileErr(t, `func f(int a) int { return a; } func main() int { return f(); }`, "want 1 args")
	compileErr(t, `func main() int { return 1 +; }`, "unexpected token")
	compileErr(t, `func main() int { int v = input32(5); return v; }`, "string literal")
}

func TestAddressOfRegisterSpills(t *testing.T) {
	// Taking &x forces x into the frame; the program must compile and
	// the pointer write must be visible through the named variable.
	compileOK(t, `
func main() int {
	int x = 1;
	int *p = &x;
	*p = 42;
	return x;
}`)
}

func TestLexerFeatures(t *testing.T) {
	compileOK(t, `
// line comment
/* block
   comment */
func main() int {
	int hex = 0x1F;
	int ch = 'a';
	int esc = '\n';
	char s[8];
	s[0] = 'a';
	return hex + ch + esc + (int)s[0];
}`)
}

func TestNegativeLiterals(t *testing.T) {
	compileOK(t, `
int g = -5;
int arr[2] = {-1, -2};
func main() int { int x = -3; return x + g + arr[0]; }`)
}

func TestParserEOFRobustness(t *testing.T) {
	bad := []string{
		`func main() int {`,
		`func main(`,
		`int g[`,
		`func main() int { if (`,
		`func`,
		`"str"`,
	}
	for _, src := range bad {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestSizeof(t *testing.T) {
	compileOK(t, `func main() int { return (int)(sizeof(int) + sizeof(char) + sizeof(long*)); }`)
}

func TestIRValidates(t *testing.T) {
	mod, err := Compile("t", `
func fib(int n) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() int { return fib(10); }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if mod.FuncByName("fib") == nil || mod.FuncByName("main") == nil {
		t.Fatal("functions missing")
	}
	dump := mod.Dump()
	if !strings.Contains(dump, "func fib") {
		t.Errorf("dump missing fib:\n%s", dump)
	}
}

func TestPruneUnreachableBlocks(t *testing.T) {
	// Statements after a return are parked in dead blocks by the
	// emitter; the prune pass must drop them before the module ships.
	mod, err := Compile("test", `
func main() int {
	int x = input32("x");
	if (x > 0) {
		return 1;
		output(99);
	}
	return 0;
	output(7);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.FuncByName("main")
	c := dataflow.BuildCFG(f)
	for bi := range f.Blocks {
		if !c.Reachable[bi] {
			t.Errorf("block b%d survived pruning unreachable", bi)
		}
	}
	// The dead output(99)/output(7) must be gone entirely.
	if d := mod.Dump(); strings.Contains(d, "99") {
		t.Errorf("dead code survived pruning:\n%s", d)
	}
}
