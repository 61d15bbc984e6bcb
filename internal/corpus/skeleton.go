package corpus

import (
	"fmt"
	"strings"

	"execrecon/internal/vm"
)

// src accumulates generated minc source with indentation.
type src struct {
	b   strings.Builder
	ind int
}

func (s *src) f(format string, args ...interface{}) {
	for i := 0; i < s.ind; i++ {
		s.b.WriteByte('\t')
	}
	fmt.Fprintf(&s.b, format, args...)
	s.b.WriteByte('\n')
}

func (s *src) open(format string, args ...interface{}) {
	s.f(format, args...)
	s.ind++
}

func (s *src) close() {
	s.ind--
	s.f("}")
}

func (s *src) String() string { return s.b.String() }

// fillerExpr returns a side-effect-free arithmetic expression over the
// named operands. Only total operators are used (no division or
// modulus), so filler can never fault regardless of operand values.
func fillerExpr(r *rng, operands []string) string {
	ops := []string{"+", "-", "*", "^", "|", "&"}
	e := operands[r.intn(len(operands))]
	for n := r.rangeInt(1, 3); n > 0; n-- {
		op := ops[r.intn(len(ops))]
		var rhs string
		if r.chance(50) {
			rhs = operands[r.intn(len(operands))]
		} else {
			rhs = fmt.Sprintf("%d", r.rangeInt(1, 97))
		}
		e = fmt.Sprintf("(%s %s %s)", e, op, rhs)
	}
	if r.chance(30) {
		e = fmt.Sprintf("(%s >> %d)", e, r.rangeInt(1, 5))
	}
	return e
}

// emitMixHelper emits a pure arithmetic helper function and returns
// its name — the call-graph filler that varies skeletons (and failure
// line numbers) across scenarios.
func emitMixHelper(r *rng, s *src, idx int) string {
	name := fmt.Sprintf("mix%d", idx)
	s.open("func %s(int a, int b) int {", name)
	s.f("int t = %s;", fillerExpr(r, []string{"a", "b"}))
	for n := r.rangeInt(0, 2); n > 0; n-- {
		s.f("t = %s;", fillerExpr(r, []string{"t", "a", "b"}))
	}
	s.f("return t;")
	s.close()
	return name
}

// fillerStmts emits 0..max locals computed from the operands, folding
// each into the named accumulator so the work is observable (and thus
// not trivially sliceable away).
func fillerStmts(r *rng, s *src, acc string, operands []string, max int) {
	for n := r.rangeInt(0, max); n > 0; n-- {
		v := fmt.Sprintf("f%d", r.intn(1000))
		s.f("int %s = %s;", v, fillerExpr(r, operands))
		s.f("%s = %s + (%s & %d);", acc, acc, v, (1<<uint(r.rangeInt(4, 8)))-1)
	}
}

// stSpec is a sequential scenario under assembly: pattern generators
// fill in the bug-owning globals/functions and the request ground
// truth; emitST wraps them in the shared skeleton (a request loop in
// main, optional relay indirection, filler helpers and branches).
type stSpec struct {
	comment string
	// globals and funcs are pattern-owned source fragments.
	globals func(s *src)
	funcs   func(s *src)
	// entry is the pattern's request handler: func entry(int a, int b) int.
	entry string
	// maxOps bounds main's request count (the usual input guard).
	maxOps int
	// trigger is the failing request (a, b).
	trigger [2]uint64
	// failingOps, when set, is the full failing request sequence and
	// overrides trigger — for patterns whose bug needs a multi-request
	// protocol (e.g. put/evict/lookup).
	failingOps [][2]uint64
	// benignPair draws one safe request.
	benignPair func(r *rng) (uint64, uint64)
	kind       vm.FailKind
	failFunc   string
	budget     int64
}

// emitST renders the full program for a sequential scenario and
// builds its ground-truth workloads.
func emitST(r *rng, spec *stSpec, sc *Scenario) {
	s := &src{}
	s.f("// corpus scenario: %s", spec.comment)
	spec.globals(s)
	s.f("int gmix = 0;")

	// Call-graph filler: 0-2 pure helpers, optionally called from the
	// main loop's filler branch.
	var helpers []string
	for i, n := 0, r.rangeInt(0, 2); i < n; i++ {
		helpers = append(helpers, emitMixHelper(r, s, i))
	}
	spec.funcs(s)

	// Optional relay indirection: main -> relay -> entry, deepening
	// the call graph (and the failure stack) for some scenarios.
	entry := spec.entry
	if r.chance(40) {
		s.open("func relay(int a, int b) int {")
		fillerStmts(r, s, "gmix", []string{"a", "b"}, 1)
		s.f("return %s(a, b);", spec.entry)
		s.close()
		entry = "relay"
	}

	s.open("func main() int {")
	s.f(`int n = input32("cfg");`)
	s.f("if (n < 1 || n > %d) { return 0 - 1; }", spec.maxOps)
	s.f("int total = 0;")
	s.open("for (int i = 0; i < n; i = i + 1) {")
	s.f(`int a = input32("req");`)
	s.f(`int b = input32("req");`)
	// Branching filler keyed on the request, safe for all inputs.
	if r.chance(60) {
		mask := (1 << uint(r.rangeInt(2, 4))) - 1
		s.open("if ((a & %d) == %d) {", mask, r.intn(mask+1))
		if len(helpers) > 0 && r.chance(70) {
			s.f("gmix = gmix + %s(a, i);", helpers[r.intn(len(helpers))])
		} else {
			fillerStmts(r, s, "gmix", []string{"a", "b", "i"}, 1)
			s.f("gmix = gmix + 1;")
		}
		s.close()
	}
	s.f("total = total + %s(a, b);", entry)
	s.close()
	s.f("output(total);")
	s.f("output(gmix);")
	s.f("return 0;")
	s.close()

	sc.Src = s.String()
	sc.Kind = spec.kind
	sc.FailFunc = spec.failFunc
	sc.QueryBudget = spec.budget
	sc.SchedSeed = 1
	sc.BenignSeeds = []int64{101, 202, 303}

	// Ground-truth failing workload: a few benign requests, then the
	// trigger sequence (requests after the failure never execute).
	trigger := spec.failingOps
	if trigger == nil {
		trigger = [][2]uint64{spec.trigger}
	}
	prefix := r.rangeInt(0, 4)
	w := vm.NewWorkload()
	w.Add("cfg", uint64(prefix+len(trigger)))
	for i := 0; i < prefix; i++ {
		a, b := spec.benignPair(r)
		w.Add("req", a, b)
	}
	for _, op := range trigger {
		w.Add("req", op[0], op[1])
	}
	sc.Failing = w

	benignSeed := r.next()
	benignPair := spec.benignPair
	maxOps := spec.maxOps
	sc.Benign = func(i int) *vm.Workload {
		br := newRNG(benignSeed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		k := br.rangeInt(3, minInt(10, maxOps))
		bw := vm.NewWorkload()
		bw.Add("cfg", uint64(k))
		for j := 0; j < k; j++ {
			a, b := benignPair(br)
			bw.Add("req", a, b)
		}
		return bw
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
