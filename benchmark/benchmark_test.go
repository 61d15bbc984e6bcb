package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/vm"
)

// output is one parsed benchmark run.
type output struct {
	code    int
	stderr  string
	units   map[string]string  // metric name -> printed unit
	values  map[string]float64 // metric name -> printed value
	summary summary
}

func runTool(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	out := output{units: map[string]string{}, values: map[string]float64{}}
	out.code = run(args, &stdout, &stderr)
	out.stderr = stderr.String()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out.units[f[0]], out.values[f[0]] = f[2], v
	}
	if out.code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.summary); err != nil {
			t.Fatalf("%v: last line is not the JSON summary: %v\n%s", args, err, stdout.String())
		}
	}
	return out
}

// benchSpec is BENCHMARK.json's metric lists.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPrinted asserts every named metric is printed with its unit and
// that the JSON summary carries exactly those metrics.
func checkPrinted(t *testing.T, o output, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(o.summary.Metrics) != len(want) {
		t.Errorf("summary has %d metrics, BENCHMARK.json lists %d", len(o.summary.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := o.units[m.Name]; !ok || got != m.Unit {
			t.Errorf("metric %s printed with unit %q, want %q", m.Name, got, m.Unit)
		}
		if s, ok := o.summary.Metrics[m.Name]; !ok || s.Unit != m.Unit {
			t.Errorf("summary metric %s = %+v, want unit %q", m.Name, s, m.Unit)
		}
	}
}

// deterministic lists the metrics that are pure counts of the analysis
// and must repeat exactly for the same seed.
var deterministic = map[bool][]string{
	false: {"verified_frac", "occurrences.mean", "recording_bytes.mean"},
	true: {"core.iterations", "core.stalls", "pt.trace_events", "symex.instrs",
		"symex.sym_steps", "symex.conc_steps", "solver.queries", "solver.steps",
		"solver.sat_vars", "solver.sat_clauses", "keyselect.sites",
		"keyselect.cost_bytes", "cgraph.nodes_max"},
}

// TestWorkloadsTiny runs every workload at a tiny size twice, untraced
// and traced, and checks the ground truth, the printed metric set, and
// that the counts repeat.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadBenchSpec(t)
	sizes := map[string][]string{
		"paper13": {"-n", "3"},
		"corpus":  {"-n", "7", "-seed", "5"},
		"fleet":   {"-n", "7", "-seed", "5"},
		"cluster": {"-n", "7", "-seed", "5"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				args := append([]string{"-workload", w.name, "-seconds", "0", "-trace", "0"}, sizes[w.name]...)
				want := spec.EndToEnd
				if traced {
					args[5], want = "1", spec.PerLayer
				}
				first, second := runTool(t, args...), runTool(t, args...)
				for _, o := range []output{first, second} {
					if o.code != 0 {
						t.Fatalf("%v: exit %d: %s", args, o.code, o.stderr)
					}
					if !o.summary.Correct || o.summary.Failed != 0 || o.summary.Attempted == 0 {
						t.Fatalf("%v: summary %+v", args, o.summary)
					}
				}
				checkPrinted(t, first, want)
				if !traced && first.values["verified_frac"] != 1 {
					t.Errorf("verified_frac = %v, want 1", first.values["verified_frac"])
				}
				if first.summary.Attempted != second.summary.Attempted {
					t.Errorf("%v: attempted %d then %d", args, first.summary.Attempted, second.summary.Attempted)
				}
				for _, name := range deterministic[traced] {
					if a, b := first.values[name], second.values[name]; a != b {
						t.Errorf("%v: %s = %v then %v", args, name, a, b)
					}
				}
			}
		})
	}
}

// TestCheckRejectsWrongFailure checks that the ground-truth check fails
// a test case raising another failure kind or function, and a bug that
// was not reproduced.
func TestCheckRejectsWrongFailure(t *testing.T) {
	bugs, err := setupPopulation(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := bugs[0]
	rep := reproduce(b, nil, nil, &unit{}).rep
	if err := b.check(rep); err != nil {
		t.Fatalf("reproduced bug fails its own check: %v", err)
	}
	wrongKind := *b
	wrongKind.kind = vm.FailDeadlock
	wrongFunc := *b
	wrongFunc.failFunc = "no_such_function"
	for _, tc := range []struct {
		name string
		b    *bug
		rep  *core.Report
	}{
		{"wrong kind", &wrongKind, rep},
		{"wrong function", &wrongFunc, rep},
		{"not reproduced", b, &core.Report{FailReason: "stalled"}},
		{"no report", b, nil},
	} {
		if err := tc.b.check(tc.rep); err == nil {
			t.Errorf("%s: check passed", tc.name)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-workload", "bogus"}, "unknown workload"},
		{[]string{}, "unknown workload"},
		{[]string{"-workload", "paper13", "-seed", "0"}, "-seed must be > 0"},
		{[]string{"-workload", "corpus", "-seed", "-3"}, "-seed must be > 0"},
		{[]string{"-workload", "paper13", "stray"}, "unexpected arguments"},
		{[]string{"-workload", "paper13", "-trace", "2"}, "-trace must be 0 or 1"},
		{[]string{"-workload", "paper13", "-seconds", "-1"}, "-seconds must be"},
		{[]string{"-workload", "paper13", "-n", "14"}, "-n must be at most 13"},
		{[]string{"-workload", "fleet", "-n", "-2"}, "-n must be >= 0"},
		{[]string{"-compare", "one.json"}, "-compare takes two files"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		o := runTool(t, tc.args...)
		if o.code != 2 || !strings.Contains(o.stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, o.code, o.stderr, tc.msg)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		p, c        []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"same", base, base, 0.1, true, "unchanged"},
		{"slower within bound", base, scale(1.05), 0.1, true, "unchanged"},
		{"slower beyond bound", base, scale(1.2), 0.1, true, "regressed"},
		{"faster", base, scale(0.8), 0.1, true, "improved"},
		{"higher is better", base, scale(0.8), 0.1, false, "regressed"},
		{"noisy parent", []float64{1, 2, 1, 2, 1, 2}, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, 0.1, true, "unresolved"},
		{"noisy parent, clear win", []float64{1, 2, 1, 2}, []float64{0.5, 0.5, 0.5, 0.5}, 0.1, true, "improved"},
		{"count moved, zero bound", []float64{3, 3, 3}, []float64{3.5, 3.5, 3.5}, 0, true, "regressed"},
		{"count held, zero bound", []float64{1, 1, 1}, []float64{1, 1, 1}, 0, false, "unchanged"},
	} {
		if got := classify(tc.p, tc.c, tc.bound, tc.lowerBetter); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareExitCode checks that -compare fails on a regression and on
// a larger failed share, and passes on identical runs.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		var a artifact
		for seed := int64(1); seed <= 5; seed++ {
			r := runRecord{Workload: "paper13", Seed: seed}
			r.Attempted, r.Failed, r.Correct = 13, failed, failed == 0
			r.Metrics = map[string]metric{
				"repro_s.p50":   {Value: p50 * (1 + 0.001*float64(seed)), Unit: "s"},
				"verified_frac": {Value: float64(13-failed) / 13, Unit: "ratio"},
			}
			a.Runs = append(a.Runs, r)
		}
		b, err := json.Marshal(map[string]interface{}{"experiment": "e2e", "result": a})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", 0.04, 0)
	for _, tc := range []struct {
		change string
		want   int
	}{
		{write("same.json", 0.04, 0), 0},
		{write("slow.json", 0.08, 0), 1},
		{write("failing.json", 0.04, 1), 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-compare", parent, tc.change}, &stdout, &stderr); got != tc.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(tc.change), got, tc.want, stdout.String(), stderr.String())
		}
	}
}
