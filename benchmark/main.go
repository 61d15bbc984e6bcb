// Command benchmark measures Execution Reconstruction the way the paper
// judges it: the time and the failure reoccurrences it takes to reach a
// verified reproduction, and what the final instrumentation records per
// occurrence in production.
//
//	benchmark -workload paper13|corpus|fleet|cluster [-seed N] [-seconds S] [-trace 0|1] [-n N] [-json DIR]
//	benchmark -compare parent/BENCH_e2e.json change/BENCH_e2e.json
//
// A run sets the workload up several times (setup_s is the median),
// reproduces one bug untimed as a warm-up, then runs whole units — a
// round of sessions or one fleet or cluster pass over every bug — until
// the next unit would overrun -seconds of timed wall time. Every
// generated test case is re-run on the pristine module and must raise
// the bug's ground-truth failure. Each metric prints as `name value
// unit`; the last line is a JSON summary; the exit code is 1 when a
// check failed and 2 on bad arguments.
//
// Untraced runs report the end-to-end metrics. -trace 1 alternates
// untraced units with traced ones, which pass a fresh telemetry
// registry and tracer through the configuration fields the program
// already has, and reports the per-layer ledger. README.md defines
// every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"execrecon/internal/bench"
	"execrecon/internal/core"
	"execrecon/internal/telemetry"
)

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics of an untraced run, in print
// order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"repro_s.p50", "s"},
	{"repro_s.p90", "s"},
	{"verified_per_s", "1/s"},
	{"verified_frac", "ratio"},
	{"occurrences.mean", "count"},
	{"recording_bytes.mean", "B"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as kept in a BENCH_*.json artifact.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Units    int     `json:"units"`
	NProc    int     `json:"nproc"`
	summary
}

// artifact is the result carried in the bench.WriteJSONArtifact
// envelope: every run merged into the file so far.
type artifact struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usageError(stderr io.Writer, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, "benchmark: "+format+"\n", args...)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fl.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fl.Int64("seed", 1, "input seed (> 0): orders the bugs")
	seconds := fl.Float64("seconds", 25, "timed wall-time budget; whole units run until the next would overrun it")
	trace := fl.Int("trace", 0, "1 = alternate traced units and report the per-layer ledger")
	n := fl.Int("n", 0, "bugs per unit (0 = 13 apps or 100 scenarios)")
	jsonDir := fl.String("json", "", "merge the run into DIR/BENCH_e2e.json (or BENCH_ledger.json when traced)")
	compare := fl.Bool("compare", false, "compare two BENCH_e2e.json files named as arguments: parent, then change")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			return usageError(stderr, "-compare takes two files, parent then change (got %d arguments)", fl.NArg())
		}
		return runCompare(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() > 0 {
		return usageError(stderr, "unexpected arguments: %v", fl.Args())
	}
	w := workloadByName(*name)
	if w == nil {
		return usageError(stderr, "unknown workload %q (valid: %s)", *name, strings.Join(names, ", "))
	}
	if *seed <= 0 {
		return usageError(stderr, "-seed must be > 0 (got %d)", *seed)
	}
	if *seconds < 0 || math.IsNaN(*seconds) || math.IsInf(*seconds, 0) {
		return usageError(stderr, "-seconds must be a finite number >= 0 (got %v)", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return usageError(stderr, "-trace must be 0 or 1 (got %d)", *trace)
	}
	if *n < 0 {
		return usageError(stderr, "-n must be >= 0 (got %d)", *n)
	}
	if w.maxN > 0 && *n > w.maxN {
		return usageError(stderr, "-n must be at most %d for %s (got %d)", w.maxN, w.name, *n)
	}
	if *n == 0 {
		*n = w.defaultN
	}
	runtime.GOMAXPROCS(workers)

	rec, err := measure(w, *n, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d units %d bugs/unit %d\n", w.name, *seed, rec.Units, *n)
	fmt.Fprintf(stdout, "nproc %d\n", rec.NProc)
	defs := e2eMetrics
	if *trace == 1 {
		defs = ledgerMetrics
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%s %s %s\n", d.name, strconv.FormatFloat(rec.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	if *jsonDir != "" {
		exp := "e2e"
		if *trace == 1 {
			exp = "ledger"
		}
		if err := mergeArtifact(*jsonDir, exp, *rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d bugs failed the ground-truth check\n", w.name, rec.Failed, rec.Attempted)
		return 1
	}
	return 0
}

// measure runs one workload: set-up, warm-up, then timed units.
func measure(w *workload, n int, seed int64, seconds float64, traced bool, stderr io.Writer) (*runRecord, error) {
	// Set up at least setupReps times and for a twenty-fifth of the
	// budget up to setupTime, so a set-up of a few milliseconds still
	// yields a steady median.
	budget := time.Duration(seconds * float64(time.Second))
	var setups []float64
	var bugs []*bug
	for first := time.Now(); len(setups) < setupReps || time.Since(first) < min(setupTime, budget/25); {
		start := time.Now()
		var err error
		if bugs, err = w.setup(n, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Warm up with untimed sessions, for a tenth of the budget up to
	// warmup: the first seconds of a process run slower while the heap
	// grows and freed pages start being reused.
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < min(warmup, budget/10); i++ {
		reproduce(bugs[i%len(bugs)], nil, nil, &unit{})
	}

	minUnits := 1
	if traced {
		minUnits = 2
	}
	var units []*unit
	var spent time.Duration
	for {
		var reg *telemetry.Registry
		var tracer *telemetry.Tracer
		tracedUnit := traced && len(units)%2 == 1
		if tracedUnit {
			reg, tracer = telemetry.New(), telemetry.NewTracer(0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := w.unit(bugs, reg, tracer)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		u.allocBytes = after.TotalAlloc - before.TotalAlloc
		u.gcCycles = after.NumGC - before.NumGC
		if tracedUnit {
			// Read the ledger now: the registry's callbacks keep the
			// whole fleet or cluster reachable until it is dropped.
			u.layers, u.timelines = unitLedger(u, reg), nil
		}
		for i := range u.outcomes {
			o := &u.outcomes[i]
			o.err = o.bug.check(o.rep)
		}
		units = append(units, u)
		spent += u.wall
		if len(units) >= minUnits && spent+u.wall > budget {
			break
		}
	}

	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Units: len(units), NProc: runtime.NumCPU()}
	rec.Metrics = map[string]metric{}
	for _, u := range units {
		for _, o := range u.outcomes {
			rec.Attempted++
			if o.err != nil {
				rec.Failed++
				fmt.Fprintf(stderr, "benchmark: %v\n", o.err)
			}
		}
	}
	rec.Correct = rec.Failed == 0
	var values map[string]float64
	var defs []metricDef
	if traced {
		values, defs = ledger(units), ledgerMetrics
	} else {
		values, defs = endToEnd(units), e2eMetrics
		values["setup_s"] = median(setups)
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rec, nil
}

// endToEnd computes the end-to-end metrics over the untraced units.
// Latency percentiles pool every session or bucket of the run; the
// throughput is per unit, reported as the median over units so a burst
// of outside load during one unit does not move it. A bug that failed
// the check counts as taking its whole unit, later than any bug that
// passed.
func endToEnd(units []*unit) map[string]float64 {
	var times, rates []float64
	var attempted, verified, reports, occ, rec float64
	for _, u := range units {
		var v float64
		for _, o := range u.outcomes {
			attempted++
			if o.err == nil {
				v++
				times = append(times, o.elapsed.Seconds())
			} else {
				times = append(times, u.wall.Seconds())
			}
			if o.rep == nil {
				continue
			}
			reports++
			occ += float64(o.rep.Occurrences)
			rec += float64(lastRecordingCost(o.rep.Iterations))
		}
		verified += v
		rates = append(rates, v/u.wall.Seconds())
	}
	return map[string]float64{
		"repro_s.p50":          quantile(times, 0.5),
		"repro_s.p90":          quantile(times, 0.9),
		"verified_per_s":       median(rates),
		"verified_frac":        ratio(verified, attempted),
		"occurrences.mean":     ratio(occ, reports),
		"recording_bytes.mean": ratio(rec, reports),
	}
}

// ledger averages the traced units' per-layer numbers and adds two
// numbers of the whole run: the tracing overhead (median traced over
// median untraced unit wall time) and the process's peak resident set.
func ledger(units []*unit) map[string]float64 {
	out := map[string]float64{}
	var traced, untraced []float64
	for _, u := range units {
		if u.layers == nil {
			untraced = append(untraced, u.wall.Seconds())
			continue
		}
		traced = append(traced, u.wall.Seconds())
		for k, v := range u.layers {
			out[k] += v
		}
	}
	for k := range out {
		out[k] /= float64(len(traced))
	}
	out["trace_overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	out["peak_rss_mb"] = peakRSSMB()
	return out
}

// lastRecordingCost is the per-occurrence recording cost of the final
// instrumentation: the last non-zero Iteration.RecordingCost, or 0.
func lastRecordingCost(its []core.Iteration) int64 {
	var cost int64
	for _, it := range its {
		if it.RecordingCost > 0 {
			cost = it.RecordingCost
		}
	}
	return cost
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / (1 << 10) // Maxrss is in KiB on Linux
}

// quantile returns the nearest-rank q-quantile of vs (sorted in place).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

func median(vs []float64) float64 { return quartiles(vs)[1] }

// mergeArtifact appends rec to dir/BENCH_<exp>.json, keeping the runs
// already there.
func mergeArtifact(dir, exp string, rec runRecord) error {
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	art, err := readArtifact(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	art.Runs = append(art.Runs, rec)
	_, err = bench.WriteJSONArtifact(dir, exp, art)
	return err
}

func readArtifact(path string) (artifact, error) {
	var env struct {
		Result artifact `json:"result"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return env.Result, nil
}
