package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/bench"
	"execrecon/internal/cluster"
	"execrecon/internal/core"
	"execrecon/internal/corpus"
	"execrecon/internal/fleet"
	"execrecon/internal/ir"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// Fixed workload parameters. Only the fields the program's own
// defaults cannot supply are set, so the benchmark measures whatever
// the default configuration is.
const (
	maxInstrs = 50_000_000
	// failEvery: population machines serve benign traffic and replay
	// the failing input on every third run.
	failEvery = 3
	// pace spaces each fleet/cluster machine's production runs (open
	// loop: runs are due on this schedule whether or not triage keeps
	// up).
	pace = 5 * time.Millisecond
	// workers is the fleet's pipeline pool and the cluster's node
	// count (one lease each): the two cores of the reference box.
	workers = 2
	// passTimeout bounds one fleet or cluster pass; a pass that hits it
	// counts its unresolved bugs as failed.
	passTimeout = 60 * time.Second
	// setupReps and setupTime are the least set-up repetitions and the
	// longest set-up time a run spends; setup_s is the median.
	setupReps = 7
	setupTime = time.Second
	// warmup is the longest untimed warm-up before timing starts.
	warmup = 2 * time.Second
	// populationSeed fixes the generated population; -seed only orders
	// it. Fresh draws are not comparable: some hold scenarios the
	// default configuration cannot reproduce (seed 4 draws a stale-slot
	// bug that stalls 16 times), and the mean recording cost moves by
	// more than 10% from one 100-scenario draw to the next.
	populationSeed = 1
)

// workload is one benchmark input set and the path it drives; README.md
// records why each was chosen.
type workload struct {
	name string
	// defaultN is the number of bugs per unit.
	defaultN int
	// maxN caps -n (0 = no cap).
	maxN  int
	setup func(n int, seed int64) ([]*bug, error)
	// unit runs every bug once: a round of sessions or one fleet or
	// cluster pass. reg and tracer are nil in untraced runs.
	unit func(bugs []*bug, reg *telemetry.Registry, tracer *telemetry.Tracer) (*unit, error)
}

var workloads = []workload{
	{name: "paper13", defaultN: 13, maxN: 13, setup: setupPaper13, unit: sessionUnit},
	{name: "corpus", defaultN: 100, setup: setupPopulation, unit: sessionUnit},
	{name: "fleet", defaultN: 100, setup: setupPopulation, unit: fleetUnit},
	{name: "cluster", defaultN: 100, setup: setupPopulation, unit: clusterUnit},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// bug is one failure to reproduce, with its ground truth.
type bug struct {
	name   string
	mod    *ir.Module
	budget int64
	// traffic yields production run n: the workload and scheduler seed.
	traffic func(n int) (*vm.Workload, int64)
	// seed is the scheduler seed the failing input fails under; kind
	// and failFunc ("" = any function) are the failure it must raise.
	seed     int64
	kind     vm.FailKind
	failFunc string
}

func (b *bug) symex() symex.Options {
	return symex.Options{QueryBudget: b.budget, MaxInstrs: maxInstrs}
}

// check re-runs a generated test case on the pristine module under the
// bug's scheduler seed; it must raise the bug's ground-truth failure.
// This is independent of Report.Verified, which only compares against
// the signature the pipeline pinned itself.
func (b *bug) check(rep *core.Report) error {
	if rep == nil || !rep.Reproduced || rep.TestCase == nil {
		reason := "no report"
		if rep != nil {
			reason = rep.FailReason
		}
		return fmt.Errorf("%s: not reproduced: %s", b.name, reason)
	}
	res := vm.New(b.mod, vm.Config{Input: rep.TestCase.Clone(), Seed: b.seed}).Run("main")
	f := res.Failure
	if f == nil || f.Kind != b.kind || (b.failFunc != "" && f.Func != b.failFunc) {
		return fmt.Errorf("%s: test case raised %v, want %s in %q", b.name, f, b.kind, b.failFunc)
	}
	return nil
}

// shuffle orders bugs by the run's seed.
func shuffle(bugs []*bug, seed int64) []*bug {
	rand.New(rand.NewSource(seed)).Shuffle(len(bugs), func(i, j int) { bugs[i], bugs[j] = bugs[j], bugs[i] })
	return bugs
}

// setupPaper13 compiles the first n Table 1 apps, in seed order; each
// replays its failing input on every production run.
func setupPaper13(n int, seed int64) ([]*bug, error) {
	bugs := make([]*bug, 0, n)
	for _, a := range apps.All()[:n] {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		budget := a.QueryBudget
		if budget == 0 {
			budget = bench.DefaultQueryBudget
		}
		failing, s := a.Failing(), a.Seed
		bugs = append(bugs, &bug{
			name:    a.Name,
			mod:     mod,
			budget:  budget,
			traffic: func(int) (*vm.Workload, int64) { return failing.Clone(), s },
			seed:    a.Seed,
			kind:    a.Kind,
		})
	}
	return shuffle(bugs, seed), nil
}

// setupPopulation generates and compiles n self-verified scenarios, in
// seed order.
func setupPopulation(n int, seed int64) ([]*bug, error) {
	scs, _, err := corpus.Generate(corpus.GenConfig{N: n, Seed: populationSeed})
	if err != nil {
		return nil, err
	}
	bugs := make([]*bug, 0, n)
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			return nil, err
		}
		bugs = append(bugs, &bug{
			name:     sc.Name,
			mod:      mod,
			budget:   sc.QueryBudget,
			traffic:  sc.Gen(failEvery),
			seed:     sc.SchedSeed,
			kind:     sc.Kind,
			failFunc: sc.FailFunc,
		})
	}
	return shuffle(bugs, seed), nil
}

// unit is one timed unit of work and what the benchmark saw of it.
type unit struct {
	// wall is the timed wall time: the sessions, or the fleet.Run /
	// cluster.RunHarness call.
	wall     time.Duration
	outcomes []outcome
	// source is the time spent inside GenSource.Next, feed the rest of
	// the sessions' time, and prodRuns the production runs the source
	// made (session path only; the fleet and cluster count machine runs
	// in the registry).
	source   time.Duration
	feed     time.Duration
	prodRuns int64
	// timelines come from a traced cluster pass; layers is a traced
	// unit's ledger (nil when untraced).
	timelines []cluster.BucketTimeline
	layers    map[string]float64
	// allocBytes and gcCycles are the Go runtime's deltas over the unit.
	allocBytes uint64
	gcCycles   uint32
}

// outcome is one bug's result within a unit. elapsed runs from the
// core.Reproduce call (session path) or from the bucket's first
// occurrence (fleet, cluster) to the verified test case.
type outcome struct {
	bug     *bug
	elapsed time.Duration
	rep     *core.Report
	// err is the ground-truth check's verdict (nil = verified).
	err error
}

// countingGen adapts a traffic function to core.WorkloadGen and counts
// the production runs made.
type countingGen struct {
	traffic func(n int) (*vm.Workload, int64)
	runs    *int64
}

func (g countingGen) Run(n int) (*vm.Workload, int64) {
	*g.runs++
	return g.traffic(n)
}

// timedSource measures the time spent waiting on the reoccurrence
// source: production re-runs, ring allocation, PT record and decode.
type timedSource struct {
	src  core.ReoccurrenceSource
	busy time.Duration
}

func (t *timedSource) Next(req core.SourceRequest) (*core.Occurrence, error) {
	start := time.Now()
	occ, err := t.src.Next(req)
	t.busy += time.Since(start)
	return occ, err
}

// reproduce runs one single-session reconstruction of b (closed loop,
// one client) and adds its source time and production runs to u.
func reproduce(b *bug, reg *telemetry.Registry, tracer *telemetry.Tracer, u *unit) outcome {
	src := &timedSource{src: &core.GenSource{Gen: countingGen{traffic: b.traffic, runs: &u.prodRuns}}}
	start := time.Now()
	rep, _ := core.Reproduce(core.Config{
		Module:    b.mod,
		Source:    src,
		Symex:     b.symex(),
		Telemetry: reg,
		Tracer:    tracer,
	})
	o := outcome{bug: b, elapsed: time.Since(start), rep: rep}
	u.source += src.busy
	u.feed += o.elapsed - src.busy
	return o
}

func sessionUnit(bugs []*bug, reg *telemetry.Registry, tracer *telemetry.Tracer) (*unit, error) {
	u := &unit{}
	start := time.Now()
	for _, b := range bugs {
		u.outcomes = append(u.outcomes, reproduce(b, reg, tracer, u))
	}
	u.wall = time.Since(start)
	return u, nil
}

func fleetApps(bugs []*bug) []fleet.App {
	out := make([]fleet.App, len(bugs))
	for i, b := range bugs {
		out[i] = fleet.App{
			Name:     b.name,
			Module:   b.mod,
			Gen:      b.traffic,
			Machines: 1,
			Symex:    b.symex(),
		}
	}
	return out
}

// bucketOutcomes maps a pass's buckets back to its bugs; a bug whose
// bucket never resolved keeps a nil report and fails the check.
func bucketOutcomes(bugs []*bug, buckets []fleet.BucketResult) []outcome {
	byName := make(map[string]int, len(bugs))
	out := make([]outcome, len(bugs))
	for i, b := range bugs {
		byName[b.name] = i
		out[i] = outcome{bug: b}
	}
	for _, bk := range buckets {
		i, ok := byName[bk.App]
		if !ok || out[i].rep != nil || bk.Report == nil {
			continue
		}
		out[i].elapsed = bk.Elapsed
		out[i].rep = bk.Report
	}
	return out
}

func fleetUnit(bugs []*bug, reg *telemetry.Registry, tracer *telemetry.Tracer) (*unit, error) {
	u := &unit{}
	start := time.Now()
	res, err := fleet.Run(fleetApps(bugs), fleet.Options{
		Workers:   workers,
		Pace:      pace,
		Timeout:   passTimeout,
		Telemetry: reg,
		Tracer:    tracer,
	})
	u.wall = time.Since(start)
	if res == nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	u.outcomes = bucketOutcomes(bugs, res.Buckets)
	return u, nil
}

func clusterUnit(bugs []*bug, reg *telemetry.Registry, _ *telemetry.Tracer) (*unit, error) {
	dir, err := os.MkdirTemp("", "erbenchmark-cluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	u := &unit{}
	start := time.Now()
	res, err := cluster.RunHarness(cluster.HarnessOptions{
		Apps:           fleetApps(bugs),
		Nodes:          workers,
		WorkersPerNode: 1,
		Dir:            dir,
		Pace:           pace,
		Timeout:        passTimeout,
		Telemetry:      reg,
		NodeTracers:    reg != nil,
	})
	u.wall = time.Since(start)
	if res == nil || res.Fleet == nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	u.outcomes = bucketOutcomes(bugs, res.Fleet.Buckets)
	if reg != nil {
		u.timelines = res.Timelines
	}
	return u, nil
}
