package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/fleet"
	"execrecon/internal/symex"
)

// FleetExpOptions configures the fleet-scale experiment.
type FleetExpOptions struct {
	// Workers is the parallel scheduler's worker-pool size
	// (default GOMAXPROCS, floored at 4).
	Workers int
	// MachinesPerApp is the producer count per application
	// (default 2).
	MachinesPerApp int
	// Only restricts the fleet to the named apps (nil = all 13).
	Only []string
	// Pace spaces each machine's production runs (default 100ms —
	// the fleet-wide failure reoccurrence interval). Both modes
	// overlap one bucket's reoccurrence wait with other buckets'
	// analysis: a bucket waiting on production is parked and frees
	// its worker, so even the single-worker mode does not pay the
	// waits one after another.
	Pace time.Duration
	// Log receives fleet progress lines.
	Log io.Writer
}

// FleetModeResult is one end-to-end fleet run (sequential or
// parallel triage).
type FleetModeResult struct {
	Label      string
	Workers    int
	Elapsed    time.Duration
	Resolved   int
	Reproduced int
	Verified   int
	// Occurrences is the total failure reoccurrences triaged.
	Occurrences int64
}

// FleetExpResult compares sequential vs parallel triage over the same
// mixed fleet workload.
type FleetExpResult struct {
	Sequential FleetModeResult
	Parallel   FleetModeResult
	// Speedup is sequential wall time over parallel wall time.
	Speedup float64
	// Buckets holds the parallel run's per-bucket outcomes.
	Buckets []fleet.BucketResult
}

// fleetApps converts the Table 1 programs into fleet applications,
// with the same per-app solver budgets the Table 1 runs use.
func fleetApps(only []string) ([]fleet.App, error) {
	var out []fleet.App
	for _, a := range apps.All() {
		if len(only) > 0 && !contains(only, a.Name) {
			continue
		}
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		budget := a.QueryBudget
		if budget == 0 {
			budget = DefaultQueryBudget
		}
		out = append(out, fleet.App{
			Name:    a.Name,
			Module:  mod,
			Failing: a.Failing,
			Seed:    a.Seed,
			Symex:   symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no fleet apps selected")
	}
	return out, nil
}

func runFleetMode(label string, workers int, only []string, opts FleetExpOptions) (FleetModeResult, []fleet.BucketResult, error) {
	fapps, err := fleetApps(only)
	if err != nil {
		return FleetModeResult{}, nil, err
	}
	res, err := fleet.Run(fapps, fleet.Options{
		Workers:        workers,
		MachinesPerApp: opts.MachinesPerApp,
		Pace:           opts.Pace,
		Log:            opts.Log,
	})
	if err != nil {
		return FleetModeResult{}, nil, err
	}
	m := FleetModeResult{Label: label, Workers: workers, Elapsed: res.Elapsed}
	for _, b := range res.Buckets {
		m.Resolved++
		if b.Reproduced {
			m.Reproduced++
		}
		if b.Verified {
			m.Verified++
		}
		m.Occurrences += b.Occurrences
	}
	return m, res.Buckets, nil
}

// RunFleetExp runs the mixed 13-app fleet workload twice — once with
// a single pipeline worker ("sequential": one analysis at a time) and
// once with a worker pool — and reports the end-to-end times. Buckets
// park while they wait for a reoccurrence in both modes, so the
// speedup measures compute parallelism only, not overlapped waiting:
// on a 2-core machine at the default pace and 4 workers, sequential
// takes about 0.3–0.4 s and parallel 0.2–0.33 s (1.0–1.5×), where a
// worker held across each wait made sequential take about 2 s.
func RunFleetExp(opts FleetExpOptions) (*FleetExpResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers < 4 {
			opts.Workers = 4
		}
	}
	if opts.MachinesPerApp <= 0 {
		opts.MachinesPerApp = 2
	}
	if opts.Pace == 0 {
		opts.Pace = 100 * time.Millisecond
	}
	seq, _, err := runFleetMode("sequential", 1, opts.Only, opts)
	if err != nil {
		return nil, fmt.Errorf("sequential fleet: %w", err)
	}
	par, buckets, err := runFleetMode("parallel", opts.Workers, opts.Only, opts)
	if err != nil {
		return nil, fmt.Errorf("parallel fleet: %w", err)
	}
	r := &FleetExpResult{Sequential: seq, Parallel: par, Buckets: buckets}
	if par.Elapsed > 0 {
		r.Speedup = float64(seq.Elapsed) / float64(par.Elapsed)
	}
	return r, nil
}

// RenderFleet prints the per-bucket triage outcomes and the
// sequential-vs-parallel comparison.
func RenderFleet(w io.Writer, r *FleetExpResult) {
	header := []string{"Bucket (Application-BugID)", "#Occur", "Iter", "Stale", "State", "Reproduced", "Time"}
	var rows [][]string
	for _, b := range r.Buckets {
		rep := "yes"
		if !b.Reproduced {
			rep = "NO"
		} else if !b.Verified {
			rep = "yes (unverified)"
		}
		rows = append(rows, []string{
			b.App,
			fmt.Sprintf("%d", b.Occurrences),
			fmt.Sprintf("%d", b.Iterations),
			fmt.Sprintf("%d", b.StaleDrops),
			b.State,
			rep,
			b.Elapsed.Round(time.Millisecond).String(),
		})
	}
	table(w, header, rows)
	fmt.Fprintln(w)

	header = []string{"Triage mode", "Workers", "End-to-end", "Resolved", "Reproduced", "#Occur"}
	rows = nil
	for _, m := range []FleetModeResult{r.Sequential, r.Parallel} {
		rows = append(rows, []string{
			m.Label,
			fmt.Sprintf("%d", m.Workers),
			m.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", m.Resolved),
			fmt.Sprintf("%d", m.Reproduced),
			fmt.Sprintf("%d", m.Occurrences),
		})
	}
	table(w, header, rows)
	fmt.Fprintf(w, "\nparallel speedup: %.2fx (sequential %v / parallel %v)\n",
		r.Speedup,
		r.Sequential.Elapsed.Round(time.Millisecond),
		r.Parallel.Elapsed.Round(time.Millisecond))
}
