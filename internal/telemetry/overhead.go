package telemetry

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Overhead is the recording-overhead accountant: it attributes
// production-side cost to each instrumentation version of each app —
// run wall time split traced vs. untraced (reported by prod.Machine
// per occurrence) and the recording-set byte cost keyselect chose for
// the version (reported at rollout) — and enforces the paper's
// deployability budget as an SLO: when an instrumented version's mean
// run time exceeds the uninstrumented (version 0) baseline by more
// than the configured percentage, the accountant raises an
// Error event once per (app, version) and latches an
// OverBudget flag the /debug/er endpoint surfaces.
//
// All methods are nil-receiver safe; RecordRun is the hot path (one
// call per production run) and takes one short mutex hold.

// minOverheadSamples is how many runs a version and the baseline each
// need before the budget gate evaluates — below this the mean is
// noise, and a paced fleet accumulates samples in well under a
// second.
const minOverheadSamples = 8

// OverheadOptions configures the accountant.
type OverheadOptions struct {
	// BudgetPct is the SLO: the maximum tolerated mean-run-time
	// increase of an instrumented version over the version-0
	// baseline, in percent. <= 0 disables the gate (accounting still
	// runs).
	BudgetPct float64
	// Logger receives the budget-breach alerts (nil logs nothing).
	Logger *slog.Logger
	// Registry, when set, gets the er_overhead_* series registered as
	// (app, version) cells appear.
	Registry *Registry
}

type overheadCell struct {
	app     string
	version int

	runs, ns                 uint64 // all runs of this version
	tracedRuns, untracedRuns uint64

	sites     int   // recording sites instrumented for this version
	costBytes int64 // estimated per-occurrence recording cost

	alerted bool // budget alert already raised
}

type overheadKey struct {
	app     string
	version int
}

// Overhead accumulates per-(app, instrumentation version) production
// cost. Construct with NewOverhead.
type Overhead struct {
	budget   float64
	log      *slog.Logger
	registry *Registry

	mu       sync.Mutex
	cells    map[overheadKey]*overheadCell
	breaches atomic.Uint64
}

// NewOverhead returns an accountant enforcing opts.BudgetPct.
func NewOverhead(opts OverheadOptions) *Overhead {
	o := &Overhead{
		budget:   opts.BudgetPct,
		log:      OrDiscard(opts.Logger).With("component", "overhead"),
		registry: opts.Registry,
		cells:    make(map[overheadKey]*overheadCell),
	}
	if opts.Registry != nil {
		opts.Registry.CounterFunc("er_overhead_budget_breaches_total",
			"instrumentation versions whose mean run time exceeded the overhead budget",
			func() float64 { return float64(o.breaches.Load()) })
	}
	return o
}

// Budget returns the configured SLO in percent (0 = gate off).
func (o *Overhead) Budget() float64 {
	if o == nil {
		return 0
	}
	return o.budget
}

// cellLocked finds or creates the (app, version) cell, registering
// its metric series on first sight. Callers hold o.mu.
func (o *Overhead) cellLocked(app string, version int) *overheadCell {
	k := overheadKey{app, version}
	c := o.cells[k]
	if c != nil {
		return c
	}
	c = &overheadCell{app: app, version: version}
	o.cells[k] = c
	if r := o.registry; r != nil {
		labels := []Label{L("app", app), L("version", fmt.Sprintf("%d", version))}
		r.GaugeFunc("er_overhead_run_mean_seconds",
			"mean production run wall time per app and instrumentation version",
			func() float64 {
				o.mu.Lock()
				defer o.mu.Unlock()
				if c.runs == 0 {
					return 0
				}
				return float64(c.ns) / float64(c.runs) / 1e9
			}, labels...)
		r.GaugeFunc("er_overhead_pct",
			"mean run-time increase over the version-0 baseline, percent",
			func() float64 {
				o.mu.Lock()
				defer o.mu.Unlock()
				pct, ok := o.pctLocked(c)
				if !ok {
					return 0
				}
				return pct
			}, labels...)
		r.GaugeFunc("er_overhead_recording_bytes",
			"estimated per-occurrence recording cost of the version's key data value set",
			func() float64 {
				o.mu.Lock()
				defer o.mu.Unlock()
				return float64(c.costBytes)
			}, labels...)
		r.GaugeFunc("er_overhead_recording_sites",
			"key data value recording sites instrumented for the version",
			func() float64 {
				o.mu.Lock()
				defer o.mu.Unlock()
				return float64(c.sites)
			}, labels...)
	}
	return c
}

// pctLocked computes the version's overhead over the version-0
// baseline; ok is false until both sides have minOverheadSamples
// (and always for version 0 itself).
func (o *Overhead) pctLocked(c *overheadCell) (float64, bool) {
	if c.version == 0 || c.runs < minOverheadSamples {
		return 0, false
	}
	base := o.cells[overheadKey{c.app, 0}]
	if base == nil || base.runs < minOverheadSamples || base.ns == 0 {
		return 0, false
	}
	baseMean := float64(base.ns) / float64(base.runs)
	mean := float64(c.ns) / float64(c.runs)
	return (mean - baseMean) / baseMean * 100, true
}

// RecordRun attributes one production run's wall time to (app,
// version). traced marks whether the run carried the PT tracer; only
// the run counts are split by it, and the budget gate compares all
// runs of a version against the baseline. Evaluates the budget gate.
func (o *Overhead) RecordRun(app string, version int, traced bool, d time.Duration) {
	if o == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	o.mu.Lock()
	c := o.cellLocked(app, version)
	c.runs++
	c.ns += ns
	if traced {
		c.tracedRuns++
	} else {
		c.untracedRuns++
	}
	var breach bool
	var pct float64
	if o.budget > 0 && !c.alerted {
		if p, ok := o.pctLocked(c); ok && p > o.budget {
			c.alerted = true
			breach = true
			pct = p
		}
	}
	o.mu.Unlock()
	if breach {
		o.breaches.Add(1)
		o.log.Error("instrumentation version exceeds the recording-overhead budget",
			"app", app, "version", version,
			"overhead_pct", fmt.Sprintf("%.2f", pct),
			"budget_pct", fmt.Sprintf("%.2f", o.budget))
	}
}

// SetRecordingCost attributes a version's recording-set size: the
// site count and estimated per-occurrence byte cost keyselect chose
// when the rollout was built.
func (o *Overhead) SetRecordingCost(app string, version, sites int, costBytes int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	c := o.cellLocked(app, version)
	c.sites = sites
	c.costBytes = costBytes
	o.mu.Unlock()
}

// Breaches returns how many (app, version) cells have tripped the
// budget gate.
func (o *Overhead) Breaches() uint64 {
	if o == nil {
		return 0
	}
	return o.breaches.Load()
}

// OverheadRow is one (app, version) ledger entry.
type OverheadRow struct {
	App     string `json:"app"`
	Version int    `json:"version"`

	Runs          uint64  `json:"runs"`
	MeanRunMillis float64 `json:"mean_run_ms"`
	TracedRuns    uint64  `json:"traced_runs"`
	UntracedRuns  uint64  `json:"untraced_runs,omitempty"`

	Sites     int   `json:"recording_sites"`
	CostBytes int64 `json:"recording_bytes"`

	// OverheadPct is the mean run-time increase over version 0;
	// meaningful only when Measured is true.
	OverheadPct float64 `json:"overhead_pct"`
	Measured    bool    `json:"measured"`
	OverBudget  bool    `json:"over_budget,omitempty"`
}

// Snapshot returns the ledger sorted by (app, version) — the
// /debug/er "overhead" section.
func (o *Overhead) Snapshot() []OverheadRow {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	rows := make([]OverheadRow, 0, len(o.cells))
	for _, c := range o.cells {
		row := OverheadRow{
			App: c.app, Version: c.version,
			Runs: c.runs, TracedRuns: c.tracedRuns, UntracedRuns: c.untracedRuns,
			Sites: c.sites, CostBytes: c.costBytes,
			OverBudget: c.alerted,
		}
		if c.runs > 0 {
			row.MeanRunMillis = float64(c.ns) / float64(c.runs) / 1e6
		}
		row.OverheadPct, row.Measured = o.pctLocked(c)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].App != rows[j].App {
			return rows[i].App < rows[j].App
		}
		return rows[i].Version < rows[j].Version
	})
	return rows
}
