// The observability experiment (erbench -exp obs): the price and the
// payoff of the cluster-wide observability layer, in three phases.
//
// Phase A runs the full Table 1 corpus through the fleet twice — once
// with every observability hook disabled (nil registry, tracer,
// journal, accountant: the nil-receiver fast paths) and once with all
// of them live — and gates on 13/13 verdict parity plus an aggregate
// wall-clock overhead under the budget (default 5%). The enabled run
// also exercises the recording-overhead accountant end to end: every
// production run's wall time lands in the ledger via prod.Machine,
// every rollout's recording-set cost via the fleet.
//
// Phase B is a deterministic budget-gate smoke: a synthetic ledger
// with a known-overbudget instrumented version must trip the SLO gate
// exactly and raise the journal alert.
//
// Phase C runs the corpus through the in-process multi-node cluster
// (coordinator + N triage nodes over loopback HTTP, per-node tracers
// on) and checks that every resolved bucket yields one stitched
// ingest-through-resolve timeline whose remote replay subtree carries
// the bucket's trace id across the process boundary — then reopens
// the coordinator's WAL and checks the recovered skeletons still
// render ingest-through-resolve after the restart.

package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"execrecon/internal/cluster"
	"execrecon/internal/fleet"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
)

// ObsOptions configures the observability experiment.
type ObsOptions struct {
	// Nodes is the cluster phase's triage-node count (default 2 — the
	// timeline-stitching smoke needs at least two tracer domains).
	Nodes int
	// WorkersPerNode is each node's concurrent-pipeline budget
	// (default 2).
	WorkersPerNode int
	// MachinesPerApp, Pace, Only as in FleetExpOptions.
	MachinesPerApp int
	Pace           time.Duration
	Only           []string
	// Trials is the Phase A wall-time trial count per mode; the
	// reported time is the minimum (default 3, matching E16 — single
	// fleet runs are scheduler-noise dominated).
	Trials int
	// Log receives progress lines.
	Log io.Writer
}

// ObsBucketRow compares one app's fleet verdict with observability
// off versus on.
type ObsBucketRow struct {
	App string `json:"app"`

	OffReproduced bool `json:"off_reproduced"`
	OffVerified   bool `json:"off_verified"`
	OnReproduced  bool `json:"on_reproduced"`
	OnVerified    bool `json:"on_verified"`

	// VerdictMatch: both modes agree on Reproduced and Verified — the
	// correctness gate (observability must be observation-only).
	VerdictMatch bool `json:"verdict_match"`
}

// TimelineCheck is one bucket timeline's completeness verdict.
type TimelineCheck struct {
	App     string `json:"app"`
	Key     uint64 `json:"key"`
	TraceID string `json:"trace_id"`
	State   string `json:"state"`

	Events int `json:"events"`
	Leases int `json:"leases"`

	// HasIngest/HasResolve: the lifecycle endpoints are on the tree.
	// HasReplay: a lease window carries the remote replay subtree.
	// Stitched: that subtree joins the bucket's trace (same trace id,
	// parented on the bucket root span) — the cross-process proof.
	HasIngest  bool `json:"has_ingest"`
	HasResolve bool `json:"has_resolve"`
	HasReplay  bool `json:"has_replay"`
	Stitched   bool `json:"stitched"`

	Complete bool `json:"complete"`
}

// ObsResult aggregates the experiment.
type ObsResult struct {
	Rows []ObsBucketRow `json:"rows"`
	// AllVerdictsMatch reports whether every bucket resolved
	// identically in both Phase A modes.
	AllVerdictsMatch bool `json:"all_verdicts_match"`
	// OffElapsed/OnElapsed are the Phase A fleet wall times; their
	// relative delta is the headline overhead.
	OffElapsed time.Duration `json:"off_elapsed_ns"`
	OnElapsed  time.Duration `json:"on_elapsed_ns"`

	// JournalEvents is the enabled fleet run's emitted event count
	// (the fleet journals only failure paths, so 0 on a healthy run);
	// ClusterJournalEvents is the Phase C coordinator's count (the
	// coordinator journals every lifecycle edge, so it must be > 0).
	// AccountedRuns/OverheadRows/RecordingBytes summarize the enabled
	// run's recording-overhead ledger.
	JournalEvents        uint64 `json:"journal_events"`
	ClusterJournalEvents uint64 `json:"cluster_journal_events"`
	OverheadRows         int    `json:"overhead_rows"`
	AccountedRuns        uint64 `json:"accounted_runs"`
	RecordingBytes       int64  `json:"recording_bytes"`

	// GateBreaches/GateAlerted are the Phase B synthetic budget-gate
	// smoke: the known-overbudget version must latch exactly one
	// breach and raise the journal alert.
	GateBreaches uint64 `json:"gate_breaches"`
	GateAlerted  bool   `json:"gate_alerted"`

	// Nodes is the cluster phase's node count; Timelines its
	// per-bucket completeness checks; Redispatched its re-dispatch
	// count (timelines must survive them).
	Nodes             int             `json:"nodes"`
	Timelines         []TimelineCheck `json:"timelines"`
	TimelinesComplete bool            `json:"timelines_complete"`
	Redispatched      int64           `json:"redispatched"`

	// RestartTimelines re-checks the same buckets after the
	// coordinator's WAL is reopened by a fresh coordinator — the
	// restart-survival gate (point events are not replayed, so the
	// check relaxes to the durable skeleton: ingest, final replay
	// span, resolution).
	RestartTimelines []TimelineCheck `json:"restart_timelines"`
	RestartComplete  bool            `json:"restart_complete"`
}

// OverheadPct is the Phase A enabled-over-disabled wall-time delta in
// percent.
func (r *ObsResult) OverheadPct() float64 {
	if r.OffElapsed <= 0 {
		return 0
	}
	return 100 * (float64(r.OnElapsed) - float64(r.OffElapsed)) / float64(r.OffElapsed)
}

// obsFleetRun is one Phase A fleet run; a nil registry means the
// disabled mode (journal/tracer/accountant nil too).
func obsFleetRun(only []string, opts ObsOptions, reg *telemetry.Registry,
	journal *telemetry.Journal, overhead *telemetry.Overhead) (*fleet.Result, error) {
	fapps, err := fleetApps(only)
	if err != nil {
		return nil, err
	}
	fo := fleet.Options{
		MachinesPerApp: opts.MachinesPerApp,
		Pace:           opts.Pace,
		Log:            opts.Log,
	}
	if reg != nil {
		fo.Telemetry = reg
		fo.Tracer = telemetry.NewTracer(0)
		fo.Journal = journal
		fo.Overhead = overhead
	}
	return fleet.Run(fapps, fo)
}

// checkTimeline validates one stitched bucket timeline. Restart-mode
// checks only the durable skeleton: recovery replays the ingest event
// and the final lease/replay span from the WAL, but not the
// intermediate point events (archive, rollout, resolve), so the
// resolution is checked via ResolvedAt instead of the resolve event.
func checkTimeline(tl cluster.BucketTimeline, restart bool) TimelineCheck {
	tc := TimelineCheck{
		App:     tl.App,
		Key:     tl.Key,
		TraceID: tl.TraceID,
		State:   tl.State,
	}
	rootSpan := tl.Root.SpanID
	for _, ch := range tl.Root.Children {
		switch ch.Name {
		case "ingest":
			tc.HasIngest = true
			tc.Events++
		case "lease":
			tc.Leases++
			for _, r := range ch.Children {
				if r.Name != "replay" {
					continue
				}
				tc.HasReplay = true
				if r.TraceID == tl.TraceID && r.ParentID == rootSpan {
					tc.Stitched = true
				}
			}
		case "resolve":
			tc.HasResolve = true
			tc.Events++
		default:
			tc.Events++
		}
	}
	resolved := tl.State == "resolved" && tl.ResolvedAt != nil
	validTrace := tl.TraceID != "" && tl.TraceID != "0000000000000000"
	ends := tc.HasResolve
	if restart {
		ends = true // point events are not durable; ResolvedAt is
	}
	tc.Complete = validTrace && resolved && tc.HasIngest && ends &&
		tc.Leases > 0 && tc.HasReplay && tc.Stitched
	return tc
}

// RunObs runs the three observability phases: the on/off fleet parity
// and overhead comparison, the synthetic budget-gate smoke, and the
// multi-node timeline-stitching run with its WAL-restart re-check.
func RunObs(opts ObsOptions) (*ObsResult, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.WorkersPerNode <= 0 {
		opts.WorkersPerNode = 2
	}
	if opts.MachinesPerApp <= 0 {
		opts.MachinesPerApp = 2
	}
	if opts.Pace == 0 {
		opts.Pace = 100 * time.Millisecond
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	res := &ObsResult{AllVerdictsMatch: true, Nodes: opts.Nodes}

	// Phase A: the corpus with the observability layer off and on,
	// interleaved off/on per trial so slow machine-load drift hits
	// both modes alike. Wall times keep the minimum of opts.Trials
	// runs per mode (E16's protocol): one fleet run is paced in
	// 100ms ticks and scheduler-noise dominated, and the minimum is
	// the least-perturbed sample of each mode. Each enabled trial
	// gets a fresh registry/journal/ledger so the reported ledger
	// describes exactly the kept (fastest) run.
	var off, on *fleet.Result
	var journal *telemetry.Journal
	var overhead *telemetry.Overhead
	for t := 0; t < opts.Trials; t++ {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "obs: phase A: off/on fleet pair (trial %d/%d)\n", t+1, opts.Trials)
		}
		r, err := obsFleetRun(opts.Only, opts, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("obs: disabled fleet run: %w", err)
		}
		if off == nil || r.Elapsed < off.Elapsed {
			off = r
		}
		treg := telemetry.New()
		tj := telemetry.NewJournal(telemetry.JournalOptions{})
		tj.RegisterMetrics(treg)
		tov := telemetry.NewOverhead(telemetry.OverheadOptions{Journal: tj, Registry: treg})
		r, err = obsFleetRun(opts.Only, opts, treg, tj, tov)
		if err != nil {
			return nil, fmt.Errorf("obs: enabled fleet run: %w", err)
		}
		if on == nil || r.Elapsed < on.Elapsed {
			on, journal, overhead = r, tj, tov
		}
	}
	res.OffElapsed = off.Elapsed
	res.OnElapsed = on.Elapsed
	res.JournalEvents = journal.Emitted()
	for _, row := range overhead.Snapshot() {
		res.OverheadRows++
		res.AccountedRuns += row.Runs
		res.RecordingBytes += row.CostBytes
	}

	onBy := make(map[string]fleet.BucketResult, len(on.Buckets))
	for _, b := range on.Buckets {
		onBy[b.App] = b
	}
	for _, b := range off.Buckets {
		row := ObsBucketRow{App: b.App}
		if b.Report != nil {
			row.OffReproduced = b.Report.Reproduced
			row.OffVerified = b.Report.Verified
		}
		ob, ok := onBy[b.App]
		if ok && ob.Report != nil {
			row.OnReproduced = ob.Report.Reproduced
			row.OnVerified = ob.Report.Verified
		}
		row.VerdictMatch = ok &&
			row.OffReproduced == row.OnReproduced &&
			row.OffVerified == row.OnVerified
		if !row.VerdictMatch {
			res.AllVerdictsMatch = false
		}
		res.Rows = append(res.Rows, row)
	}
	if len(off.Buckets) != len(on.Buckets) {
		res.AllVerdictsMatch = false
	}

	// Phase B: deterministic budget-gate smoke. Version 1 runs at
	// twice the baseline mean against a 5% budget — the gate must
	// latch exactly once and the alert must reach the journal.
	gj := telemetry.NewJournal(telemetry.JournalOptions{})
	gate := telemetry.NewOverhead(telemetry.OverheadOptions{BudgetPct: 5, Journal: gj})
	for i := 0; i < 16; i++ {
		gate.RecordRun("gate-app", 0, false, time.Millisecond)
		gate.RecordRun("gate-app", 1, true, 2*time.Millisecond)
	}
	res.GateBreaches = gate.Breaches()
	for _, ev := range gj.Recent(telemetry.LevelError, 8) {
		if ev.Component == "overhead" {
			res.GateAlerted = true
		}
	}

	// Phase C: the multi-node cluster with per-node tracers; every
	// resolved bucket must stitch into one complete timeline.
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "obs: phase C: %d-node cluster with node tracers\n", opts.Nodes)
	}
	dir, err := os.MkdirTemp("", "er-obs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fapps, err := fleetApps(opts.Only)
	if err != nil {
		return nil, err
	}
	creg := telemetry.New()
	cjournal := telemetry.NewJournal(telemetry.JournalOptions{})
	cjournal.RegisterMetrics(creg)
	coverhead := telemetry.NewOverhead(telemetry.OverheadOptions{Journal: cjournal, Registry: creg})
	hres, err := cluster.RunHarness(cluster.HarnessOptions{
		Apps:           fapps,
		Nodes:          opts.Nodes,
		WorkersPerNode: opts.WorkersPerNode,
		Dir:            dir,
		MachinesPerApp: opts.MachinesPerApp,
		Pace:           opts.Pace,
		Telemetry:      creg,
		Journal:        cjournal,
		Overhead:       coverhead,
		NodeTracers:    true,
		Log:            opts.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("obs: cluster run: %w", err)
	}
	res.Redispatched = hres.Cluster.Redispatched
	res.ClusterJournalEvents = cjournal.Emitted()
	res.TimelinesComplete = len(hres.Timelines) > 0
	for _, tl := range hres.Timelines {
		tc := checkTimeline(tl, false)
		res.Timelines = append(res.Timelines, tc)
		if !tc.Complete {
			res.TimelinesComplete = false
		}
	}

	// Restart: reopen the same WAL with a fresh coordinator and check
	// the recovered skeletons still render ingest-through-resolve.
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		return nil, fmt.Errorf("obs: reopen store: %w", err)
	}
	defer store.Close()
	coord, err := cluster.NewCoordinator(fapps, cluster.CoordinatorOptions{
		Fleet:   fleet.Options{MachinesPerApp: opts.MachinesPerApp, Pace: opts.Pace},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		return nil, fmt.Errorf("obs: coordinator restart: %w", err)
	}
	restart := coord.Timelines()
	coord.Close()
	res.RestartComplete = len(restart) > 0
	for _, tl := range restart {
		tc := checkTimeline(tl, true)
		res.RestartTimelines = append(res.RestartTimelines, tc)
		if !tc.Complete {
			res.RestartComplete = false
		}
	}
	return res, nil
}

// RenderObs prints the parity table, the ledger and gate summary, and
// the timeline completeness checks.
func RenderObs(w io.Writer, r *ObsResult) {
	header := []string{"Application-BugID", "Off", "On", "Verdict"}
	verdict := func(rep, ver bool) string {
		switch {
		case rep && ver:
			return "reproduced+verified"
		case rep:
			return "reproduced"
		default:
			return "not reproduced"
		}
	}
	var rows [][]string
	for _, row := range r.Rows {
		match := "match"
		if !row.VerdictMatch {
			match = "MISMATCH"
		}
		rows = append(rows, []string{
			row.App,
			verdict(row.OffReproduced, row.OffVerified),
			verdict(row.OnReproduced, row.OnVerified),
			match,
		})
	}
	table(w, header, rows)
	fmt.Fprintf(w, "\nfleet wall time: off %v vs on %v (%+.2f%% overhead); verdicts identical: %v\n",
		r.OffElapsed.Round(time.Millisecond), r.OnElapsed.Round(time.Millisecond),
		r.OverheadPct(), r.AllVerdictsMatch)
	fmt.Fprintf(w, "journal: %d fleet events (healthy fleets are quiet), %d cluster events; overhead ledger: %d cells, %d runs accounted, %dB recording cost\n",
		r.JournalEvents, r.ClusterJournalEvents, r.OverheadRows, r.AccountedRuns, r.RecordingBytes)
	gate := "FAILED"
	if r.GateBreaches == 1 && r.GateAlerted {
		gate = "ok"
	}
	fmt.Fprintf(w, "budget gate smoke: %d breach(es), journal alert %v -> %s\n",
		r.GateBreaches, r.GateAlerted, gate)

	fmt.Fprintf(w, "\ntimeline stitching (%d nodes, %d redispatches):\n", r.Nodes, r.Redispatched)
	th := []string{"Bucket", "Trace", "State", "Leases", "Replay", "Stitched", "Complete"}
	tlRows := func(checks []TimelineCheck) [][]string {
		var out [][]string
		for _, tc := range checks {
			out = append(out, []string{
				fmt.Sprintf("%s/%#x", tc.App, tc.Key),
				tc.TraceID,
				tc.State,
				fmt.Sprintf("%d", tc.Leases),
				fmt.Sprintf("%v", tc.HasReplay),
				fmt.Sprintf("%v", tc.Stitched),
				fmt.Sprintf("%v", tc.Complete),
			})
		}
		return out
	}
	table(w, th, tlRows(r.Timelines))
	fmt.Fprintf(w, "all timelines complete: %v\n", r.TimelinesComplete)
	fmt.Fprintf(w, "\nafter coordinator WAL restart (%d recovered):\n", len(r.RestartTimelines))
	table(w, th, tlRows(r.RestartTimelines))
	fmt.Fprintf(w, "all recovered timelines complete: %v\n", r.RestartComplete)
}
