package main

import (
	"execrecon/internal/cluster"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// analysisStages are the pipeline stages every workload runs; their
// busy time is reported in seconds per unit and as a share of wall.
// decode and wait are not stages on every path, so they get a share
// only.
var analysisStages = []string{"shepherd", "solve", "keyselect", "instrument", "verify"}

// ledgerMetrics is the per-layer ledger of a traced run, in print
// order. Counts and times are per unit; shares divide busy time by the
// unit's wall time, so they can exceed 1 where pipelines run
// concurrently (fleet, cluster).
var ledgerMetrics = func() []metricDef {
	defs := []metricDef{
		{"core.source_share", "ratio"},
		{"core.feed_share", "ratio"},
	}
	for _, s := range analysisStages {
		defs = append(defs,
			metricDef{"core.stage." + s + "_s", "s"},
			metricDef{"core.stage." + s + "_share", "ratio"})
	}
	return append(defs, []metricDef{
		{"core.stage.decode_share", "ratio"},
		{"core.stage.wait_share", "ratio"},
		{"core.iterations", "count"},
		{"core.stalls", "count"},
		{"core.stall_ratio", "ratio"},
		{"prod.runs", "count"},
		{"prod.runs_per_occurrence", "ratio"},
		{"prod.run_rate_ratio", "ratio"},
		{"pt.trace_events", "count"},
		{"symex.instrs", "count"},
		{"symex.sym_steps", "count"},
		{"symex.conc_steps", "count"},
		{"solver.queries", "count"},
		{"solver.steps", "count"},
		{"solver.sat_vars", "count"},
		{"solver.sat_clauses", "count"},
		{"solver.absint_discharged", "count"},
		{"keyselect.sites", "count"},
		{"keyselect.cost_bytes", "B"},
		{"cgraph.nodes_max", "count"},
		{"fleet.ingest_accepted", "count"},
		{"fleet.ingest_drops", "count"},
		{"fleet.pending_drops", "count"},
		{"fleet.stale_drops", "count"},
		{"fleet.occ_used_ratio", "ratio"},
		{"tracestore.appends", "count"},
		{"tracestore.raw_mb", "MB"},
		{"tracestore.stored_mb", "MB"},
		{"tracestore.compression_ratio", "ratio"},
		{"cluster.leases_granted", "count"},
		{"cluster.leases_renewed", "count"},
		{"cluster.leases_expired", "count"},
		{"cluster.redispatched", "count"},
		{"cluster.wal_kb", "KB"},
		{"peak_rss_mb", "MB"},
		{"go.alloc_gb", "GB"},
		{"go.gc_cycles", "count"},
		{"trace_overhead_pct", "%"},
	}...)
}()

// unitLedger reads one traced unit's per-layer numbers from the registry
// it reported into and from what it returned: stage times from
// the er_core_stage_seconds histograms (the cluster's node pipelines
// report into no registry, so there they are span self-times from the
// stitched bucket timelines), fleet, archive and lease counters from the
// registry, and per-iteration work counts from the pipeline reports,
// which every path returns alike. trace_overhead_pct and peak_rss_mb
// belong to the whole run and are filled in by the caller.
func unitLedger(u *unit, reg *telemetry.Registry) map[string]float64 {
	m := make(map[string]float64, len(ledgerMetrics))
	wall := u.wall.Seconds()
	m["core.source_share"] = u.source.Seconds() / wall
	m["core.feed_share"] = u.feed.Seconds() / wall

	var stages map[string]float64
	if u.timelines != nil {
		stages = timelineStages(u.timelines)
	} else {
		stages = histogramStages(reg)
	}
	for _, s := range analysisStages {
		m["core.stage."+s+"_s"] = stages[s]
		m["core.stage."+s+"_share"] = stages[s] / wall
	}
	m["core.stage.decode_share"] = stages["decode"] / wall
	m["core.stage.wait_share"] = stages["wait"] / wall

	var occ, elapsed float64
	for _, o := range u.outcomes {
		elapsed += o.elapsed.Seconds()
		rep := o.rep
		if rep == nil {
			continue
		}
		occ += float64(rep.Occurrences)
		m["solver.sat_vars"] += float64(rep.TotalSATVars)
		m["solver.sat_clauses"] += float64(rep.TotalSATClauses)
		m["solver.absint_discharged"] += float64(rep.AbsintDischarged)
		for _, it := range rep.Iterations {
			m["core.iterations"]++
			if it.Status == symex.StatusStalled {
				m["core.stalls"]++
			}
			m["pt.trace_events"] += float64(it.TraceEvents)
			m["symex.instrs"] += float64(it.SymexInstrs)
			m["symex.sym_steps"] += float64(it.SymSteps)
			m["symex.conc_steps"] += float64(it.ConcSteps)
			m["solver.queries"] += float64(it.Queries)
			m["solver.steps"] += float64(it.SolverSteps)
			m["keyselect.sites"] += float64(it.RecordingSites)
			m["keyselect.cost_bytes"] += float64(it.RecordingCost)
			if n := float64(it.GraphNodes); n > m["cgraph.nodes_max"] {
				m["cgraph.nodes_max"] = n
			}
		}
	}
	m["core.stall_ratio"] = ratio(m["core.stalls"], m["core.iterations"])

	runs := float64(u.prodRuns)
	if u.prodRuns == 0 {
		// Fleet and cluster machines run in an open loop, each due every
		// pace while its bug is open.
		runs = familySum(reg, "er_fleet_machine_runs_total")
		m["prod.run_rate_ratio"] = ratio(runs, elapsed/pace.Seconds())
	}
	m["prod.runs"] = runs
	m["prod.runs_per_occurrence"] = ratio(runs, occ)

	m["fleet.ingest_accepted"] = familySum(reg, "er_fleet_ingest_accepted_total")
	m["fleet.ingest_drops"] = familySum(reg, "er_fleet_ingest_drops_total")
	m["fleet.pending_drops"] = familySum(reg, "er_fleet_pending_drops_total")
	m["fleet.stale_drops"] = familySum(reg, "er_fleet_stale_drops_total")
	m["fleet.occ_used_ratio"] = ratio(occ, familySum(reg, "er_fleet_occurrences_total"))

	m["tracestore.appends"] = familySum(reg, "er_tracestore_appends_total")
	m["tracestore.raw_mb"] = familySum(reg, "er_tracestore_raw_bytes") / (1 << 20)
	m["tracestore.stored_mb"] = familySum(reg, "er_tracestore_stored_bytes") / (1 << 20)
	m["tracestore.compression_ratio"] = familySum(reg, "er_tracestore_compression_ratio")

	m["cluster.leases_granted"] = familySum(reg, "er_cluster_leases_granted_total")
	m["cluster.leases_renewed"] = familySum(reg, "er_cluster_leases_renewed_total")
	m["cluster.leases_expired"] = familySum(reg, "er_cluster_leases_expired_total")
	m["cluster.redispatched"] = familySum(reg, "er_cluster_leases_redispatched_total")
	m["cluster.wal_kb"] = familySum(reg, "er_cluster_wal_bytes") / (1 << 10)

	m["go.alloc_gb"] = float64(u.allocBytes) / (1 << 30)
	m["go.gc_cycles"] = float64(u.gcCycles)
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// familySum totals every series of a counter or gauge family (0 when
// the family was never registered on this path).
func familySum(reg *telemetry.Registry, name string) float64 {
	fam, ok := reg.Family(name)
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range fam.Series {
		sum += s.Value
	}
	return sum
}

// histogramStages sums er_core_stage_seconds per stage. The shepherd
// histogram includes the solver time spent inside it; subtracting
// solve leaves shepherd's self time, as on the span path.
func histogramStages(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	fam, ok := reg.Family("er_core_stage_seconds")
	if !ok {
		return out
	}
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "stage" && s.Hist != nil {
				out[l.Value] += s.Hist.Sum
			}
		}
	}
	out["shepherd"] -= out["solve"]
	return out
}

// timelineStages sums span self times (duration minus the children's)
// by span name over every bucket's stitched timeline.
func timelineStages(tls []cluster.BucketTimeline) map[string]float64 {
	out := map[string]float64{}
	var walk func(sn telemetry.SpanSnapshot)
	walk = func(sn telemetry.SpanSnapshot) {
		self := sn.Duration
		for _, c := range sn.Children {
			self -= c.Duration
			walk(c)
		}
		out[sn.Name] += self.Seconds()
	}
	for _, tl := range tls {
		walk(tl.Root)
	}
	return out
}
