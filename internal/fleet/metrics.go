package fleet

import (
	"fmt"

	"execrecon/internal/core"
	"execrecon/internal/telemetry"
)

// registerMetrics publishes the fleet's er_fleet_* series into the
// shared registry as collection-time callbacks. Everything reads
// through the same atomics/locks Snapshot uses, so a /metrics scrape
// and a Snapshot call always agree — there is no second copy of the
// numbers to fall out of sync.
//
// Per-bucket drop/spill counters are exposed as fleet-wide aggregates
// (summed over the bucket table at collection time) rather than one
// labelled series per bucket: bucket cardinality is unbounded in a
// long-lived fleet, and the per-bucket split stays available on
// /debug/er.
func (f *Fleet) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for s := 0; s < f.ingest.Shards(); s++ {
		s := s
		lbl := telemetry.L("shard", fmt.Sprintf("%d", s))
		reg.GaugeFunc("er_fleet_ingest_depth",
			"current ingest shard queue occupancy",
			func() float64 { return float64(f.ingest.Depths()[s]) }, lbl)
		reg.CounterFunc("er_fleet_ingest_drops_total",
			"trace blobs dropped on ingest overflow (DropNewest policy)",
			func() float64 { return float64(f.ingest.Drops()[s]) }, lbl)
	}
	reg.CounterFunc("er_fleet_ingest_accepted_total",
		"trace blobs accepted into ingest",
		func() float64 { return float64(f.ingest.Accepted()) })

	machineCounter := func(name, help string, sel func(st machineStatsView) int64) {
		reg.CounterFunc(name, help, func() float64 {
			var total int64
			for _, g := range f.byName {
				for _, m := range g.machines {
					st := m.Stats()
					total += sel(machineStatsView{st.Runs, st.Fails, st.Shipped, st.Dropped})
				}
			}
			return float64(total)
		})
	}
	machineCounter("er_fleet_machine_runs_total",
		"production runs executed across the fleet",
		func(st machineStatsView) int64 { return st.runs })
	machineCounter("er_fleet_machine_fails_total",
		"failing production runs across the fleet",
		func(st machineStatsView) int64 { return st.fails })
	machineCounter("er_fleet_machine_shipped_total",
		"trace blobs shipped by producer machines",
		func(st machineStatsView) int64 { return st.shipped })
	machineCounter("er_fleet_machine_dropped_total",
		"trace blobs producer machines failed to ship",
		func(st machineStatsView) int64 { return st.dropped })

	for _, state := range []BucketState{BucketQueued, BucketRunning, BucketReproduced, BucketFailed} {
		state := state
		reg.GaugeFunc("er_fleet_buckets",
			"failure buckets by lifecycle state",
			func() float64 {
				var n int
				for _, b := range f.table.Buckets() {
					if b.State() == state {
						n++
					}
				}
				return float64(n)
			}, telemetry.L("state", state.String()))
	}
	reg.CounterFunc("er_fleet_buckets_resolved_total",
		"buckets whose pipelines ended (reproduced or failed)",
		func() float64 { return float64(f.resolved.Load()) })

	bucketCounter := func(name, help string, sel func(b *Bucket) int64) {
		reg.CounterFunc(name, help, func() float64 {
			var total int64
			for _, b := range f.table.Buckets() {
				total += sel(b)
			}
			return float64(total)
		})
	}
	bucketCounter("er_fleet_occurrences_total",
		"matching occurrences triaged into buckets",
		func(b *Bucket) int64 { return b.occurrences.Load() })
	bucketCounter("er_fleet_pending_drops_total",
		"occurrences dropped on full bucket queues",
		func(b *Bucket) int64 { return b.pendingDrops.Load() })
	bucketCounter("er_fleet_stale_drops_total",
		"occurrences dropped for an out-of-date deployment version",
		func(b *Bucket) int64 { return b.staleDrops.Load() })
	bucketCounter("er_fleet_bad_drops_total",
		"occurrences dropped as undecodable or truncated",
		func(b *Bucket) int64 { return b.badDrops.Load() })
	bucketCounter("er_fleet_spills_total",
		"occurrences parked in the trace archive on queue overflow",
		func(b *Bucket) int64 { return b.spills.Load() })
	bucketCounter("er_fleet_replays_total",
		"spilled occurrences replayed from the trace archive",
		func(b *Bucket) int64 { return b.replayed.Load() })

	// The fleet owns the wait/decode legs of the shared per-stage
	// histogram; its bucket pipelines fill in the rest (shepherd,
	// solve, keyselect, instrument, verify).
	f.waitHist = core.StageHistogram(reg, "wait")
	f.decodeHist = core.StageHistogram(reg, "decode")
}

// machineStatsView decouples the metric selectors from the
// prod.MachineStats field set.
type machineStatsView struct {
	runs, fails, shipped, dropped int64
}

// IntrospectionAddr returns the bound address of the live
// introspection endpoint ("" when Options.ListenAddr is unset or the
// fleet has not started).
func (f *Fleet) IntrospectionAddr() string {
	if f.server == nil {
		return ""
	}
	return f.server.Addr()
}
