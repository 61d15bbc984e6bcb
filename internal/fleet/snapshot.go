package fleet

import (
	"time"

	"execrecon/internal/prod"
	"execrecon/internal/tracestore"
)

// Snapshot is a point-in-time view of the whole subsystem: ingest
// queue state, producer counters, and per-bucket triage/pipeline
// progress. It is safe to take while the fleet runs.
type Snapshot struct {
	// Elapsed is the time since Start.
	Elapsed time.Duration
	// QueueDepths is the per-shard ingest occupancy.
	QueueDepths []int
	// Accepted is the total messages accepted into ingest.
	Accepted int64
	// Machines aggregates the producer machines' counters.
	Machines prod.MachineStats
	// Store is the trace archive's stats snapshot: segments, records,
	// raw vs stored bytes and torn-tail recoveries.
	Store tracestore.Stats
	// Buckets holds per-bucket progress in creation order.
	Buckets []BucketSnapshot
}

// BucketSnapshot is one bucket's progress.
type BucketSnapshot struct {
	ID      int
	App     string
	Failure string
	Hash    uint64
	State   string
	// Occurrences is the total matching occurrences triaged in.
	Occurrences int64
	// StaleDrops counts occurrences the pipeline skipped as recorded
	// on out-of-date deployments; BadDrops those lost to a failed
	// archive append or skipped as unreadable or truncated.
	StaleDrops int64
	BadDrops   int64
	// Iterations is the pipeline's completed analysis iterations.
	Iterations int
	// Reproduced/Verified mirror the pipeline report once resolved.
	Reproduced bool
	Verified   bool
	// Elapsed runs from the bucket's first occurrence to its
	// resolution (or to now while in flight).
	Elapsed time.Duration
}

// Snapshot captures the subsystem's current state.
func (f *Fleet) Snapshot() Snapshot {
	s := Snapshot{
		QueueDepths: f.ingest.Depths(),
		Accepted:    f.ingest.Accepted(),
	}
	if f.started.Load() {
		s.Elapsed = time.Since(f.start)
	}
	for _, g := range f.byName {
		for _, m := range g.machines {
			st := m.Stats()
			s.Machines.Runs += st.Runs
			s.Machines.Fails += st.Fails
			s.Machines.Shipped += st.Shipped
			s.Machines.Dropped += st.Dropped
		}
	}
	if f.store != nil {
		s.Store = f.store.Stats()
	}
	for _, b := range f.table.Buckets() {
		s.Buckets = append(s.Buckets, f.snapshotBucket(b))
	}
	return s
}

func (f *Fleet) snapshotBucket(b *Bucket) BucketSnapshot {
	bs := BucketSnapshot{
		ID:          b.ID,
		App:         b.App,
		Failure:     b.Sig.Error(),
		Hash:        b.Hash,
		State:       b.State().String(),
		Occurrences: b.occurrences.Load(),
		StaleDrops:  b.staleDrops.Load(),
		BadDrops:    b.badDrops.Load(),
		Iterations:  int(b.iterations.Load()),
	}
	if rep := b.report.Load(); rep != nil {
		bs.Reproduced = rep.Reproduced
		bs.Verified = rep.Verified
	}
	if done := b.doneAt.Load(); done != 0 {
		bs.Elapsed = time.Unix(0, done).Sub(b.firstSeen)
	} else {
		bs.Elapsed = time.Since(b.firstSeen)
	}
	return bs
}
