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
	// QueueDrops is the per-shard overflow drop count (DropNewest
	// policy).
	QueueDrops []int64
	// Accepted is the total messages accepted into ingest.
	Accepted int64
	// Machines aggregates the producer machines' counters.
	Machines prod.MachineStats
	// AbsintDischarged aggregates the queries the abstract
	// pre-discharge pass decided across resolved buckets (zero unless
	// Options.Absint); LintProofs is the error-level provable-lint
	// finding count over the registered app modules.
	AbsintDischarged int64
	LintProofs       int64
	// StoreEnabled reports whether the fleet runs with a persistent
	// trace archive (Options.Store); Store is then its stats snapshot:
	// live segments, raw vs stored bytes (the delta-compression win),
	// torn-tail recoveries, and compaction totals.
	StoreEnabled bool
	Store        tracestore.Stats
	// Spills/Replayed aggregate the buckets' archive spill traffic:
	// occurrences parked on disk when a bucket's in-RAM queue
	// overflowed, and spilled occurrences replayed into pipelines from
	// the segment log.
	Spills   int64
	Replayed int64
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
	// Pending is the bucket queue's current depth.
	Pending int
	// PendingDrops counts occurrences dropped on a full bucket
	// queue; StaleDrops those recorded on out-of-date deployments;
	// BadDrops undecodable/truncated blobs.
	PendingDrops int64
	StaleDrops   int64
	BadDrops     int64
	// Spills counts occurrences that overflowed the in-RAM queue and
	// were parked in the trace archive instead of dropped; Replayed
	// counts spilled occurrences later streamed back into the
	// pipeline. Both stay zero without Options.Store.
	Spills   int64
	Replayed int64
	// Iterations is the pipeline's completed analysis iterations.
	Iterations int
	// AbsintDischarged counts the queries the abstract pre-discharge
	// pass decided; AbsintMined/AbsintVerified the post-reproduction
	// static invariant mining. All three come from the pipeline report
	// once the bucket resolves (zero unless Options.Absint).
	AbsintDischarged int64
	AbsintMined      int
	AbsintVerified   int
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
		QueueDrops:  f.ingest.Drops(),
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
	if st := f.opts.Store; st != nil {
		s.StoreEnabled = true
		s.Store = st.Stats()
	}
	s.LintProofs = f.lintProofs
	for _, b := range f.table.Buckets() {
		bs := f.snapshotBucket(b)
		s.Spills += bs.Spills
		s.Replayed += bs.Replayed
		s.AbsintDischarged += bs.AbsintDischarged
		s.Buckets = append(s.Buckets, bs)
	}
	return s
}

func (f *Fleet) snapshotBucket(b *Bucket) BucketSnapshot {
	bs := BucketSnapshot{
		ID:           b.ID,
		App:          b.App,
		Failure:      b.Sig.Error(),
		Hash:         b.Hash,
		State:        b.State().String(),
		Occurrences:  b.occurrences.Load(),
		Pending:      len(b.pending),
		PendingDrops: b.pendingDrops.Load(),
		StaleDrops:   b.staleDrops.Load(),
		BadDrops:     b.badDrops.Load(),
		Spills:       b.spills.Load(),
		Replayed:     b.replayed.Load(),
		Iterations:   int(b.iterations.Load()),
	}
	if rep := b.report.Load(); rep != nil {
		bs.Reproduced = rep.Reproduced
		bs.Verified = rep.Verified
		bs.AbsintDischarged = rep.AbsintDischarged
		bs.AbsintMined = rep.AbsintMined
		bs.AbsintVerified = len(rep.AbsintInvariants)
	}
	if done := b.doneAt.Load(); done != 0 {
		bs.Elapsed = time.Unix(0, done).Sub(b.firstSeen)
	} else {
		bs.Elapsed = time.Since(b.firstSeen)
	}
	return bs
}
