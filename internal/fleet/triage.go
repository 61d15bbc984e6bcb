package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/prod"
	"execrecon/internal/solver"
	"execrecon/internal/vm"
)

// BucketState is a bucket's pipeline lifecycle.
type BucketState int32

const (
	// BucketQueued: distinct failure discovered, pipeline waiting
	// for a scheduler worker.
	BucketQueued BucketState = iota
	// BucketRunning: a worker is driving this bucket's ER pipeline.
	BucketRunning
	// BucketReproduced: the pipeline emitted a verified test case.
	BucketReproduced
	// BucketFailed: the pipeline ended without reproducing.
	BucketFailed
)

func (s BucketState) String() string {
	switch s {
	case BucketQueued:
		return "queued"
	case BucketRunning:
		return "running"
	case BucketReproduced:
		return "reproduced"
	case BucketFailed:
		return "failed"
	}
	return "unknown"
}

// Bucket groups all reoccurrences of one failure signature. The first
// occurrence creates the bucket (and spawns ER work); subsequent
// occurrences only increment counters and queue for the bucket's
// pipeline — the dedup that keeps one fleet-wide failure from
// spawning one analysis per machine.
type Bucket struct {
	ID   int
	Hash uint64
	// Sig is the canonical failure signature (from the first
	// occurrence).
	Sig *vm.Failure
	// App is the application name reported by the occurrences. It is
	// part of the dedup key (buckets intern by (app, signature), since
	// distinct programs can share a signature) and routes deployment
	// rollouts.
	App string

	pending chan *prod.TraceMsg

	// spilled holds archive sequence numbers of occurrences that
	// overflowed the in-RAM pending queue while the fleet runs with a
	// trace store: instead of dropping them, triage parks the archived
	// seq here and the bucket's pipeline replays them from disk when
	// the live queue runs dry (cold/backlogged buckets never lose
	// reoccurrences).
	spillMu sync.Mutex
	spilled []uint64

	occurrences  atomic.Int64 // total matching occurrences seen by triage
	pendingDrops atomic.Int64 // occurrences dropped because pending was full
	spills       atomic.Int64 // occurrences parked in the archive on overflow
	replayed     atomic.Int64 // spilled occurrences replayed from the archive
	staleDrops   atomic.Int64 // occurrences dropped for an out-of-date version
	badDrops     atomic.Int64 // occurrences dropped as undecodable/truncated
	state        atomic.Int32
	iterations   atomic.Int32 // analysis iterations completed so far
	// remoteResolved latches the first ResolveBucket call in remote-node
	// mode, making resolution idempotent across lease re-dispatch and
	// coordinator commit-log replay.
	remoteResolved atomic.Bool
	// solverStats is the pipeline's persistent-solver progress,
	// mirrored after each fed occurrence (nil when the fleet runs with
	// fresh-per-query solving). One pointer store publishes the whole
	// struct, so a concurrent Snapshot always reads an internally
	// consistent set of counters — the previous field-per-atomic
	// mirror could be observed mid-update (e.g. reused > solves). The
	// session itself lives on the pipeline and dies with it when the
	// bucket retires; only this snapshot outlives it.
	solverStats atomic.Pointer[solver.IncStats]
	report      atomic.Pointer[core.Report]
	firstSeen   time.Time
	doneAt      atomic.Int64 // unix nanos; 0 while in flight
}

// Occurrences returns the total matching occurrences triaged into the
// bucket (including ones later dropped as stale or overflowed).
func (b *Bucket) Occurrences() int64 { return b.occurrences.Load() }

// recordSolverStats mirrors the pipeline's persistent-solver counters
// into the bucket so concurrent Snapshot calls can read them without
// touching the (single-goroutine) pipeline. The whole struct is
// published with a single pointer store: readers see either the
// previous snapshot or this one, never a torn mix of the two.
func (b *Bucket) recordSolverStats(p *core.Pipeline) {
	st := p.SolverStats()
	b.solverStats.Store(&st)
}

// loadSolverStats returns the last published solver-session snapshot
// (zero value before the first publication).
func (b *Bucket) loadSolverStats() solver.IncStats {
	if st := b.solverStats.Load(); st != nil {
		return *st
	}
	return solver.IncStats{}
}

// State returns the bucket's lifecycle state.
func (b *Bucket) State() BucketState { return BucketState(b.state.Load()) }

// offer enqueues a reoccurrence for the bucket's pipeline without
// blocking triage; a full pending queue drops with accounting (the
// pipeline only ever needs "the next" occurrence, so backlog beyond
// the queue bound is redundant anyway).
func (b *Bucket) offer(msg *prod.TraceMsg) bool {
	return b.offerOrSpill(msg, false, 0)
}

// offerOrSpill is offer with a spill fallback: when the pending queue
// is full and the occurrence is already archived under seq, the seq is
// parked on the spill list for later replay instead of being dropped.
func (b *Bucket) offerOrSpill(msg *prod.TraceMsg, archived bool, seq uint64) bool {
	b.occurrences.Add(1)
	select {
	case b.pending <- msg:
		return true
	default:
		if archived {
			b.spillMu.Lock()
			b.spilled = append(b.spilled, seq)
			b.spillMu.Unlock()
			b.spills.Add(1)
		} else {
			b.pendingDrops.Add(1)
		}
		return false
	}
}

// popSpill dequeues the oldest spilled archive sequence number.
func (b *Bucket) popSpill() (uint64, bool) {
	b.spillMu.Lock()
	defer b.spillMu.Unlock()
	if len(b.spilled) == 0 {
		return 0, false
	}
	seq := b.spilled[0]
	b.spilled = b.spilled[1:]
	return seq, true
}

// Table is the concurrent signature-hash bucket index. Lookups hash
// the failure, then resolve collisions by chaining and re-checking
// full SameSignature equality, so two distinct failures that happen
// to share a hash still get distinct buckets.
type Table struct {
	mu         sync.RWMutex
	byHash     map[uint64][]*Bucket
	all        []*Bucket
	pendingCap int
	// hash is the signature hash function; tests override it to
	// force collisions.
	hash func(*vm.Failure) uint64
}

// NewTable returns an empty bucket table whose buckets hold at most
// pendingCap queued reoccurrences (floored at 1).
func NewTable(pendingCap int) *Table {
	return newTableWithHash(pendingCap, SigHash)
}

func newTableWithHash(pendingCap int, hash func(*vm.Failure) uint64) *Table {
	if pendingCap < 1 {
		pendingCap = 1
	}
	return &Table{
		byHash:     make(map[uint64][]*Bucket),
		pendingCap: pendingCap,
		hash:       hash,
	}
}

// Intern returns the bucket for the (app, failure) pair, creating it
// if the pair is new. isNew is true exactly once per distinct pair —
// the dedup edge that spawns pipeline work. The app participates in
// the key because signatures only locate a site within one program:
// different applications can legitimately share a signature (most
// prominently scheduler-level deadlocks, which all report the same
// located-nowhere <scheduler> site) and must still get distinct
// buckets, distinct pipelines, and distinct rollout targets.
func (t *Table) Intern(f *vm.Failure, app string) (b *Bucket, isNew bool) {
	h := t.hash(f)

	t.mu.RLock()
	for _, c := range t.byHash[h] {
		if c.App == app && c.Sig.SameSignature(f) {
			t.mu.RUnlock()
			return c, false
		}
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.byHash[h] {
		if c.App == app && c.Sig.SameSignature(f) {
			return c, false // raced with another inserter
		}
	}
	b = &Bucket{
		ID:        len(t.all),
		Hash:      h,
		Sig:       f,
		App:       app,
		pending:   make(chan *prod.TraceMsg, t.pendingCap),
		firstSeen: time.Now(),
	}
	t.byHash[h] = append(t.byHash[h], b)
	t.all = append(t.all, b)
	return b, true
}

// Buckets returns a snapshot of all buckets in creation order.
func (t *Table) Buckets() []*Bucket {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Bucket, len(t.all))
	copy(out, t.all)
	return out
}

// Len returns the number of distinct signatures seen.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.all)
}
