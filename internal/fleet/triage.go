package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
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
	// BucketWaiting: the pipeline is parked until production banks its
	// next reoccurrence; no worker holds it.
	BucketWaiting
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
	case BucketWaiting:
		return "waiting"
	case BucketReproduced:
		return "reproduced"
	case BucketFailed:
		return "failed"
	}
	return "unknown"
}

// Bucket groups all reoccurrences of one failure signature. The first
// occurrence creates the bucket (and spawns ER work); subsequent
// occurrences only increment counters and are banked in the trace
// archive for the bucket's pipeline — the dedup that keeps one
// fleet-wide failure from spawning one analysis per machine.
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

	// Job is the bucket's run state on the local worker pool; key and
	// cursor are its archive feed's position.
	Job
	key    uint64 // archive key of Sig
	cursor uint64 // next archive seq to consider

	occurrences atomic.Int64 // total matching occurrences seen by triage
	staleDrops  atomic.Int64 // occurrences skipped for an out-of-date version
	badDrops    atomic.Int64 // occurrences lost or skipped as unreadable/truncated
	// resolved latches the first ResolveBucket call, making resolution
	// idempotent across lease re-dispatch and coordinator commit-log
	// replay.
	resolved  atomic.Bool
	report    atomic.Pointer[core.Report]
	firstSeen time.Time
	doneAt    atomic.Int64 // unix nanos; 0 while in flight
}

// Occurrences returns the total matching occurrences triaged into the
// bucket (including ones later skipped as stale or unreadable).
func (b *Bucket) Occurrences() int64 { return b.occurrences.Load() }

// Table is the concurrent signature-hash bucket index. Lookups hash
// the failure, then resolve collisions by chaining and re-checking
// full SameSignature equality, so two distinct failures that happen
// to share a hash still get distinct buckets.
type Table struct {
	mu     sync.RWMutex
	byHash map[uint64][]*Bucket
	all    []*Bucket
	// hash is the signature hash function; tests override it to
	// force collisions.
	hash func(*vm.Failure) uint64
}

// NewTable returns an empty bucket table.
func NewTable() *Table { return newTableWithHash(SigHash) }

func newTableWithHash(hash func(*vm.Failure) uint64) *Table {
	return &Table{byHash: make(map[uint64][]*Bucket), hash: hash}
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
