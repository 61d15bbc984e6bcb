package fleet

import (
	"sync/atomic"

	"execrecon/internal/prod"
)

// Ingest is a bounded, sharded MPSC queue between many producer
// machines and the triage drainers. Messages shard by signature hash,
// so all reoccurrences of one failure land on one shard and stay in
// arrival order; distinct failures spread across shards and do not
// contend. A full shard blocks its producers until it drains (or the
// queue closes): machines slow down instead of losing occurrences.
//
// Ingest implements prod.TraceSink.
type Ingest struct {
	shards []chan *prod.TraceMsg
	done   chan struct{}
	closed atomic.Bool

	accepted atomic.Int64
}

// NewIngest returns a queue with the given shard count and per-shard
// capacity (both floored at 1).
func NewIngest(shards, capacity int) *Ingest {
	if shards < 1 {
		shards = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	q := &Ingest{
		shards: make([]chan *prod.TraceMsg, shards),
		done:   make(chan struct{}),
	}
	for i := range q.shards {
		q.shards[i] = make(chan *prod.TraceMsg, capacity)
	}
	return q
}

func (q *Ingest) shardOf(msg *prod.TraceMsg) int {
	return int(SigHash(msg.Failure) % uint64(len(q.shards)))
}

// Emit implements prod.TraceSink. It blocks while the message's shard
// is full and returns false when the queue is closed.
func (q *Ingest) Emit(msg *prod.TraceMsg) bool {
	if msg == nil || msg.Failure == nil {
		return false
	}
	select {
	case <-q.done:
		return false
	case q.shards[q.shardOf(msg)] <- msg:
		q.accepted.Add(1)
		return true
	}
}

// Shard exposes one shard's receive side to a triage drainer.
func (q *Ingest) Shard(i int) <-chan *prod.TraceMsg { return q.shards[i] }

// Shards returns the shard count.
func (q *Ingest) Shards() int { return len(q.shards) }

// Done returns a channel closed when the queue shuts down.
func (q *Ingest) Done() <-chan struct{} { return q.done }

// Close shuts the queue down: blocked and future producers fail fast
// (Emit returns false). Close is idempotent.
func (q *Ingest) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.done)
	}
}

// Depths returns the current per-shard queue depths.
func (q *Ingest) Depths() []int {
	out := make([]int, len(q.shards))
	for i, sh := range q.shards {
		out[i] = len(sh)
	}
	return out
}

// Accepted returns the total messages accepted into the queue.
func (q *Ingest) Accepted() int64 { return q.accepted.Load() }

var _ prod.TraceSink = (*Ingest)(nil)
