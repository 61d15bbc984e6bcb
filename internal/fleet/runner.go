package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/telemetry"
)

// Feed connects one bucket's pipeline to where its reoccurrences come
// from and where its rollouts and verdict go. The fleet's feed replays
// the trace archive (Store.Next plus OpenEvents) and reports through
// Rollout and ResolveBucket; a cluster node's feed fetches over
// /v1/fetch and reports through /v1/rollout and /v1/resolve.
//
// The runner calls every method from the goroutine that currently
// drives the bucket, one at a time.
type Feed interface {
	// Start builds the bucket's pipeline on its first run. It returns
	// nil after settling the bucket itself when that is impossible.
	Start() *core.Pipeline
	// Next returns the bucket's next reoccurrence recorded on deployment
	// version, or nil when none is banked yet. It must not block. An
	// error abandons the bucket: the runner aborts its pipeline and
	// forgets it.
	Next(version int) (*core.Occurrence, error)
	// Parked is called by the goroutine that parked the bucket, once it
	// is parked. A feed whose producer does not call Runner.Wake itself
	// starts waiting for the next reoccurrence here, without blocking; a
	// feed whose producer does must leave the pipeline alone, since
	// another worker may already have resumed it.
	Parked()
	// Fed reports one fed occurrence and the pipeline's error, if any.
	Fed(p *core.Pipeline, err error)
	// Rollout ships the deployment version the pipeline just selected.
	// An error abandons the bucket.
	Rollout(p *core.Pipeline) error
	// Resolve commits the finished pipeline's report.
	Resolve(rep *core.Report)
}

// Job is one bucket's run state under a Runner. At most one goroutine
// drives a job at a time; between them the job is parked, and the
// parked flag hands the run state from the worker that parked it to the
// one that resumes it.
type Job struct {
	feed Feed
	// p is nil before the job starts and after it ends.
	p *core.Pipeline
	// wait is the open reoccurrence-wait span, started at the first
	// park since the last delivered occurrence (waitStart zero: none).
	wait      *telemetry.Span
	waitStart time.Time

	// parked is set when the pipeline has nothing left to feed and its
	// worker moved on; the next Wake clears it and queues the job.
	// pending records a Wake that found the job unparked, so the park
	// that follows looks once more instead.
	mu      sync.Mutex
	parked  bool
	pending bool

	state      atomic.Int32 // BucketState
	iterations atomic.Int32 // analysis iterations completed so far
}

// NewJob returns a job that feeds its pipeline from feed.
func NewJob(feed Feed) *Job { return &Job{feed: feed} }

// State returns the lifecycle state: queued until a worker first runs
// the job, then running or waiting; a fleet bucket ends reproduced or
// failed.
func (j *Job) State() BucketState { return BucketState(j.state.Load()) }

// Iterations returns the analysis iterations the pipeline completed.
func (j *Job) Iterations() int { return int(j.iterations.Load()) }

// abort ends a started job without a verdict: the wait span closes and
// the pipeline aborts with reason.
func (j *Job) abort(reason string) {
	j.wait.End()
	j.p.Abort(reason)
	j.p, j.wait, j.waitStart = nil, nil, time.Time{}
}

// Runner drives bucket pipelines on a pool of workers. A worker feeds a
// job until its feed has nothing more to deliver, then parks the job
// and serves another; Wake puts a parked job on the ready queue, which
// workers serve before fresh jobs so that jobs already in progress
// finish first.
type Runner struct {
	ready readyQueue
	// waitHist, when set, observes every reoccurrence wait.
	waitHist *telemetry.Histogram
}

// NewRunner returns a runner with an empty ready queue.
func NewRunner() *Runner {
	return &Runner{ready: readyQueue{signal: make(chan struct{}, 1)}}
}

// Work runs jobs on the calling goroutine, one at a time, until ctx
// ends: a woken job first, else a fresh one.
func (r *Runner) Work(ctx context.Context, fresh <-chan *Job) {
	for ctx.Err() == nil {
		if j := r.ready.pop(); j != nil {
			r.run(j)
			continue
		}
		select {
		case <-ctx.Done():
		case <-r.ready.signal:
		case j := <-fresh:
			r.run(j)
		}
	}
}

// Wake tells the runner a reoccurrence may be banked for j. A parked
// job is queued to run, at most once per park and without blocking;
// otherwise the job's next park looks again first.
func (r *Runner) Wake(j *Job) {
	j.mu.Lock()
	was := j.parked
	j.parked = false
	j.pending = !was
	j.mu.Unlock()
	if was {
		r.ready.push(j)
	}
}

// run starts or resumes one job's pipeline and drives it event-driven:
// each delivered reoccurrence advances the pipeline one step, and each
// re-instrumentation is rolled out, so production's next failing runs
// ship the richer traces the pipeline asked for. It returns when the
// job resolves, is abandoned or, with no reoccurrence banked yet,
// parks.
func (r *Runner) run(j *Job) {
	if j.p == nil {
		if j.p = j.feed.Start(); j.p == nil {
			return
		}
	}
	j.state.Store(int32(BucketRunning))
	p := j.p
	for !p.Done() {
		occ, err := r.next(j)
		if err != nil {
			j.abort(err.Error())
			return
		}
		if occ == nil {
			return // parked; the next Wake re-queues it
		}
		before := p.Version()
		_, err = p.Feed(occ)
		j.iterations.Store(int32(len(p.Report().Iterations)))
		j.feed.Fed(p, err)
		if p.Version() != before && !p.Done() {
			if err := j.feed.Rollout(p); err != nil {
				j.abort(err.Error())
				return
			}
		}
	}
	j.p = nil
	j.feed.Resolve(p.Report())
}

// next returns j's next reoccurrence on the pipeline's current
// deployment, closing the open wait span. When none is banked it parks
// j and returns nil; the caller must then leave j's run state alone.
func (r *Runner) next(j *Job) (*core.Occurrence, error) {
	version := j.p.Version()
	for {
		occ, err := j.feed.Next(version)
		if err != nil {
			return nil, err
		}
		if occ != nil {
			if !j.waitStart.IsZero() {
				r.waitHist.Observe(time.Since(j.waitStart).Seconds())
				j.wait.End()
				j.wait, j.waitStart = nil, time.Time{}
			}
			return occ, nil
		}
		if r.park(j) {
			return nil, nil
		}
	}
}

// park hands j back to the pool when its feed had nothing for it,
// unless a Wake arrived since the last lookup: then it reports false
// and the caller looks again. Otherwise it opens the wait span (unless
// a wait is already open), marks j waiting and sets the parked flag,
// after which the next Wake owns j.
func (r *Runner) park(j *Job) bool {
	j.mu.Lock()
	if j.pending {
		j.pending = false
		j.mu.Unlock()
		return false
	}
	if j.waitStart.IsZero() {
		j.wait = j.p.Span().Child("reoccurrence-wait")
		j.waitStart = time.Now()
	}
	j.state.Store(int32(BucketWaiting))
	j.parked = true
	j.mu.Unlock()
	j.feed.Parked()
	return true
}

// readyQueue holds the parked jobs a Wake woke, in wake order. Wake
// clears a job's parked flag as it queues it, so each job is queued at
// most once: the queue is bounded by the number of jobs and push never
// blocks the waker.
type readyQueue struct {
	mu sync.Mutex
	q  []*Job
	// signal (capacity 1) tells an idle worker the queue may be
	// non-empty.
	signal chan struct{}
}

func (r *readyQueue) push(j *Job) {
	r.mu.Lock()
	r.q = append(r.q, j)
	r.mu.Unlock()
	r.notify()
}

func (r *readyQueue) notify() {
	select {
	case r.signal <- struct{}{}:
	default:
	}
}

// pop returns the longest-waiting ready job, or nil. When more remain
// it re-raises the signal for the next idle worker.
func (r *readyQueue) pop() *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.q) == 0 {
		return nil
	}
	j := r.q[0]
	r.q[0] = nil
	r.q = r.q[1:]
	if len(r.q) > 0 {
		r.notify()
	}
	return j
}
