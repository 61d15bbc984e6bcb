package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/framelog"
	"execrecon/internal/telemetry"
	"execrecon/internal/vm"
)

// The lease/commit log is a single append-only file of JSON records in
// framelog frames under the magic "ERWL". A crash tears at most the
// tail; OpenWAL truncates the torn tail and keeps every fully framed
// record, so recovery is never fatal. Checkpoint rewrites the log as a
// single checkpoint record (snapshot to a temp file, then rename),
// truncating the history it subsumes.
var walFormat = framelog.Format{Magic: [4]byte{'E', 'R', 'W', 'L'}, MaxPayload: 64 << 20}

// WAL record types. Grants, expiries, rollouts, and resolutions
// mutate recovered state. A restarted coordinator fences every
// in-flight lease regardless, so renewals carry only progress: replay
// reads nothing from a renew record but its iteration count, and the
// coordinator appends one only when a renewal raises the bucket's
// count.
const (
	walGrant      = "grant"
	walRenew      = "renew"
	walExpire     = "expire"
	walRollout    = "rollout"
	walResolve    = "resolve"
	walCheckpoint = "checkpoint"
)

// walRecord is the wire shape of one log entry; unused fields stay
// empty per type.
type walRecord struct {
	T    string `json:"t"`
	App  string `json:"app,omitempty"`
	Key  uint64 `json:"key,omitempty"`
	Node string `json:"node,omitempty"`
	Term uint64 `json:"term,omitempty"`
	// Sig rides on grants so recovered state is self-contained: a
	// restarted coordinator knows the bucket's signature before the
	// fleet re-interns it.
	Sig        *vm.Failure  `json:"sig,omitempty"`
	Version    int          `json:"version,omitempty"`
	Iterations int          `json:"iterations,omitempty"`
	Report     *core.Report `json:"report,omitempty"`
	// FirstSeen rides on grants, At and Span on resolutions — the
	// durable skeleton of the bucket's timeline, so a restarted
	// coordinator still renders ingest-through-resolve for buckets
	// that completed before the crash. Stamps are pointers so that an
	// unset one (see stamp) is left out of the record. Logs written
	// before trace ids were dropped also carry a "trace" field, which
	// decoding ignores.
	FirstSeen *time.Time              `json:"first_seen,omitempty"`
	At        *time.Time              `json:"at,omitempty"`
	Span      *telemetry.SpanSnapshot `json:"span,omitempty"`
	// State is the full lease table (checkpoint records only).
	State []RecoveredBucket `json:"state,omitempty"`
}

// RecoveredBucket is one bucket's durable state as reconstructed from
// the log (and as serialized into checkpoints).
type RecoveredBucket struct {
	App string      `json:"app"`
	Key uint64      `json:"key"`
	Sig *vm.Failure `json:"sig,omitempty"`
	// Term is the highest lease term ever granted — the next grant
	// starts above it, fencing every pre-crash leaseholder.
	Term uint64 `json:"term"`
	// Version is the highest acknowledged rollout version.
	Version int `json:"version"`
	// Iterations is the last reported reconstruction progress.
	Iterations   int `json:"iterations,omitempty"`
	Redispatches int `json:"redispatches,omitempty"`
	// Leased marks a lease that was in flight when the log ends — a
	// restarted coordinator fences it (forced expiry + re-dispatch)
	// rather than re-arming it.
	Leased bool   `json:"leased,omitempty"`
	Node   string `json:"node,omitempty"`
	// Resolved buckets carry their final report; replaying it is what
	// prevents a re-interned bucket from being triaged twice.
	Resolved bool         `json:"resolved,omitempty"`
	Report   *core.Report `json:"report,omitempty"`
	// Timeline skeleton: the bucket's ingest time, resolution time,
	// and the final remote replay span the resolving node shipped.
	FirstSeen  *time.Time              `json:"first_seen,omitempty"`
	ResolvedAt *time.Time              `json:"resolved_at,omitempty"`
	Span       *telemetry.SpanSnapshot `json:"span,omitempty"`
}

// stamp returns &t, or nil for the zero time: omitempty never omits a
// time.Time, but it does omit a nil pointer.
func stamp(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// unstamp reads a stamp back; nil is the zero time. Older logs spell
// an unset stamp as the zero time, which reads the same.
func unstamp(p *time.Time) time.Time {
	if p == nil {
		return time.Time{}
	}
	return *p
}

// RecoveredState is the replay result of OpenWAL.
type RecoveredState struct {
	// Buckets maps (app, key) to recovered bucket state.
	Buckets map[bucketAddr]*RecoveredBucket
	// Records is the number of log records replayed; Truncated the
	// torn-tail bytes discarded.
	Records   int
	Truncated int64
}

// bucketAddr is the cluster-wide bucket identity. The archive key
// alone is insufficient: tracestore.KeyOf hashes only the signature,
// and distinct applications can legitimately share one (scheduler
// deadlocks most prominently), so the app participates everywhere a
// bucket is addressed.
type bucketAddr struct {
	App string
	Key uint64
}

// hexKey renders a signature key the way events and timelines print it.
func hexKey(k uint64) string { return fmt.Sprintf("%#x", k) }

// WAL is the coordinator's write-ahead lease/commit log. All methods
// are safe for concurrent use.
type WAL struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	bytes atomic.Int64
}

// OpenWAL opens (creating if needed) the log at path, truncating any
// torn tail, and returns the replayed state alongside the writable
// log.
func OpenWAL(path string) (*WAL, *RecoveredState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: open wal %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: stat wal: %w", err)
	}
	var recs []walRecord
	good := walFormat.Scan(f, fi.Size(), func(_ int64, payload []byte) bool {
		// A CRC-valid payload that does not decode to a typed record is
		// a future or foreign format: keep everything before it.
		var rec walRecord
		if json.Unmarshal(payload, &rec) != nil || rec.T == "" {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if good < fi.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: seek wal: %w", err)
	}
	st := replayWAL(recs)
	st.Truncated = fi.Size() - good
	w := &WAL{f: f, path: path}
	w.bytes.Store(good)
	return w, st, nil
}

// replayWAL folds the record sequence into per-bucket state.
func replayWAL(recs []walRecord) *RecoveredState {
	st := &RecoveredState{Buckets: make(map[bucketAddr]*RecoveredBucket)}
	get := func(rec walRecord) *RecoveredBucket {
		addr := bucketAddr{rec.App, rec.Key}
		b := st.Buckets[addr]
		if b == nil {
			b = &RecoveredBucket{App: rec.App, Key: rec.Key}
			st.Buckets[addr] = b
		}
		return b
	}
	for _, rec := range recs {
		st.Records++
		switch rec.T {
		case walCheckpoint:
			// A checkpoint subsumes everything before it.
			st.Buckets = make(map[bucketAddr]*RecoveredBucket, len(rec.State))
			for i := range rec.State {
				b := rec.State[i]
				st.Buckets[bucketAddr{b.App, b.Key}] = &b
			}
		case walGrant:
			b := get(rec)
			if rec.Term > b.Term {
				b.Term = rec.Term
			}
			if b.Sig == nil {
				b.Sig = rec.Sig
			}
			if unstamp(b.FirstSeen).IsZero() {
				b.FirstSeen = rec.FirstSeen
			}
			if !b.Resolved {
				b.Leased = true
				b.Node = rec.Node
			}
		case walRenew:
			b := get(rec)
			if rec.Iterations > b.Iterations {
				b.Iterations = rec.Iterations
			}
		case walExpire:
			b := get(rec)
			b.Redispatches++
			if rec.Term >= b.Term {
				b.Leased = false
				b.Node = ""
			}
		case walRollout:
			b := get(rec)
			if rec.Version > b.Version {
				b.Version = rec.Version
			}
		case walResolve:
			b := get(rec)
			if !b.Resolved {
				b.Resolved = true
				b.Report = rec.Report
				b.ResolvedAt = rec.At
				b.Span = rec.Span
			}
			b.Leased = false
			b.Node = ""
			if b.Sig == nil {
				b.Sig = rec.Sig
			}
		}
	}
	return st
}

// Append frames and writes one record. The write is buffered by the
// OS only — like the tracestore, the frame format confines crash
// damage to a recoverable torn tail, so fsync would only narrow the
// loss window, not change correctness.
func (w *WAL) Append(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: wal marshal: %w", err)
	}
	frame := walFormat.Frame(payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("cluster: wal closed")
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("cluster: wal append: %w", err)
	}
	w.bytes.Add(int64(len(frame)))
	return nil
}

// Checkpoint atomically replaces the log with a single checkpoint
// record holding the full lease table: the snapshot is written to a
// temp file in the same directory and renamed over the log, so a
// crash at any point leaves either the old history or the complete
// checkpoint — never a mix.
func (w *WAL) Checkpoint(state []RecoveredBucket) error {
	payload, err := json.Marshal(walRecord{T: walCheckpoint, State: state})
	if err != nil {
		return fmt.Errorf("cluster: checkpoint marshal: %w", err)
	}
	frame := walFormat.Frame(payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("cluster: wal closed")
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-checkpoint-*")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cluster: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cluster: checkpoint sync: %w", err)
	}
	if err := os.Rename(tmpName, w.path); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cluster: checkpoint rename: %w", err)
	}
	old := w.f
	w.f = tmp
	old.Close()
	w.bytes.Store(int64(len(frame)))
	return nil
}

// Bytes returns the log's current on-disk size.
func (w *WAL) Bytes() int64 {
	if w == nil {
		return 0
	}
	return w.bytes.Load()
}

// Close closes the log file. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
