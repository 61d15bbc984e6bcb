package tracestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Compaction. A bucket whose failure has been reconstructed no longer
// needs every archived reoccurrence — the fleet retires it, and
// compaction rewrites the segment log keeping only the bucket's
// reference record and its final occurrence (the audit pair: what the
// bucket looked like when it was solved), reclaiming the interior
// deltas. Live (unretired) buckets are copied verbatim.
//
// Compaction copies surviving records into fresh segments, then
// unlinks the old ones. Old file handles are kept open until Close so
// in-flight streaming readers finish unperturbed; a crash mid-
// compaction at worst leaves both copies on disk, which Open
// deduplicates by (key, seq).

// Retire marks the bucket as resolved: its interior delta records
// become garbage for the next compaction pass. With
// Options.AutoCompact the background compactor is nudged immediately.
func (s *Store) Retire(key uint64) {
	s.mu.Lock()
	ks := s.keys[key]
	if ks != nil {
		ks.retired = true
		// The cached reference stream is only needed to delta-encode
		// future appends and serve delta reads; drop it eagerly —
		// retired buckets stop appending, and readers reload it on
		// demand.
		ks.refRaw = nil
	}
	auto := s.opts.AutoCompact && ks != nil
	s.mu.Unlock()
	if auto {
		select {
		case s.compactCh <- struct{}{}:
		default: // a pass is already pending
		}
	}
}

// Unretire marks a retired bucket live again, so compaction keeps its
// records: a consumer that shares the key has started replaying it.
func (s *Store) Unretire(key uint64) {
	s.mu.Lock()
	if ks := s.keys[key]; ks != nil {
		ks.retired = false
	}
	s.mu.Unlock()
}

// Retired reports whether the bucket has been retired.
func (s *Store) Retired(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	return ks != nil && ks.retired
}

// compactor is the background compaction goroutine (AutoCompact).
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.doneCh:
			return
		case <-s.compactCh:
			_, _ = s.Compact() // errors are reflected in stats staying flat
		}
	}
}

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	// DroppedRecords is the number of interior records reclaimed.
	DroppedRecords int64
	// ReclaimedBytes is the on-disk byte reduction.
	ReclaimedBytes int64
	// Segments is the live segment count after the pass.
	Segments int
}

// Compact synchronously rewrites the log, dropping retired buckets'
// interior records. It is a no-op (and cheap) when nothing is
// reclaimable.
func (s *Store) Compact() (CompactResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactResult{}, fmt.Errorf("tracestore: store is closed")
	}

	// Decide what survives.
	type keep struct {
		key uint64
		ref recordRef
	}
	var keeps []keep
	var dropped int64
	for key, ks := range s.keys {
		for i, r := range ks.recs {
			if ks.retired && len(ks.recs) > 2 && i > 0 && i < len(ks.recs)-1 {
				dropped++
				continue
			}
			keeps = append(keeps, keep{key: key, ref: r})
		}
	}
	if dropped == 0 {
		return CompactResult{Segments: len(s.segs)}, nil
	}
	// Deterministic copy order: by segment, then offset (sequential
	// disk reads).
	sort.Slice(keeps, func(i, j int) bool {
		if keeps[i].ref.seg != keeps[j].ref.seg {
			return keeps[i].ref.seg < keeps[j].ref.seg
		}
		return keeps[i].ref.off < keeps[j].ref.off
	})

	oldStored := s.stats.StoredBytes
	oldSegs := s.segs
	s.segs = make(map[int]*segfile)
	s.cur = nil
	newRecs := make(map[uint64][]recordRef)
	for _, k := range keeps {
		src := oldSegs[k.ref.seg]
		if src == nil {
			s.segs = oldSegs // roll back the swap
			return CompactResult{}, fmt.Errorf("tracestore: compact: missing segment %d", k.ref.seg)
		}
		payload := make([]byte, k.ref.plen)
		if _, err := src.f.ReadAt(payload, k.ref.off); err != nil {
			s.segs = oldSegs
			return CompactResult{}, fmt.Errorf("tracestore: compact read: %w", err)
		}
		seg, off, err := s.appendPayloadLocked(payload)
		if err != nil {
			s.segs = oldSegs
			return CompactResult{}, fmt.Errorf("tracestore: compact write: %w", err)
		}
		nr := k.ref
		nr.seg = seg
		nr.off = off
		newRecs[k.key] = append(newRecs[k.key], nr)
	}
	// Swap the index and retire the old files: unlink on disk, keep
	// handles open for in-flight readers until Close.
	var reclaimed int64
	for _, sf := range oldSegs {
		reclaimed += sf.size
		s.zombies = append(s.zombies, sf.f)
		_ = os.Remove(filepath.Join(s.dir, segName(sf.id)))
	}
	var newStored int64
	s.stats.Records, s.stats.References, s.stats.Deltas = 0, 0, 0
	s.stats.RawBytes, s.stats.StoredBytes = 0, 0
	for key, ks := range s.keys {
		ks.recs = newRecs[key]
		sort.Slice(ks.recs, func(i, j int) bool { return ks.recs[i].seq < ks.recs[j].seq })
		if len(ks.recs) == 0 {
			delete(s.keys, key)
			continue
		}
		for _, r := range ks.recs {
			s.accountAdd(r)
			newStored += r.storedBytes()
		}
	}
	s.stats.Compactions++
	s.stats.ReclaimedBytes += oldStored - newStored
	return CompactResult{
		DroppedRecords: dropped,
		ReclaimedBytes: oldStored - newStored,
		Segments:       len(s.segs),
	}, nil
}
