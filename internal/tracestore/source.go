package tracestore

import (
	"fmt"

	"execrecon/internal/core"
	"execrecon/internal/ir"
	"execrecon/internal/vm"
)

// Source is a core.ReoccurrenceSource that routes every traced
// reoccurrence through the archive: the failing run is recorded, its
// raw ring bytes are appended to the store, and the occurrence handed
// to the pipeline decodes straight back off the segment log through
// the streaming reader — the pipeline's symbolic executor never sees
// an in-memory event slice.
//
// This is both the persistence deployment shape (`er run -store`,
// `er reproduce -store -replay-store`) and the verdict-parity harness
// of TestSourceTable1Parity: the only difference from the in-memory
// GenSource path is the round trip through the archive, so any verdict
// divergence is a store bug.
//
// Untraced occurrences (the deferred-tracing phase) are passed through
// without archiving: they carry no trace to round-trip through the
// archive, and the pipeline reads none from them.
type Source struct {
	// Store receives every traced occurrence.
	Store *Store
	// Gen supplies production inputs; at least some runs must fail.
	Gen core.WorkloadGen
	// App tags archived records' metadata.
	App string

	src     core.GenSource // the run-until-failure loop, over Gen
	version int
	lastDep *ir.Module
}

// Next implements core.ReoccurrenceSource.
func (s *Source) Next(req core.SourceRequest) (*core.Occurrence, error) {
	if s.Store == nil {
		return nil, fmt.Errorf("tracestore: Source has no store")
	}
	// Each distinct deployed module is a new rollout version, mirroring
	// the fleet's deployment counter in the archived metadata.
	if req.Deployed != s.lastDep {
		if s.lastDep != nil {
			s.version++
		}
		s.lastDep = req.Deployed
	}
	s.src.Gen = s.Gen
	occ, ring, err := s.src.Await(req)
	if err != nil || ring == nil {
		return occ, err
	}
	res := occ.Result
	seq, err := s.Store.AppendRing(res.Failure, Meta{
		App:     s.App,
		Version: s.version,
		Seed:    occ.Seed,
		Instrs:  res.Stats.Instrs,
	}, ring)
	if err != nil {
		return nil, fmt.Errorf("tracestore: archive occurrence: %w", err)
	}
	r, err := s.Store.OpenEvents(KeyOf(res.Failure), seq)
	if err != nil {
		return nil, fmt.Errorf("tracestore: reopen archived occurrence: %w", err)
	}
	if r.Truncated() {
		return nil, fmt.Errorf("tracestore: trace ring overflowed (%d bytes lost); increase RingSize",
			r.Info().Meta.Lost)
	}
	occ.Events = r
	return occ, nil
}

// ReplaySource replays already-archived occurrences of one signature
// in sequence order — `er reproduce -replay-store`: reconstruction
// driven purely from the archive, no production runs at all. Each
// Next finds the next record whose deployment version matches the
// request's rollout epoch (tracked the same way as Source.version)
// from the archive's metadata and opens only that record;
// it fails when the archive runs out of matching records, which is
// the archive's analog of "the failure stopped reoccurring".
type ReplaySource struct {
	Store *Store
	// Key selects the signature to replay.
	Key uint64

	nextSeq uint64
	version int
	lastDep *ir.Module
}

// Next implements core.ReoccurrenceSource.
func (r *ReplaySource) Next(req core.SourceRequest) (*core.Occurrence, error) {
	if r.Store == nil {
		return nil, fmt.Errorf("tracestore: ReplaySource has no store")
	}
	sig := r.Store.Sig(r.Key)
	if sig == nil {
		return nil, fmt.Errorf("tracestore: no archived records for key %#x", r.Key)
	}
	if req.Deployed != r.lastDep {
		if r.lastDep != nil {
			r.version++
		}
		r.lastDep = req.Deployed
	}
	if req.Signature != nil && !sig.SameSignature(req.Signature) {
		return nil, fmt.Errorf("tracestore: archived signature %v does not match requested %v", sig, req.Signature)
	}
	info, next, ok := r.Store.Next(r.Key, r.nextSeq, func(ri RecordInfo) bool {
		// Skip records of another rollout, wrapped rings, and untraced
		// records when the loop needs a trace.
		return ri.Meta.Version == r.version && ri.Meta.Lost == 0 && (ri.RawLen > 0 || !req.Traced)
	})
	r.nextSeq = next
	if !ok {
		return nil, fmt.Errorf("tracestore: archive exhausted for key %#x at rollout v%d (%d records)",
			r.Key, r.version, r.Store.Count(r.Key))
	}
	occ := &core.Occurrence{
		Result: &vm.Result{
			Failure: sig,
			Stats:   vm.Stats{Instrs: info.Meta.Instrs},
		},
		Seed: info.Meta.Seed,
	}
	if info.RawLen > 0 {
		// Even when the loop asked for an untraced occurrence the
		// archived trace is a strict superset — hand it over.
		rd, err := r.Store.OpenEvents(r.Key, info.Seq)
		if err != nil {
			return nil, fmt.Errorf("tracestore: replay seq %d: %w", info.Seq, err)
		}
		occ.Events = rd
	}
	return occ, nil
}

var (
	_ core.ReoccurrenceSource = (*Source)(nil)
	_ core.ReoccurrenceSource = (*ReplaySource)(nil)
)
