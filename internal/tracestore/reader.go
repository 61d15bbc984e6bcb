package tracestore

import "execrecon/internal/pt"

// Reader streams one archived occurrence's decoded trace events. It
// implements pt.EventSource, so it plugs directly into shepherded
// symbolic execution (symex.NewFromEvents / core.Occurrence.Events):
// the record's raw bytes are read off the segment incrementally and
// PT packets decode one at a time — the full event slice is never
// materialized.
type Reader struct {
	*pt.StreamDecoder
	info RecordInfo
}

// Info describes the record being read.
func (r *Reader) Info() RecordInfo { return r.info }

// Err returns the terminal error of the stream, if any: a decode
// error from the packet layer or a read error from the segment. Only
// meaningful once Peek has returned nil.
func (r *Reader) Err() error { return r.StreamDecoder.Err() }

var _ pt.EventSource = (*Reader)(nil)

// OpenEvents opens a streaming event reader over the archived
// occurrence (key, seq). The reader stays valid across concurrent
// appends: a record's bytes are never rewritten once framed.
func (s *Store) OpenEvents(key, seq uint64) (*Reader, error) {
	sec, info, err := s.rawSection(key, seq)
	if err != nil {
		return nil, err
	}
	return &Reader{StreamDecoder: pt.NewStreamDecoder(sec, info.Meta.Lost), info: info}, nil
}
