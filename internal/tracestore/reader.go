package tracestore

import (
	"bufio"
	"fmt"
	"io"

	"execrecon/internal/pt"
)

// Reader streams one archived occurrence's decoded trace events. It
// implements pt.EventSource, so it plugs directly into shepherded
// symbolic execution (symex.NewFromEvents / core.Occurrence.Events):
// segment bytes are read incrementally, delta ops are applied on the
// fly (copy ranges served from the shared per-bucket reference
// stream), and PT packets decode one at a time — the full event slice
// is never materialized.
type Reader struct {
	*pt.StreamDecoder
	info RecordInfo
}

// Info describes the record being read.
func (r *Reader) Info() RecordInfo { return r.info }

// Err returns the terminal error of the stream, if any: a decode
// error from the packet layer or a reconstruction error from the
// delta/RLE layer. Only meaningful once Peek has returned nil.
func (r *Reader) Err() error { return r.StreamDecoder.Err() }

var _ pt.EventSource = (*Reader)(nil)

// OpenEvents opens a streaming event reader over the archived
// occurrence (key, seq). The reader stays valid across concurrent
// appends: a record's bytes are never rewritten once framed.
func (s *Store) OpenEvents(key, seq uint64) (*Reader, error) {
	s.mu.Lock()
	ks, r, err := s.lookupLocked(key, seq)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sf := s.segs[r.seg]
	if sf == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("tracestore: record references missing segment %d", r.seg)
	}
	var refRaw []byte
	if r.kind == KindDelta {
		refRaw, err = s.refRawLocked(key, ks)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mu.Unlock()

	body := bufio.NewReaderSize(sectionReader(sf.f, r.off+int64(r.hdrLen), r.plen-r.hdrLen), 4096)
	var raw io.Reader
	if r.kind == KindReference {
		raw = newRLEReader(body)
	} else {
		raw = newDeltaReader(body, refRaw)
	}
	return &Reader{
		StreamDecoder: pt.NewStreamDecoder(raw, r.meta.Lost),
		info:          r.info(key),
	}, nil
}
