// Package tracestore is the persistent, delta-compressed trace
// archive: an append-only, chunked segment log that stores every
// ingested failure-reoccurrence PT blob, keyed by failure signature.
//
// ER's whole premise is that the same failure reoccurs with nearly
// identical control flow, and the store exploits exactly that
// redundancy: the first occurrence archived under a signature becomes
// the bucket's *reference* stream (RLE-packed); every subsequent
// reoccurrence is stored as an rsync-style delta — copy ranges into
// the reference plus RLE-packed literal runs — which collapses
// near-identical traces to a handful of bytes. Storage cost is what
// makes always-on recording deployable (O'Callahan et al.), and the
// failure signature is the natural archival key (Joshy et al.).
//
// Properties:
//
//   - Append-only chunked segment log (seg-NNNNNNNN.log), records
//     framed with magic + length + CRC32. A crash tears at most the
//     tail of the last segment; Open truncates the torn tail and
//     keeps every fully framed record — recovery is never fatal.
//   - Streaming reads: OpenEvents returns a pt.EventSource that
//     reconstructs the raw stream op-by-op from disk (copy ranges
//     served from the shared per-bucket reference) and decodes PT
//     packets incrementally, feeding shepherded symbolic execution
//     without ever materializing the full trace in memory.
//
// The store appends and replays; it never rewrites or deletes a
// record. It is the fleet's one delivery path: internal/fleet banks
// every ingested reoccurrence here and each bucket's pipeline (or a
// remote triage node, through the cluster coordinator) replays the
// next matching record from it, including after a crash.
package tracestore

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"

	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// Options tunes a store.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 4 MB).
	SegmentBytes int64
	// Sync fsyncs the active segment after every append. Off by
	// default: the format already confines crash damage to a torn,
	// recoverable tail, so fsync only narrows the loss window.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Meta is the per-record run metadata a consumer needs to rebuild an
// occurrence: deployment version (stale-rollout filtering), scheduler
// seed (verification replay), instruction count, and the ring bytes
// lost to wrapping (decode resynchronization).
type Meta struct {
	App     string
	Machine int
	Version int
	Seed    int64
	Instrs  int64
	Lost    uint64
}

// RecordInfo describes one archived occurrence.
type RecordInfo struct {
	Key         uint64
	Seq         uint64
	Kind        byte // KindReference or KindDelta
	Meta        Meta
	RawLen      uint64 // raw packet-stream bytes as shipped
	StoredBytes int64  // framed bytes on disk
}

// KeyOf returns the archival key of a failure: a 64-bit FNV-1a over
// exactly the fields vm.Failure.SameSignature compares. Records of
// signatures that collide still carry their full signature, so
// consumers can re-check.
func KeyOf(f *vm.Failure) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put32 := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:4])
	}
	put32(uint32(f.Kind))
	h.Write([]byte(f.Func))
	h.Write([]byte{0})
	put32(uint32(f.InstrID))
	for _, fn := range f.Stack {
		h.Write([]byte(fn))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Stats is a point-in-time view of the store.
type Stats struct {
	// Segments is the live segment-file count.
	Segments int
	// Records/References/Deltas count live records.
	Records    int64
	References int64
	Deltas     int64
	// Appends counts records appended since Open (records recovered
	// at Open are not counted).
	Appends int64
	// RawBytes is the sum of live records' raw (as-shipped) stream
	// sizes; StoredBytes the framed bytes they occupy on disk.
	RawBytes    int64
	StoredBytes int64
	// Recoveries counts torn tails truncated at Open.
	Recoveries int64
	// Orphans counts records dropped at Open because they sort before
	// their key's first surviving reference, so no reference to decode
	// them against survived.
	Orphans int64
}

// Ratio returns the raw-vs-stored compression ratio (0 when empty).
func (s Stats) Ratio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.StoredBytes)
}

type recordRef struct {
	seg    int
	off    int64 // payload offset in segment file
	plen   int
	hdrLen int // body starts at off+hdrLen
	kind   byte
	seq    uint64
	meta   Meta
	rawLen uint64
}

func (r recordRef) storedBytes() int64 { return frameHeaderSize + int64(r.plen) }

func (r recordRef) info(key uint64) RecordInfo {
	return RecordInfo{
		Key: key, Seq: r.seq, Kind: r.kind, Meta: r.meta,
		RawLen: r.rawLen, StoredBytes: r.storedBytes(),
	}
}

type keyState struct {
	sig     *vm.Failure
	recs    []recordRef // ascending seq
	refRaw  []byte      // lazily cached reference raw stream
	nextSeq uint64
}

type segfile struct {
	id   int
	f    *os.File
	size int64
}

// Store is a trace archive rooted at one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    map[int]*segfile
	cur     *segfile
	nextSeg int
	keys    map[uint64]*keyState
	stats   Stats
	closed  bool
}

// Open opens (creating if needed) the store rooted at dir, scanning
// every segment and truncating any torn tail left by a crash. Every
// fully framed record survives recovery, except records whose key's
// reference did not (Stats.Orphans).
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		segs: make(map[int]*segfile),
		keys: make(map[uint64]*keyState),
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	for _, id := range ids {
		f, size, err := openSegFile(dir, id)
		if err != nil {
			s.closeAll()
			return nil, fmt.Errorf("tracestore: %w", err)
		}
		recs, good, torn, err := scanSegment(f, size)
		if err != nil {
			f.Close()
			s.closeAll()
			return nil, fmt.Errorf("tracestore: scan %s: %w", segName(id), err)
		}
		if torn {
			if err := f.Truncate(good); err != nil {
				f.Close()
				s.closeAll()
				return nil, fmt.Errorf("tracestore: truncate torn tail of %s: %w", segName(id), err)
			}
			size = good
			s.stats.Recoveries++
		}
		sf := &segfile{id: id, f: f, size: size}
		s.segs[id] = sf
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
		for _, r := range recs {
			s.indexRecord(sf.id, r)
		}
	}
	// Resume appending into the last segment if it has headroom.
	if len(ids) > 0 {
		last := s.segs[ids[len(ids)-1]]
		if last.size < opts.SegmentBytes {
			s.cur = last
		}
	}
	for _, ks := range s.keys {
		sort.Slice(ks.recs, func(i, j int) bool { return ks.recs[i].seq < ks.recs[j].seq })
		ks.nextSeq = 0
		if n := len(ks.recs); n > 0 {
			ks.nextSeq = ks.recs[n-1].seq + 1
		}
		// A delta decodes only against its key's reference, which a
		// corrupt frame may have truncated away. Records before the
		// first surviving reference stay on disk but leave the index;
		// nextSeq stays past them, so no later append reuses their
		// seqs and a reopen cannot mistake them for new records.
		i := 0
		for i < len(ks.recs) && ks.recs[i].kind != KindReference {
			i++
		}
		s.stats.Orphans += int64(i)
		ks.recs = ks.recs[i:]
		for _, r := range ks.recs {
			s.accountAdd(r)
		}
	}
	return s, nil
}

// indexRecord adds one scanned record to the in-memory index,
// dropping duplicate (key, seq) pairs: the segment bytes come from
// disk, possibly written by an older build, and a seq must name one
// record for Next and lookups to be well defined. Open accounts the
// records it keeps once every segment is indexed.
func (s *Store) indexRecord(seg int, r scannedRecord) {
	h := r.hdr
	ks := s.keys[h.key]
	if ks == nil {
		ks = &keyState{sig: h.sig}
		s.keys[h.key] = ks
	}
	for _, existing := range ks.recs {
		if existing.seq == h.seq {
			return
		}
	}
	ref := recordRef{
		seg:    seg,
		off:    r.off,
		plen:   r.plen,
		hdrLen: h.bodyOff,
		kind:   h.kind,
		seq:    h.seq,
		meta:   h.meta,
		rawLen: h.rawLen,
	}
	ks.recs = append(ks.recs, ref)
}

func (s *Store) accountAdd(r recordRef) {
	s.stats.Records++
	if r.kind == KindReference {
		s.stats.References++
	} else {
		s.stats.Deltas++
	}
	s.stats.RawBytes += int64(r.rawLen)
	s.stats.StoredBytes += r.storedBytes()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segs)
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes every segment. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeAll()
}

func (s *Store) closeAll() error {
	var first error
	for _, sf := range s.segs {
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = map[int]*segfile{}
	s.cur = nil
	return first
}

// rollLocked ensures an active segment with headroom exists.
func (s *Store) rollLocked() error {
	if s.cur != nil && s.cur.size < s.opts.SegmentBytes {
		return nil
	}
	f, size, err := openSegFile(s.dir, s.nextSeg)
	if err != nil {
		return err
	}
	sf := &segfile{id: s.nextSeg, f: f, size: size}
	s.segs[sf.id] = sf
	s.nextSeg++
	s.cur = sf
	return nil
}

// appendPayloadLocked frames payload into the active segment and
// returns its segment id and payload offset.
func (s *Store) appendPayloadLocked(payload []byte) (int, int64, error) {
	if err := s.rollLocked(); err != nil {
		return 0, 0, err
	}
	sf := s.cur
	off := sf.size
	end, err := appendFrame(sf.f, off, payload)
	if err != nil {
		return 0, 0, err
	}
	if s.opts.Sync {
		if err := sf.f.Sync(); err != nil {
			return 0, 0, err
		}
	}
	sf.size = end
	return sf.id, off + frameHeaderSize, nil
}

// Append archives one occurrence: sig is the failure signature (the
// archival key), meta the run metadata, raw the PT packet stream as
// shipped (Ring.Bytes data; meta.Lost carries the wrap loss). The
// first occurrence of a signature becomes the bucket's reference;
// later ones are delta-encoded against it. A key whose reference was
// lost to a corrupt frame gets a fresh one at its next unused seq.
// Returns the record's per-key sequence number (0 for a first
// reference).
func (s *Store) Append(sig *vm.Failure, meta Meta, raw []byte) (uint64, error) {
	if sig == nil {
		return 0, fmt.Errorf("tracestore: nil failure signature")
	}
	key := KeyOf(sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("tracestore: store is closed")
	}
	ks := s.keys[key]
	if ks == nil {
		ks = &keyState{sig: sig}
		s.keys[key] = ks
	}
	seq := ks.nextSeq

	var kind byte
	var body []byte
	if len(ks.recs) == 0 {
		kind = KindReference
		body = packRLE(nil, raw)
		ks.refRaw = append([]byte(nil), raw...)
	} else {
		kind = KindDelta
		refRaw, err := s.refRawLocked(key, ks)
		if err != nil {
			return 0, err
		}
		body = deltaEncode(nil, refRaw, raw)
	}
	payload := encodePayload(kind, seq, key, sig, meta, uint64(len(raw)), body)
	seg, off, err := s.appendPayloadLocked(payload)
	if err != nil {
		return 0, fmt.Errorf("tracestore: append: %w", err)
	}
	hdrLen := len(payload) - len(body)
	ref := recordRef{
		seg:    seg,
		off:    off,
		plen:   len(payload),
		hdrLen: hdrLen,
		kind:   kind,
		seq:    seq,
		meta:   meta,
		rawLen: uint64(len(raw)),
	}
	ks.recs = append(ks.recs, ref)
	ks.nextSeq = seq + 1
	s.accountAdd(ref)
	s.stats.Appends++
	return seq, nil
}

// AppendRing is Append for a shipped ring blob: it snapshots the ring
// (Ring.Bytes copies, so the ring may be reused immediately) and
// records the wrap loss in the metadata.
func (s *Store) AppendRing(sig *vm.Failure, meta Meta, ring *pt.Ring) (uint64, error) {
	var raw []byte
	if ring != nil {
		var lost uint64
		raw, lost = ring.Bytes()
		meta.Lost = lost
	}
	return s.Append(sig, meta, raw)
}

// refRawLocked returns the key's reference raw stream, loading (and
// caching) it from disk if the store was reopened.
func (s *Store) refRawLocked(key uint64, ks *keyState) ([]byte, error) {
	if ks.refRaw != nil {
		return ks.refRaw, nil
	}
	if len(ks.recs) == 0 || ks.recs[0].kind != KindReference {
		return nil, fmt.Errorf("tracestore: key %#x has no reference record", key)
	}
	raw, err := s.materializeLocked(ks, ks.recs[0])
	if err != nil {
		return nil, err
	}
	ks.refRaw = raw
	return raw, nil
}

// Keys returns every signature key with a live record, sorted.
func (s *Store) Keys() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.keys))
	for k, ks := range s.keys {
		if len(ks.recs) > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sig returns the failure signature archived under key (nil if
// unknown).
func (s *Store) Sig(key uint64) *vm.Failure {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks := s.keys[key]; ks != nil {
		return ks.sig
	}
	return nil
}

// Count returns the number of live records under key.
func (s *Store) Count(key uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks := s.keys[key]; ks != nil {
		return len(ks.recs)
	}
	return 0
}

// Next returns the first live record under key with Seq >= from that
// match accepts. It reads only the in-memory index, under the store
// lock, and opens no record, so a consumer skips stale or foreign
// records without decoding them and then opens just the one it
// delivers. match sees every record it passes over, in seq order, and
// must not call back into the store. next is where the following scan
// resumes: just past the match, or past every record under key when
// none matched.
func (s *Store) Next(key, from uint64, match func(RecordInfo) bool) (info RecordInfo, next uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	if ks == nil {
		return RecordInfo{}, from, false
	}
	for _, r := range ks.recs[ks.search(from):] {
		if ri := r.info(key); match(ri) {
			return ri, r.seq + 1, true
		}
	}
	return RecordInfo{}, max(from, ks.nextSeq), false
}

// search returns the index of the first record with seq >= seq.
func (ks *keyState) search(seq uint64) int {
	return sort.Search(len(ks.recs), func(i int) bool { return ks.recs[i].seq >= seq })
}

// lookupLocked finds the record with the given seq under key.
func (s *Store) lookupLocked(key, seq uint64) (*keyState, recordRef, error) {
	ks := s.keys[key]
	if ks == nil {
		return nil, recordRef{}, fmt.Errorf("tracestore: unknown key %#x", key)
	}
	if i := ks.search(seq); i < len(ks.recs) && ks.recs[i].seq == seq {
		return ks, ks.recs[i], nil
	}
	return nil, recordRef{}, fmt.Errorf("tracestore: key %#x has no record seq %d", key, seq)
}

// materializeLocked reconstructs a record's full raw stream.
func (s *Store) materializeLocked(ks *keyState, r recordRef) ([]byte, error) {
	sf := s.segs[r.seg]
	if sf == nil {
		return nil, fmt.Errorf("tracestore: record references missing segment %d", r.seg)
	}
	body := sectionReader(sf.f, r.off+int64(r.hdrLen), r.plen-r.hdrLen)
	bodyBytes := make([]byte, r.plen-r.hdrLen)
	if _, err := io.ReadFull(body, bodyBytes); err != nil {
		return nil, fmt.Errorf("tracestore: read record: %w", err)
	}
	if r.kind == KindReference {
		return unpackRLE(bodyBytes)
	}
	refRaw, err := s.refRawLocked(KeyOf(ks.sig), ks)
	if err != nil {
		return nil, err
	}
	return deltaApply(refRaw, bodyBytes)
}

// ReadRaw reconstructs and returns the full raw packet stream of one
// archived occurrence, plus its record info. Prefer OpenEvents for
// analysis — ReadRaw materializes the stream.
func (s *Store) ReadRaw(key, seq uint64) ([]byte, RecordInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks, r, err := s.lookupLocked(key, seq)
	if err != nil {
		return nil, RecordInfo{}, err
	}
	raw, err := s.materializeLocked(ks, r)
	if err != nil {
		return nil, RecordInfo{}, err
	}
	return raw, r.info(key), nil
}
