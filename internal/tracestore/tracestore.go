// Package tracestore is the persistent trace archive: an append-only,
// chunked segment log that stores every ingested failure-reoccurrence
// PT blob, keyed by failure signature.
//
// Each record holds its occurrence's raw PT bytes as shipped, with its
// per-key seq and run metadata. A signature is written once per
// segment, in the first record of its key there; later records of the
// key refer to it by position. So no record repeats it, every segment
// describes itself, and no record's trace depends on another record. Storage cost is what makes always-on recording
// deployable (O'Callahan et al.), and the failure signature is the
// natural archival key (Joshy et al.).
//
// Properties:
//
//   - Append-only chunked segment log (seg-NNNNNNNN.log), records
//     framed by internal/framelog (magic + length + CRC32). A crash
//     tears at most the tail of the last segment; Open truncates the
//     torn tail and keeps every fully framed record — recovery is
//     never fatal.
//   - Streaming reads: OpenEvents returns a pt.EventSource that reads
//     the record's raw bytes off the segment and decodes PT packets
//     incrementally, feeding shepherded symbolic execution without
//     ever materializing the full trace in memory.
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
	"path/filepath"
	"sort"
	"sync"

	"execrecon/internal/framelog"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// Options tunes a store.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 4 MB).
	SegmentBytes int64
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
	// Records counts live records.
	Records int64
	// Appends counts records appended since Open (records recovered
	// at Open are not counted).
	Appends int64
	// RawBytes is the sum of live records' raw (as-shipped) stream
	// sizes; StoredBytes the framed bytes they occupy on disk.
	RawBytes    int64
	StoredBytes int64
	// Recoveries counts torn tails truncated at Open.
	Recoveries int64
}

// Ratio returns raw over stored bytes (0 when empty). Records hold
// their raw bytes as shipped, so it is below 1 by the framing and
// header bytes.
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
	rawOff int // raw bytes start at off+rawOff
	seq    uint64
	meta   Meta
}

func (r recordRef) rawLen() int { return r.plen - r.rawOff }

func (r recordRef) storedBytes() int64 { return framelog.HeaderSize + int64(r.plen) }

func (r recordRef) info(key uint64) RecordInfo {
	return RecordInfo{
		Key: key, Seq: r.seq, Meta: r.meta,
		RawLen: uint64(r.rawLen()), StoredBytes: r.storedBytes(),
	}
}

type keyState struct {
	sig     *vm.Failure
	recs    []recordRef // ascending seq
	nextSeq uint64
}

type segfile struct {
	id   int
	f    *os.File
	size int64
	refs map[uint64]int // position of each key among those the segment names
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
// fully framed record survives recovery. A segment of the older,
// delta-coded format is refused: Open fails and leaves it unchanged.
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
		if err := s.openSegment(id); err != nil {
			s.closeAll()
			return nil, err
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
		if n := len(ks.recs); n > 0 {
			ks.nextSeq = ks.recs[n-1].seq + 1
		}
	}
	return s, nil
}

// openSegment scans segment id into the index, truncating a torn tail.
// A record refers to its key by position among the keys the segment
// named before it; a reference past them, or a second naming of one
// key, ends the scan like any other corrupt frame.
func (s *Store) openSegment(id int) error {
	f, size, err := openSegFile(s.dir, id)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err == nil && magic == oldSegMagic {
		f.Close()
		return fmt.Errorf("tracestore: %s is in an older, delta-coded archive format that this build does not read",
			filepath.Join(s.dir, segName(id)))
	}
	sf := &segfile{id: id, f: f, size: size, refs: make(map[uint64]int)}
	var keys []uint64 // inverse of sf.refs
	good := segFormat.Scan(f, size, func(off int64, payload []byte) bool {
		h, err := parseHeader(payload, keys)
		if err != nil {
			return false
		}
		if h.sig != nil {
			if _, dup := sf.refs[h.key]; dup {
				return false
			}
			sf.refs[h.key] = len(keys)
			keys = append(keys, h.key)
		}
		s.indexRecord(h, recordRef{seg: id, off: off, plen: len(payload), rawOff: h.rawOff, seq: h.seq, meta: h.meta})
		return true
	})
	if good < size {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("tracestore: truncate torn tail of %s: %w", segName(id), err)
		}
		sf.size = good
		s.stats.Recoveries++
	}
	s.segs[id] = sf
	s.nextSeg = max(s.nextSeg, id+1)
	return nil
}

// indexRecord adds one scanned record to the in-memory index,
// dropping duplicate (key, seq) pairs: the segment bytes come from
// disk, possibly written by an older build, and a seq must name one
// record for Next and lookups to be well defined.
func (s *Store) indexRecord(h recordHeader, ref recordRef) {
	ks := s.keys[h.key]
	if ks == nil {
		ks = &keyState{sig: h.sig}
		s.keys[h.key] = ks
	}
	for _, existing := range ks.recs {
		if existing.seq == ref.seq {
			return
		}
	}
	ks.recs = append(ks.recs, ref)
	s.accountAdd(ref)
}

func (s *Store) accountAdd(r recordRef) {
	s.stats.Records++
	s.stats.RawBytes += int64(r.rawLen())
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

// Close closes every segment. The store must not be used afterwards.
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
	sf := &segfile{id: s.nextSeg, f: f, size: size, refs: make(map[uint64]int)}
	s.segs[sf.id] = sf
	s.nextSeg++
	s.cur = sf
	return nil
}

// Append archives one occurrence: sig is the failure signature (the
// archival key), meta the run metadata, raw the PT packet stream as
// shipped (Ring.Bytes data; meta.Lost carries the wrap loss). The
// record holds raw as is; it names sig only if it is the key's first
// record in the active segment. Returns the record's per-key sequence
// number (0 for a signature's first record).
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
	if err := s.rollLocked(); err != nil {
		return 0, fmt.Errorf("tracestore: append: %w", err)
	}
	sf := s.cur
	ks := s.keys[key]
	if ks == nil {
		ks = &keyState{sig: sig}
	}
	seq := ks.nextSeq
	pos, ok := sf.refs[key]
	named := sig
	if ok {
		named = nil
	} else {
		pos = len(sf.refs)
	}
	payload := appendPayload(make([]byte, 0, 64+len(raw)), seq, pos, named, meta, raw)
	frame := segFormat.Frame(payload)
	if _, err := sf.f.WriteAt(frame, sf.size); err != nil {
		return 0, fmt.Errorf("tracestore: append: %w", err)
	}
	ref := recordRef{
		seg:    sf.id,
		off:    sf.size + framelog.HeaderSize,
		plen:   len(payload),
		rawOff: len(payload) - len(raw),
		seq:    seq,
		meta:   meta,
	}
	sf.size += int64(len(frame))
	sf.refs[key] = pos
	s.keys[key] = ks
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

// Keys returns every signature key with a live record, sorted.
func (s *Store) Keys() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
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
// records without reading them and then opens just the one it
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

// rawSection returns a reader over the raw PT bytes of record (key,
// seq) and the record's info. Records are immutable once framed, so
// the section stays valid across concurrent appends.
func (s *Store) rawSection(key, seq uint64) (*io.SectionReader, RecordInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	if ks == nil {
		return nil, RecordInfo{}, fmt.Errorf("tracestore: unknown key %#x", key)
	}
	i := ks.search(seq)
	if i == len(ks.recs) || ks.recs[i].seq != seq {
		return nil, RecordInfo{}, fmt.Errorf("tracestore: key %#x has no record seq %d", key, seq)
	}
	r := ks.recs[i]
	sf := s.segs[r.seg]
	if sf == nil {
		return nil, RecordInfo{}, fmt.Errorf("tracestore: record references missing segment %d", r.seg)
	}
	return io.NewSectionReader(sf.f, r.off+int64(r.rawOff), int64(r.rawLen())), r.info(key), nil
}

// ReadRaw returns the raw packet stream of one archived occurrence,
// plus its record info. Prefer OpenEvents for analysis: ReadRaw holds
// the whole stream in memory.
func (s *Store) ReadRaw(key, seq uint64) ([]byte, RecordInfo, error) {
	sec, info, err := s.rawSection(key, seq)
	if err != nil {
		return nil, RecordInfo{}, err
	}
	raw := make([]byte, sec.Size())
	if _, err := io.ReadFull(sec, raw); err != nil {
		return nil, RecordInfo{}, fmt.Errorf("tracestore: read record: %w", err)
	}
	return raw, info, nil
}
