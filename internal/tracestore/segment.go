package tracestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"execrecon/internal/framelog"
	"execrecon/internal/vm"
)

// A segment file (seg-NNNNNNNN.log) is a sequence of framelog frames
// under segFormat, one archived occurrence each. A record's payload
// (see appendPayload) holds its per-key seq, a reference to its key,
// its Meta and the raw PT bytes as shipped. The first record of a key
// in a segment names the key by its failure signature; later ones
// refer to it by its position among the keys the segment names, so
// every segment describes itself. A crash can only tear the tail
// of the last segment; Open truncates at the first frame that is not
// intact, and everything before it survives.
var segFormat = framelog.Format{Magic: [4]byte{'E', 'R', 'S', '2'}, MaxPayload: 1 << 30}

// oldSegMagic opens the frames of the older, delta-coded segment
// format. Open refuses such a segment instead of reading it as a torn
// tail, which would truncate it away.
var oldSegMagic = [4]byte{'E', 'R', 'S', '1'}

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log")
	if len(mid) == 0 {
		return 0, false
	}
	id := 0
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	return id, true
}

// --- varint / string primitives -------------------------------------

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func putZigzag(dst []byte, v int64) []byte {
	return putUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func putString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// byteScanner walks an in-memory payload with error latching, so the
// parser reads like straight-line code and corrupt input surfaces as
// one error instead of a panic.
type byteScanner struct {
	b   []byte
	i   int
	err error
}

func (s *byteScanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("tracestore: corrupt payload: %s at offset %d", what, s.i)
	}
}

func (s *byteScanner) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	v, n := binary.Uvarint(s.b[s.i:])
	if n <= 0 {
		s.fail("bad uvarint")
		return 0
	}
	s.i += n
	return v
}

func (s *byteScanner) zigzag() int64 {
	u := s.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (s *byteScanner) str() string {
	n := s.uvarint()
	if s.err != nil {
		return ""
	}
	if n > uint64(len(s.b)-s.i) {
		s.fail("string length out of range")
		return ""
	}
	v := string(s.b[s.i : s.i+int(n)])
	s.i += int(n)
	return v
}

// --- failure signature codec ----------------------------------------

func encodeFailure(dst []byte, f *vm.Failure) []byte {
	dst = putUvarint(dst, uint64(f.Kind))
	dst = putString(dst, f.Msg)
	dst = putString(dst, f.Func)
	dst = putZigzag(dst, int64(f.InstrID))
	dst = putZigzag(dst, int64(f.Line))
	dst = putZigzag(dst, int64(f.Tid))
	dst = putUvarint(dst, uint64(len(f.Stack)))
	for _, fr := range f.Stack {
		dst = putString(dst, fr)
	}
	return dst
}

func (s *byteScanner) failure() *vm.Failure {
	f := &vm.Failure{}
	f.Kind = vm.FailKind(s.uvarint())
	f.Msg = s.str()
	f.Func = s.str()
	f.InstrID = int32(s.zigzag())
	f.Line = int32(s.zigzag())
	f.Tid = int(s.zigzag())
	n := s.uvarint()
	if s.err != nil {
		return nil
	}
	if n > uint64(len(s.b)-s.i) { // each frame is ≥1 byte
		s.fail("stack depth out of range")
		return nil
	}
	for k := uint64(0); k < n; k++ {
		f.Stack = append(f.Stack, s.str())
	}
	if s.err != nil {
		return nil
	}
	return f
}

// --- record payload codec -------------------------------------------

// recordHeader is the parsed prefix of a payload; the raw PT bytes
// follow at rawOff.
type recordHeader struct {
	seq    uint64
	key    uint64
	sig    *vm.Failure // nil unless the record names its key
	meta   Meta
	rawOff int
}

// appendPayload appends a record's payload to dst: seq; ref, the
// position of the record's key among the keys its segment names; the
// signature, when sig is non-nil and the record names its key at
// position ref; meta; and then raw to the end of the payload.
func appendPayload(dst []byte, seq uint64, ref int, sig *vm.Failure, meta Meta, raw []byte) []byte {
	dst = putUvarint(dst, seq)
	dst = putUvarint(dst, uint64(ref))
	if sig != nil {
		dst = encodeFailure(dst, sig)
	}
	dst = putString(dst, meta.App)
	dst = putZigzag(dst, int64(meta.Machine))
	dst = putZigzag(dst, int64(meta.Version))
	dst = putZigzag(dst, meta.Seed)
	dst = putZigzag(dst, meta.Instrs)
	dst = putUvarint(dst, meta.Lost)
	return append(dst, raw...)
}

// parseHeader parses a payload of a segment that has named keys so
// far: a ref of len(keys) names a new key by its signature.
func parseHeader(payload []byte, keys []uint64) (recordHeader, error) {
	var h recordHeader
	s := &byteScanner{b: payload}
	h.seq = s.uvarint()
	switch ref := s.uvarint(); {
	case s.err != nil:
	case ref < uint64(len(keys)):
		h.key = keys[ref]
	case ref == uint64(len(keys)):
		if h.sig = s.failure(); h.sig != nil {
			h.key = KeyOf(h.sig)
		}
	default:
		s.fail("key reference out of range")
	}
	h.meta.App = s.str()
	h.meta.Machine = int(s.zigzag())
	h.meta.Version = int(s.zigzag())
	h.meta.Seed = s.zigzag()
	h.meta.Instrs = s.zigzag()
	h.meta.Lost = s.uvarint()
	h.rawOff = s.i
	return h, s.err
}

// listSegments returns the segment ids present in dir, sorted.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if id, ok := parseSegName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

func openSegFile(dir string, id int) (*os.File, int64, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(id)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}
