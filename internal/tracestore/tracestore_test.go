package tracestore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"execrecon/internal/framelog"
	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

func testSig(fn string, id int32) *vm.Failure {
	return &vm.Failure{
		Kind: vm.FailNullDeref, Msg: "nil deref", Func: fn,
		InstrID: id, Line: 42, Tid: 1,
		Stack: []string{"main", fn},
	}
}

// makeRaw builds a deterministic raw PT packet stream of n packets
// from a seeded RNG. flips marks step indices whose TNT outcome is
// inverted — the reoccurrence analog: same control flow with a few
// divergent branches.
func makeRaw(seed int64, n int, flips map[int]bool) []byte {
	ring := pt.NewRing(1 << 22)
	enc := pt.NewEncoder(ring)
	rng := rand.New(rand.NewSource(seed))
	enc.Chunk(0, 0)
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			enc.TIP(uint64(rng.Intn(1 << 20)))
		case 1:
			enc.PTW(int32(rng.Intn(16)), ir.W64, uint64(rng.Int63()))
		case 2:
			enc.PGD(uint64(rng.Intn(1000)))
		case 3:
			enc.Chunk(rng.Intn(4), uint64(i))
		default:
			taken := rng.Intn(2) == 1
			if flips[i] {
				taken = !taken
			}
			enc.TNT(taken)
		}
	}
	enc.Finish()
	raw, lost := ring.Bytes()
	if lost != 0 {
		panic("test ring wrapped")
	}
	return raw
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})

	sig := testSig("handler", 7)
	key := KeyOf(sig)
	const K = 8
	raws := make([][]byte, K)
	for i := 0; i < K; i++ {
		flips := map[int]bool{}
		if i > 0 {
			flips[100+i] = true // one divergent branch per reoccurrence
		}
		raws[i] = makeRaw(1, 2000, flips)
		seq, err := s.Append(sig, Meta{App: "app", Machine: i, Version: 1, Seed: int64(i)}, raws[i])
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append #%d: seq = %d", i, seq)
		}
	}
	if got := s.Count(key); got != K {
		t.Fatalf("Count = %d, want %d", got, K)
	}
	if sg := s.Sig(key); !sg.SameSignature(sig) {
		t.Fatalf("Sig mismatch: %v", sg)
	}
	for i := 0; i < K; i++ {
		raw, info, err := s.ReadRaw(key, uint64(i))
		if err != nil {
			t.Fatalf("ReadRaw(%d): %v", i, err)
		}
		if !bytes.Equal(raw, raws[i]) {
			t.Fatalf("ReadRaw(%d): reconstructed stream differs (%d vs %d bytes)", i, len(raw), len(raws[i]))
		}
		if info.Meta.Machine != i || info.Meta.Seed != int64(i) {
			t.Fatalf("record %d meta = %+v", i, info.Meta)
		}
		// The key's first record in the segment names its signature;
		// every further record costs exactly its frame, its seq, key
		// reference and Meta header, and its raw bytes.
		want := framelog.HeaderSize + len(appendPayload(nil, uint64(i), 0, nil, info.Meta, nil)) + len(raws[i])
		if i == 0 {
			want += len(encodeFailure(nil, sig))
		}
		if info.StoredBytes != int64(want) {
			t.Fatalf("record %d stores %d bytes, want %d", i, info.StoredBytes, want)
		}
	}
	if st := s.Stats(); st.Records != K || st.Appends != K {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenEventsStreamParity(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	sig := testSig("parity", 3)
	key := KeyOf(sig)
	raws := [][]byte{
		makeRaw(9, 1500, nil),
		makeRaw(9, 1500, map[int]bool{50: true, 700: true}),
		makeRaw(10, 300, nil), // a genuinely different stream
	}
	for i, raw := range raws {
		if _, err := s.Append(sig, Meta{Seed: int64(i)}, raw); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	for i, raw := range raws {
		want, err := pt.DecodeBytes(raw, 0)
		if err != nil {
			t.Fatalf("DecodeBytes %d: %v", i, err)
		}
		r, err := s.OpenEvents(key, uint64(i))
		if err != nil {
			t.Fatalf("OpenEvents %d: %v", i, err)
		}
		cur := pt.NewCursor(want)
		n := 0
		for {
			we, ge := cur.Next(), r.Next()
			if (we == nil) != (ge == nil) {
				t.Fatalf("record %d: stream ended early at event %d (batch=%v stream=%v)", i, n, we, ge)
			}
			if we == nil {
				break
			}
			if *we != *ge {
				t.Fatalf("record %d event %d: batch %+v != stream %+v", i, n, *we, *ge)
			}
			n++
		}
		if err := r.Err(); err != nil {
			t.Fatalf("record %d: stream error: %v", i, err)
		}
		if r.Pos() != n {
			t.Fatalf("record %d: Pos = %d, want %d", i, r.Pos(), n)
		}
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 2 << 10}) // force multi-segment
	sigA, sigB := testSig("alpha", 1), testSig("beta", 2)
	var rawsA, rawsB [][]byte
	for i := 0; i < 5; i++ {
		ra := makeRaw(21, 800, map[int]bool{i * 7: true})
		rb := makeRaw(22, 800, map[int]bool{i * 11: true})
		rawsA, rawsB = append(rawsA, ra), append(rawsB, rb)
		if _, err := s.Append(sigA, Meta{Seed: int64(i)}, ra); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(sigB, Meta{Seed: int64(i)}, rb); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Segments < 2 {
		t.Fatalf("want multiple segments, got %d", before.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{SegmentBytes: 2 << 10})
	after := s2.Stats()
	if after.Records != before.Records || after.RawBytes != before.RawBytes || after.StoredBytes != before.StoredBytes {
		t.Fatalf("reopen stats drifted: before %+v after %+v", before, after)
	}
	for i, raw := range rawsA {
		got, _, err := s2.ReadRaw(KeyOf(sigA), uint64(i))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("reopen ReadRaw(A,%d): err=%v equal=%v", i, err, bytes.Equal(got, raw))
		}
	}
	for i, raw := range rawsB {
		got, _, err := s2.ReadRaw(KeyOf(sigB), uint64(i))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("reopen ReadRaw(B,%d): err=%v equal=%v", i, err, bytes.Equal(got, raw))
		}
	}
	// Appends resume with fresh sequence numbers.
	seq, err := s2.Append(sigA, Meta{}, rawsA[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("resumed seq = %d, want 5", seq)
	}
}

// TestCrashRecoveryEveryOffset is the crash-tolerance sweep: the last
// segment is truncated at every byte offset, and Open must always
// succeed, keep exactly the records whose frames fit in the prefix,
// and discard the torn tail.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	base := t.TempDir()
	s := openTest(t, base, Options{})
	sig := testSig("crash", 5)
	key := KeyOf(sig)
	var frames []int64 // cumulative end offset of each record's frame
	for i := 0; i < 4; i++ {
		if _, err := s.Append(sig, Meta{Seed: int64(i)}, makeRaw(31, 120, map[int]bool{i: true})); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		frames = append(frames, st.StoredBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(base, segName(0))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != frames[len(frames)-1] {
		t.Fatalf("segment size %d != accounted %d", len(full), frames[len(frames)-1])
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(base, "cut")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		wantRecs := 0
		for _, end := range frames {
			if int64(cut) >= end {
				wantRecs++
			}
		}
		st := s2.Stats()
		if int(st.Records) != wantRecs {
			s2.Close()
			t.Fatalf("cut=%d: %d records survived, want %d", cut, st.Records, wantRecs)
		}
		torn := wantRecs < len(frames) && (wantRecs == 0 && cut > 0 || wantRecs > 0 && int64(cut) > frames[wantRecs-1])
		if torn && st.Recoveries != 1 {
			s2.Close()
			t.Fatalf("cut=%d: Recoveries = %d, want 1", cut, st.Recoveries)
		}
		// Every surviving record must reconstruct byte-exactly.
		for i := 0; i < wantRecs; i++ {
			if _, _, err := s2.ReadRaw(key, uint64(i)); err != nil {
				s2.Close()
				t.Fatalf("cut=%d: ReadRaw(%d): %v", cut, i, err)
			}
		}
		// The torn tail is gone from disk, not just from the index.
		if fi, err := os.Stat(filepath.Join(dir, segName(0))); err == nil {
			wantSize := int64(0)
			if wantRecs > 0 {
				wantSize = frames[wantRecs-1]
			}
			if fi.Size() != wantSize {
				s2.Close()
				t.Fatalf("cut=%d: tail not truncated: size %d, want %d", cut, fi.Size(), wantSize)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestReopenDropsDuplicateRecords: a (key, seq) pair that appears
// twice on disk is indexed once, so Next and reads stay well defined
// whatever build wrote the segments.
func TestReopenDropsDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	sig := testSig("dup", 5)
	key := KeyOf(sig)
	var raws [][]byte
	for i := 0; i < 3; i++ {
		raw := makeRaw(71, 300, map[int]bool{i: true})
		raws = append(raws, raw)
		if _, err := s.Append(sig, Meta{Seed: int64(i)}, raw); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg0, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg0, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	if got := s2.Count(key); got != 3 {
		t.Fatalf("Count = %d after reopening a duplicated segment, want 3", got)
	}
	if got := s2.Stats(); got.Records != want.Records || got.StoredBytes != want.StoredBytes {
		t.Fatalf("Stats = %+v, want Records %d StoredBytes %d", got, want.Records, want.StoredBytes)
	}
	for i, raw := range raws {
		got, _, err := s2.ReadRaw(key, uint64(i))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("ReadRaw(%d): err=%v equal=%v", i, err, bytes.Equal(got, raw))
		}
	}
}

// TestConcurrentAppendRead exercises concurrent appends and streaming
// reads across segment rolls under the race detector.
func TestConcurrentAppendRead(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 32 << 10})
	sigs := []*vm.Failure{testSig("w0", 1), testSig("w1", 2), testSig("w2", 3)}
	done := make(chan error, len(sigs))
	for w, sig := range sigs {
		go func(w int, sig *vm.Failure) {
			key := KeyOf(sig)
			for i := 0; i < 20; i++ {
				raw := makeRaw(int64(60+w), 200, map[int]bool{i: true})
				seq, err := s.Append(sig, Meta{Seed: int64(i)}, raw)
				if err != nil {
					done <- err
					return
				}
				r, err := s.OpenEvents(key, seq)
				if err != nil {
					done <- err
					return
				}
				for r.Next() != nil {
				}
				if err := r.Err(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w, sig)
	}
	for range sigs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKeyOf(t *testing.T) {
	a := testSig("f", 1)
	b := testSig("f", 1)
	b.Msg, b.Line, b.Tid = "different message", 99, 7 // not part of the signature
	if KeyOf(a) != KeyOf(b) {
		t.Fatal("KeyOf varies on non-signature fields")
	}
	for _, diff := range []*vm.Failure{
		testSig("g", 1),
		testSig("f", 2),
		{Kind: vm.FailAbort, Func: "f", InstrID: 1, Stack: []string{"main", "f"}},
		{Kind: vm.FailNullDeref, Func: "f", InstrID: 1, Stack: []string{"main"}},
	} {
		if KeyOf(a) == KeyOf(diff) {
			t.Fatalf("KeyOf collision with %+v", diff)
		}
	}
}

func TestUntracedRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	sig := testSig("untraced", 13)
	if _, err := s.AppendRing(sig, Meta{App: "x"}, nil); err != nil {
		t.Fatalf("AppendRing of an untraced occurrence: %v", err)
	}
	raw, info, err := s.ReadRaw(KeyOf(sig), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 || info.RawLen != 0 {
		t.Fatalf("untraced record has %d raw bytes", len(raw))
	}
}

// TestNextScansMetadata: Next returns the first record at or after the
// cursor that the predicate accepts, shows the predicate every record
// it passes over, and resumes past the match (or past every record
// when none matched).
func TestNextScansMetadata(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	sig := testSig("next", 1)
	key := KeyOf(sig)
	for i := 0; i < 6; i++ {
		app := "a"
		if i%2 == 1 {
			app = "b"
		}
		if _, err := s.Append(sig, Meta{App: app, Seed: int64(i)}, makeRaw(7, 50, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	isB := func(ri RecordInfo) bool {
		seen = append(seen, ri.Seq)
		return ri.Meta.App == "b"
	}
	info, next, ok := s.Next(key, 2, isB)
	if !ok || info.Seq != 3 || info.Meta.Seed != 3 || next != 4 {
		t.Fatalf("Next from 2 = %+v next %d ok %v, want seq 3, next 4", info, next, ok)
	}
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("predicate saw %v, want [2 3]", seen)
	}
	if _, next, ok := s.Next(key, 6, isB); ok || next != 6 {
		t.Fatalf("Next past the end: next %d ok %v, want 6, false", next, ok)
	}
	none := func(RecordInfo) bool { return false }
	if _, next, ok := s.Next(key, 0, none); ok || next != 6 {
		t.Fatalf("Next without a match: next %d ok %v, want 6, false", next, ok)
	}
	if _, next, ok := s.Next(KeyOf(testSig("unknown", 9)), 3, isB); ok || next != 3 {
		t.Fatalf("Next on an unknown key: next %d ok %v, want 3, false", next, ok)
	}
	if _, err := s.OpenEvents(key, info.Seq); err != nil {
		t.Fatalf("OpenEvents(seq %d): %v", info.Seq, err)
	}
}

// TestSegmentsDescribeThemselves: every segment names the signature of
// each key it holds, so the records of a segment survive the loss of
// every other segment, including the one the key was first written to.
func TestSegmentsDescribeThemselves(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1 << 10}
	s := openTest(t, dir, opts)
	sig := testSig("self", 4)
	key := KeyOf(sig)
	raws := map[uint64][]byte{}
	for i := 0; i < 6; i++ {
		raw := makeRaw(41, 400, map[int]bool{i: true})
		seq, err := s.Append(sig, Meta{Seed: int64(i)}, raw)
		if err != nil {
			t.Fatal(err)
		}
		raws[seq] = raw
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want records in at least 3 segments, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, opts)
	if sg := s2.Sig(key); sg == nil || !sg.SameSignature(sig) {
		t.Fatalf("Sig after losing segment 0 = %v", sg)
	}
	if _, _, err := s2.ReadRaw(key, 0); err == nil {
		t.Fatal("seq 0 still reads after its segment was removed")
	}
	n := 0
	for seq, raw := range raws {
		got, _, err := s2.ReadRaw(key, seq)
		if err != nil {
			continue // in segment 0
		}
		n++
		if !bytes.Equal(got, raw) {
			t.Fatalf("ReadRaw(%d) differs", seq)
		}
	}
	if n != s2.Count(key) || n == 0 || n == len(raws) {
		t.Fatalf("%d records read back, Count %d, of %d appended", n, s2.Count(key), len(raws))
	}
	if seq, err := s2.Append(sig, Meta{}, raws[0]); err != nil || seq != uint64(len(raws)) {
		t.Fatalf("Append after reopen: seq %d, err %v; want %d", seq, err, len(raws))
	}
}

// TestOpenRefusesOldFormat: testdata/ers1.log is a segment of the
// older, delta-coded format (two keys, a reference and a delta each).
// Open refuses it with an error that names the segment and leaves its
// bytes as they were; it does not read it as a torn tail and truncate
// it away. A segment whose start is zero-filled is still a torn tail.
func TestOpenRefusesOldFormat(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "ers1.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, segName(0))
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open read an older-format segment")
	}
	if !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "older") {
		t.Fatalf("error %q does not name %s as an older format", err, seg)
	}
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the refused segment changed (read err %v)", err)
	}

	if err := os.WriteFile(seg, make([]byte, len(old)), 0o644); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{})
	if st := s.Stats(); st.Records != 0 || st.Recoveries != 1 {
		t.Fatalf("zero-filled segment: %+v, want no records and one recovery", st)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
		t.Fatalf("zero-filled segment not truncated: %v, %v", fi, err)
	}
}

// TestOpenTruncatesBadKeyRef: a CRC-valid record that refers to a key
// its segment has not named, or names a key a second time, ends the
// scan like a corrupt frame, so no key is indexed without its
// signature and a key has one position per segment.
func TestOpenTruncatesBadKeyRef(t *testing.T) {
	sig := testSig("ref", 6)
	raw := makeRaw(5, 40, nil)
	first := segFormat.Frame(appendPayload(nil, 0, 0, sig, Meta{}, raw))
	for name, second := range map[string][]byte{
		"unnamed key": appendPayload(nil, 1, 2, nil, Meta{}, raw),
		"named twice": appendPayload(nil, 1, 1, sig, Meta{}, raw),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), append(first, segFormat.Frame(second)...), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, Options{})
		if st, keys := s.Stats(), s.Keys(); st.Records != 1 || st.Recoveries != 1 || len(keys) != 1 || keys[0] != KeyOf(sig) {
			t.Errorf("%s: %+v, keys %x; want the first record alone and one recovery", name, st, keys)
		}
	}
}
