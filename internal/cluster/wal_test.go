package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/framelog"
	"execrecon/internal/vm"
)

func walSig(msg string) *vm.Failure {
	return &vm.Failure{Kind: vm.FailAssert, Msg: msg, Func: "main", InstrID: 7, Line: 3, Stack: []string{"main"}}
}

// walTestRecords is a representative log: two buckets, one resolved,
// one with a grant/renew/expire/re-grant/rollout history still in
// flight.
func walTestRecords() []walRecord {
	sigA, sigB := walSig("a"), walSig("b")
	rep := &core.Report{Reproduced: true, Verified: true, Failure: sigA,
		TestCase: vm.NewWorkload().Add("x", 42)}
	return []walRecord{
		{T: walGrant, App: "alpha", Key: 1, Node: "n0", Term: 1, Sig: sigA},
		{T: walGrant, App: "beta", Key: 2, Node: "n0", Term: 1, Sig: sigB},
		{T: walRenew, App: "beta", Key: 2, Node: "n0", Term: 1, Iterations: 1},
		{T: walResolve, App: "alpha", Key: 1, Node: "n0", Term: 1, Sig: sigA, Report: rep},
		{T: walExpire, App: "beta", Key: 2, Node: "n0", Term: 1},
		{T: walGrant, App: "beta", Key: 2, Node: "n1", Term: 2, Sig: sigB},
		{T: walRollout, App: "beta", Key: 2, Node: "n1", Term: 2, Version: 1},
		{T: walRenew, App: "beta", Key: 2, Node: "n1", Term: 2, Iterations: 3},
	}
}

// appendAll writes recs to a fresh WAL at path and returns each
// record's end offset in the file.
func appendAll(t *testing.T, path string, recs []walRecord) []int64 {
	t.Helper()
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("fresh WAL replayed %d records", st.Records)
	}
	var ends []int64
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ends
}

// checkReplayPrefix asserts that st matches replaying the first n
// test records.
func checkReplayPrefix(t *testing.T, st *RecoveredState, recs []walRecord, n int) {
	t.Helper()
	want := replayWAL(recs[:n])
	if st.Records != n {
		t.Fatalf("replayed %d records, want %d", st.Records, n)
	}
	if len(st.Buckets) != len(want.Buckets) {
		t.Fatalf("recovered %d buckets, want %d", len(st.Buckets), len(want.Buckets))
	}
	for addr, wb := range want.Buckets {
		gb := st.Buckets[addr]
		if gb == nil {
			t.Fatalf("bucket %v missing from recovery", addr)
		}
		if gb.Term != wb.Term || gb.Version != wb.Version ||
			gb.Resolved != wb.Resolved || gb.Leased != wb.Leased ||
			gb.Iterations != wb.Iterations || gb.Redispatches != wb.Redispatches {
			t.Fatalf("bucket %v: recovered %+v, want %+v", addr, gb, wb)
		}
		if wb.Resolved && (gb.Report == nil || !gb.Report.Reproduced) {
			t.Fatalf("bucket %v: resolved report not recovered", addr)
		}
	}
}

func TestWALReplay(t *testing.T) {
	recs := walTestRecords()
	st := replayWAL(recs)
	a := st.Buckets[bucketAddr{"alpha", 1}]
	if a == nil || !a.Resolved || a.Report == nil || !a.Report.Verified || a.Leased {
		t.Fatalf("alpha state = %+v", a)
	}
	if got := a.Report.TestCase.Streams["x"]; len(got) != 1 || got[0] != 42 {
		t.Fatalf("alpha test case lost in replay: %v", got)
	}
	b := st.Buckets[bucketAddr{"beta", 2}]
	if b == nil || b.Resolved || !b.Leased || b.Term != 2 || b.Version != 1 ||
		b.Iterations != 3 || b.Redispatches != 1 || b.Node != "n1" {
		t.Fatalf("beta state = %+v", b)
	}
}

func TestWALReopenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.wal")
	recs := walTestRecords()
	appendAll(t, path, recs)
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	checkReplayPrefix(t, st, recs, len(recs))
	if err := w.Append(walRecord{T: walResolve, App: "beta", Key: 2, Term: 2,
		Report: &core.Report{Reproduced: true}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, st2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != len(recs)+1 {
		t.Fatalf("records after reopen-append = %d, want %d", st2.Records, len(recs)+1)
	}
	if b := st2.Buckets[bucketAddr{"beta", 2}]; b == nil || !b.Resolved || b.Leased {
		t.Fatalf("beta not resolved after append: %+v", b)
	}
}

// TestWALTornTailEveryOffset mirrors the tracestore torn-tail suite:
// the log truncated at EVERY byte offset must recover exactly the
// records whose frames fit entirely in the prefix, and the truncated
// file must remain appendable.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := walTestRecords()
	ends := appendAll(t, full, recs)
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != ends[len(ends)-1] {
		t.Fatalf("file size %d != last end offset %d", len(blob), ends[len(ends)-1])
	}
	torn := filepath.Join(dir, "torn.wal")
	for off := 0; off <= len(blob); off++ {
		if err := os.WriteFile(torn, blob[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w, st, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		// How many full frames fit in the prefix?
		wantN := 0
		for _, e := range ends {
			if int64(off) >= e {
				wantN++
			}
		}
		if st.Records != wantN {
			w.Close()
			t.Fatalf("offset %d: recovered %d records, want %d", off, st.Records, wantN)
		}
		var wantEnd int64
		if wantN > 0 {
			wantEnd = ends[wantN-1]
		}
		if st.Truncated != int64(off)-wantEnd {
			w.Close()
			t.Fatalf("offset %d: truncated %d bytes, want %d", off, st.Truncated, int64(off)-wantEnd)
		}
		checkReplayPrefix(t, st, recs, wantN)
		// The recovered log must accept appends at the clean boundary.
		if err := w.Append(walRecord{T: walGrant, App: "gamma", Key: 9, Term: 1}); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		w.Close()
		_, st2, err := OpenWAL(torn)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		if st2.Records != wantN+1 {
			t.Fatalf("offset %d: reopen replayed %d, want %d", off, st2.Records, wantN+1)
		}
	}
}

// TestWALCorruptMiddle flips one byte inside an interior record's
// payload: recovery must keep everything before it and discard the
// rest (a CRC break is indistinguishable from a torn tail).
func TestWALCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lease.wal")
	recs := walTestRecords()
	ends := appendAll(t, path, recs)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of record 3 (offsets inside frame 3's
	// payload start after its header).
	pos := ends[2] + framelog.HeaderSize + 2
	blob[pos] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st.Records != 3 {
		t.Fatalf("recovered %d records past corruption, want 3", st.Records)
	}
	checkReplayPrefix(t, st, recs, 3)
}

func TestWALCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.wal")
	recs := walTestRecords()
	appendAll(t, path, recs)
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Bytes()
	var state []RecoveredBucket
	for _, b := range st.Buckets {
		state = append(state, *b)
	}
	if err := w.Checkpoint(state); err != nil {
		t.Fatal(err)
	}
	// Appends after the checkpoint must land in the new log.
	if err := w.Append(walRecord{T: walGrant, App: "beta", Key: 2, Node: "n2", Term: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, st2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 2 { // checkpoint + post-checkpoint grant
		t.Fatalf("records after checkpoint = %d, want 2", st2.Records)
	}
	if len(st2.Buckets) != len(st.Buckets) {
		t.Fatalf("checkpoint lost buckets: %d vs %d", len(st2.Buckets), len(st.Buckets))
	}
	a := st2.Buckets[bucketAddr{"alpha", 1}]
	if a == nil || !a.Resolved || a.Report == nil || !a.Report.Reproduced {
		t.Fatalf("alpha verdict lost across checkpoint: %+v", a)
	}
	b := st2.Buckets[bucketAddr{"beta", 2}]
	if b == nil || b.Term != 3 || b.Node != "n2" {
		t.Fatalf("post-checkpoint grant not applied: %+v", b)
	}
	// A checkpoint of this small table must have shrunk the log.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= before {
		t.Fatalf("checkpoint did not truncate: %d -> %d bytes", before, fi.Size())
	}
}

// TestWALOmitsZeroStamps: a record without a stamp leaves its key out,
// and a log that spells unset stamps as the zero time still replays
// them as unset, with every set stamp intact.
func TestWALOmitsZeroStamps(t *testing.T) {
	p, err := json.Marshal(walRecord{T: walRenew, App: "beta", Key: 2, Node: "n0", Term: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(p, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"first_seen", "at"} {
		if _, ok := keys[k]; ok {
			t.Errorf("renew record %s carries %q", p, k)
		}
	}

	const zero = `"0001-01-01T00:00:00Z"`
	seen := time.Date(2023, 11, 14, 22, 13, 20, 0, time.UTC)
	done := seen.Add(5 * time.Second)
	at := func(ts time.Time) string { return `"` + ts.Format(time.RFC3339) + `"` }
	var file []byte
	for _, rec := range []string{
		`{"t":"checkpoint","first_seen":` + zero + `,"at":` + zero + `,"state":[` +
			`{"app":"gamma","key":3,"term":1,"version":0,"first_seen":` + at(seen) + `,"resolved_at":` + zero + `}]}`,
		`{"t":"grant","app":"alpha","key":1,"node":"n0","term":1,"first_seen":` + at(seen) + `,"at":` + zero + `}`,
		`{"t":"renew","app":"alpha","key":1,"node":"n0","term":1,"iterations":2,"first_seen":` + zero + `,"at":` + zero + `}`,
		`{"t":"grant","app":"beta","key":2,"node":"n0","term":1,"first_seen":` + zero + `,"at":` + zero + `}`,
		`{"t":"grant","app":"beta","key":2,"node":"n1","term":2,"first_seen":` + at(seen) + `,"at":` + zero + `}`,
		`{"t":"resolve","app":"alpha","key":1,"node":"n0","term":1,"first_seen":` + zero + `,"at":` + at(done) + `}`,
	} {
		file = append(file, walFormat.Frame([]byte(rec))...)
	}
	path := filepath.Join(t.TempDir(), "lease.wal")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if st.Records != 6 || st.Truncated != 0 {
		t.Fatalf("replayed %d records, truncated %d bytes; want 6, 0", st.Records, st.Truncated)
	}
	for _, want := range []struct {
		addr               bucketAddr
		firstSeen, resolve time.Time
	}{
		{bucketAddr{"alpha", 1}, seen, done},
		{bucketAddr{"beta", 2}, seen, time.Time{}},
		{bucketAddr{"gamma", 3}, seen, time.Time{}},
	} {
		b := st.Buckets[want.addr]
		if b == nil {
			t.Fatalf("bucket %v not recovered", want.addr)
		}
		if got := unstamp(b.FirstSeen); !got.Equal(want.firstSeen) {
			t.Errorf("bucket %v: first seen %v, want %v", want.addr, got, want.firstSeen)
		}
		if got := unstamp(b.ResolvedAt); !got.Equal(want.resolve) {
			t.Errorf("bucket %v: resolved at %v, want %v", want.addr, got, want.resolve)
		}
	}
	if a := st.Buckets[bucketAddr{"alpha", 1}]; !a.Resolved || a.Iterations != 2 {
		t.Errorf("alpha = %+v, want resolved after 2 iterations", a)
	}
}
