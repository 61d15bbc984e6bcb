package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// testdata/v3-trace.wal was written by the coordinator code that still
// minted per-bucket trace ids: a checkpoint (resolved alpha with its
// final replay span, leased gamma) followed by beta's grant, renew,
// expire, re-grant, rollout and resolve and a re-grant of gamma. Its
// checkpoint state and grant records carry a "trace" field, and the
// replay span carries trace_id/span_id/parent_id.
const legacyWAL = "testdata/v3-trace.wal"

func legacyStamp(sec int) time.Time { return time.Date(2026, 10, 1, 12, 0, sec, 0, time.UTC) }

// TestWALOpensLegacyTraceLog: a log written before trace ids were
// dropped opens without truncation and replays to the same buckets,
// terms, versions, reports and ingest times.
func TestWALOpensLegacyTraceLog(t *testing.T) {
	blob, err := os.ReadFile(legacyWAL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lease.wal")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if st.Records != 8 || st.Truncated != 0 {
		t.Fatalf("replayed %d records, truncated %d bytes; want 8, 0", st.Records, st.Truncated)
	}
	type want struct {
		sig                      string
		term, iterations, redisp int
		version                  int
		leased, resolved         bool
		node                     string
		occurrences              int
		stream                   string
		value                    uint64
		firstSeen, resolvedAt    int // seconds; -1 is unset
		span                     bool
	}
	wants := map[bucketAddr]want{
		{"alpha", 1}: {sig: "a", term: 1, version: 1, iterations: 2, resolved: true,
			occurrences: 2, stream: "x", value: 42, firstSeen: 1, resolvedAt: 5, span: true},
		{"beta", 2}: {sig: "b", term: 2, version: 2, iterations: 1, redisp: 1, resolved: true,
			occurrences: 3, stream: "y", value: 7, firstSeen: 6, resolvedAt: 9},
		{"gamma", 3}: {sig: "c", term: 3, redisp: 1, leased: true, node: "n0",
			firstSeen: 2, resolvedAt: -1},
	}
	if len(st.Buckets) != len(wants) {
		t.Fatalf("recovered %d buckets, want %d", len(st.Buckets), len(wants))
	}
	stampIs := func(p *time.Time, sec int) bool {
		if sec < 0 {
			return p == nil
		}
		return p != nil && p.Equal(legacyStamp(sec))
	}
	for addr, wb := range wants {
		b := st.Buckets[addr]
		if b == nil {
			t.Fatalf("bucket %v missing", addr)
		}
		if b.Sig == nil || b.Sig.Msg != wb.sig || b.Term != uint64(wb.term) || b.Version != wb.version ||
			b.Iterations != wb.iterations || b.Redispatches != wb.redisp ||
			b.Leased != wb.leased || b.Node != wb.node || b.Resolved != wb.resolved {
			t.Errorf("bucket %v: recovered %+v, want %+v", addr, b, wb)
		}
		if !stampIs(b.FirstSeen, wb.firstSeen) || !stampIs(b.ResolvedAt, wb.resolvedAt) {
			t.Errorf("bucket %v: stamps %v/%v, want %ds/%ds", addr,
				unstamp(b.FirstSeen), unstamp(b.ResolvedAt), wb.firstSeen, wb.resolvedAt)
		}
		if wb.resolved {
			r := b.Report
			if r == nil || !r.Reproduced || !r.Verified || r.Occurrences != wb.occurrences ||
				r.TestCase == nil || len(r.TestCase.Streams[wb.stream]) != 1 ||
				r.TestCase.Streams[wb.stream][0] != wb.value {
				t.Errorf("bucket %v: report %+v", addr, r)
			}
		}
		if (b.Span != nil) != wb.span || (b.Span != nil && b.Span.Name != "replay") {
			t.Errorf("bucket %v: replay span %+v, want present=%v", addr, b.Span, wb.span)
		}
	}

	// A coordinator restarted over the same log hangs alpha's final
	// replay span under the lease window of its resolving term.
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	apps := []fleet.App{{Name: "alpha", Module: compile(t, "alpha", alphaSrc), Seed: 1,
		Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 42) }}}
	c, err := NewCoordinator(apps, CoordinatorOptions{Store: store, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tl, ok := c.TimelineOf("alpha", 1)
	if !ok {
		t.Fatal("no timeline for recovered alpha")
	}
	if !tl.FirstSeen.Equal(legacyStamp(1)) {
		t.Errorf("alpha first seen = %v, want %v", tl.FirstSeen, legacyStamp(1))
	}
	if replay := requireCompleteTimeline(t, tl, true); replay.Attrs["node"] != "n0" {
		t.Errorf("alpha resolving replay = %+v", replay)
	}
}

// TestLeaseResponseDecodesLegacyTrace: a v3 grant from a coordinator
// that still sent the bucket's span context decodes field for field;
// the "trace" object is ignored.
func TestLeaseResponseDecodesLegacyTrace(t *testing.T) {
	body := `{"v":3,"ok":true,"granted":true,"app":"alpha","key":1,` +
		`"sig":{"Kind":2,"Msg":"a","Func":"main","InstrID":7,"Line":3,"Tid":0,"Stack":["main"]},` +
		`"term":4,"ttl_millis":3000,` +
		`"trace":{"trace_id":"9e3779b97f4a7c15","span_id":"9e3779b97f4a7c15"}}`
	var lr LeaseResponse
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatalf("decode legacy grant: %v", err)
	}
	if lr.V != ProtocolVersion || !lr.OK || !lr.Granted || lr.App != "alpha" || lr.Key != 1 ||
		lr.Term != 4 || lr.TTLMillis != 3000 || lr.Sig == nil || lr.Sig.Msg != "a" {
		t.Errorf("legacy grant decoded as %+v", lr)
	}
}
