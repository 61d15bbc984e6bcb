package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/minc"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// walFuzzMaxFrames caps the frames one fuzz input is split into.
const walFuzzMaxFrames = 64

// FuzzWALRecovery feeds arbitrary record payloads through the WAL's
// decode and replay path. The input is split on newlines into up to
// walFuzzMaxFrames payloads, each framed with a valid CRC, so every
// frame reaches JSON decoding and replayWAL. Seeds are real records,
// one per seed and all of them as one log. It checks that:
//   - OpenWAL and coordinator recovery (NewCoordinator, Timelines,
//     Snapshot) never panic;
//   - recovery keeps exactly the leading frames whose payload decodes
//     to a typed record and truncates the rest;
//   - a second OpenWAL truncates nothing and replays as many records.
func FuzzWALRecovery(f *testing.F) {
	recs := walTestRecords()
	at := time.Unix(1700000000, 0).UTC()
	recs[0].FirstSeen = &at
	recs[3].At = &at
	recs[3].Span = &telemetry.SpanSnapshot{Name: "replay", Start: at, Attrs: map[string]string{"node": "n0"}}
	var state []RecoveredBucket
	for _, b := range replayWAL(recs).Buckets {
		state = append(state, *b)
	}
	var log [][]byte
	for _, r := range append([]walRecord{{T: walCheckpoint, State: state}}, recs...) {
		p, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		log = append(log, p)
	}
	f.Add(bytes.Join(log, []byte("\n")))

	dir := f.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer store.Close()
	mod, err := minc.Compile("alpha", alphaSrc)
	if err != nil {
		f.Fatal(err)
	}
	apps := []fleet.App{{
		Name:    "alpha",
		Module:  mod,
		Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 42) },
		Seed:    1,
	}}
	path := filepath.Join(dir, "lease.wal")

	f.Fuzz(func(t *testing.T, data []byte) {
		// want counts the leading frames that decode to a typed
		// record; kept is their byte length.
		var file []byte
		want, kept, stopped := 0, 0, false
		for _, p := range bytes.SplitN(data, []byte("\n"), walFuzzMaxFrames) {
			file = append(file, walFormat.Frame(p)...)
			if !stopped {
				var rec walRecord
				stopped = json.Unmarshal(p, &rec) != nil || rec.T == ""
			}
			if !stopped {
				want, kept = want+1, len(file)
			}
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for open, trunc := range []int{len(file) - kept, 0} {
			w, st, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("OpenWAL %d: %v", open+1, err)
			}
			w.Close()
			if st.Records != want || st.Truncated != int64(trunc) {
				t.Fatalf("OpenWAL %d: %d records, %d bytes truncated; want %d, %d",
					open+1, st.Records, st.Truncated, want, trunc)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file[:kept]) {
			t.Fatalf("recovered log is not the first %d frames (read err %v)", want, err)
		}
		c, err := NewCoordinator(apps, CoordinatorOptions{Store: store, WALPath: path})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		c.Timelines()
		c.Snapshot()
		c.Close()
	})
}
