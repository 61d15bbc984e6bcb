package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"execrecon/internal/telemetry"
)

// TestFleetTelemetryEndpoint runs a full telemetry-enabled fleet with
// the live introspection endpoint bound to an ephemeral port, scrapes
// /metrics and /debug/er mid-run and after resolution, and checks the
// exposition covers every instrumented layer. Run with -race: the
// scrapes race the producers, triage, and pipeline workers by design.
func TestFleetTelemetryEndpoint(t *testing.T) {
	reg := telemetry.New()
	tr := telemetry.NewTracer(8)
	f, err := New(testApps(t), Options{
		Shards:         4,
		Workers:        4,
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
		Telemetry:      reg,
		Tracer:         tr,
		ListenAddr:     "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := f.IntrospectionAddr()
	if addr == "" {
		t.Fatal("no introspection address")
	}

	// Scrape while the fleet is hot (races with every subsystem).
	if _, err := httpGet(t, "http://"+addr+"/metrics"); err != nil {
		t.Fatalf("mid-run /metrics: %v", err)
	}
	if _, err := httpGet(t, "http://"+addr+"/debug/er"); err != nil {
		t.Fatalf("mid-run /debug/er: %v", err)
	}

	res, err := f.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, b := range res.Buckets {
		if !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s: reproduced=%v verified=%v", b.App, b.Reproduced, b.Verified)
		}
	}

	// The endpoint closed with Wait.
	if _, err := httpGet(t, "http://"+addr+"/metrics"); err == nil {
		t.Error("endpoint still serving after Wait")
	}

	// The registry covers every layer; render the final exposition
	// directly (the same bytes /metrics served).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	body := sb.String()
	for _, name := range []string{
		"er_fleet_ingest_accepted_total",
		"er_fleet_machine_runs_total",
		"er_fleet_buckets_resolved_total",
		"er_fleet_occurrences_total",
		"er_core_stage_seconds",
		"er_core_reproduced_total",
		"er_symex_runs_total",
		"er_symex_solver_queries_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if !strings.Contains(body, `er_fleet_buckets{state="reproduced"} 3`) {
		t.Errorf("bucket state gauge wrong:\n%s", grepLines(body, "er_fleet_buckets{"))
	}

	// Span trees: one finished reconstruction per bucket.
	if got := tr.Finished(); got != 3 {
		t.Errorf("finished span trees = %d, want 3", got)
	}
	for _, root := range tr.Recent() {
		if root.Name != "reconstruction" || root.Open {
			t.Errorf("bad root: %+v", root)
		}
	}
}

// TestFleetDebugEndpointJSON checks /debug/er serves a parseable JSON
// snapshot with per-bucket state and recent span trees.
func TestFleetDebugEndpointJSON(t *testing.T) {
	reg := telemetry.New()
	tr := telemetry.NewTracer(8)
	f, err := New(testApps(t), Options{
		Workers:        4,
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
		Telemetry:      reg,
		Tracer:         tr,
		ListenAddr:     "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := f.IntrospectionAddr()
	body, err := httpGet(t, "http://"+addr+"/debug/er")
	if err != nil {
		t.Fatalf("/debug/er: %v", err)
	}
	var doc struct {
		Time    string          `json:"time"`
		State   json.RawMessage `json:"state"`
		Metrics json.RawMessage `json:"metrics"`
		Spans   json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("debug JSON: %v\n%s", err, body)
	}
	if doc.Time == "" || doc.State == nil {
		t.Errorf("debug doc incomplete: %s", body)
	}
	var snap Snapshot
	if err := json.Unmarshal(doc.State, &snap); err != nil {
		t.Fatalf("state is not a fleet snapshot: %v", err)
	}
	if _, err := f.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestSnapshotRaceDuringIngest is the silent-stats-loss regression:
// hammer Snapshot (and the registry collection callbacks) from
// several goroutines while the fleet ingests, triages, and runs
// pipelines. Run with -race. It also checks every observed bucket
// snapshot is internally consistent: a bucket's report is published
// before its reproduced state, so a snapshot that shows the state must
// also show the report's verdict.
func TestSnapshotRaceDuringIngest(t *testing.T) {
	reg := telemetry.New()
	f, err := New(testApps(t), Options{
		Workers:        4,
		MachinesPerApp: 3,
		Pace:           50 * time.Microsecond,
		Timeout:        60 * time.Second,
		Telemetry:      reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var torn []string
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := f.Snapshot()
				for _, b := range s.Buckets {
					if b.State == BucketReproduced.String() && !b.Reproduced {
						mu.Lock()
						torn = append(torn, fmt.Sprintf(
							"bucket %s: state %s without a reproduced report", b.App, b.State))
						mu.Unlock()
					}
				}
				_ = reg.Snapshot() // collection callbacks race ingest too
				var sb strings.Builder
				_ = reg.WritePrometheus(&sb)
			}
		}()
	}

	res, err := f.Wait()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(torn) > 0 {
		t.Errorf("torn bucket snapshots observed: %v", torn)
	}
	for _, b := range res.Buckets {
		if !b.Reproduced {
			t.Errorf("bucket %s not reproduced under snapshot hammer", b.App)
		}
	}
}

func httpGet(t *testing.T, url string) (string, error) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return string(b), nil
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
