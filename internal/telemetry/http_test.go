package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHandlerMetricsEndpoint(t *testing.T) {
	r := New()
	r.Counter("er_test_total", "help").Add(3)
	srv := httptest.NewServer(NewHandler(ServerOptions{Registry: r}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "er_test_total 3") {
		t.Fatalf("metrics body:\n%s", body)
	}
}

func TestHandlerDebugEndpoint(t *testing.T) {
	r := New()
	r.Gauge("er_test_depth", "").Set(5)
	tr := NewTracer(4)
	tr.Start("reconstruction", A("sig", "assert")).End()
	srv := httptest.NewServer(NewHandler(ServerOptions{
		Registry: r,
		Tracer:   tr,
		Debug:    func() interface{} { return map[string]int{"buckets": 2} },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/er")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		State   map[string]int   `json:"state"`
		Metrics []FamilySnapshot `json:"metrics"`
		Spans   []SpanSnapshot   `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.State["buckets"] != 2 {
		t.Fatalf("state = %v", payload.State)
	}
	if len(payload.Metrics) != 1 || payload.Metrics[0].Name != "er_test_depth" {
		t.Fatalf("metrics = %+v", payload.Metrics)
	}
	if len(payload.Spans) != 1 || payload.Spans[0].Name != "reconstruction" {
		t.Fatalf("spans = %+v", payload.Spans)
	}
}

func TestHandlerPprofMount(t *testing.T) {
	with := httptest.NewServer(NewHandler(ServerOptions{Pprof: true}))
	defer with.Close()
	resp, err := http.Get(with.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}

	without := httptest.NewServer(NewHandler(ServerOptions{}))
	defer without.Close()
	resp2, err := http.Get(without.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof must not be mounted by default")
	}
}

func TestServeAndClose(t *testing.T) {
	r := New()
	r.Counter("er_up_total", "").Inc()
	s, err := Serve("127.0.0.1:0", ServerOptions{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "er_up_total 1") {
		t.Fatalf("metrics body:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server must refuse connections after Close")
	}
	var nilServer *Server
	if nilServer.Close() != nil || nilServer.Addr() != "" {
		t.Fatal("nil server must be inert")
	}
}

func TestHandlerExtend(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServerOptions{
		Extend: func(mux *http.ServeMux) {
			mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "pong")
			})
		},
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("extended route body = %q", body)
	}
}

// TestServeCloseDrainsInFlight pins the graceful-shutdown contract:
// Close must block until an in-flight handler finishes (no response is
// cut off mid-write) and must join the serve goroutine.
func TestServeCloseDrainsInFlight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	s, err := Serve("127.0.0.1:0", ServerOptions{
		Extend: func(mux *http.ServeMux) {
			mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
				close(entered)
				<-release
				io.WriteString(w, "done")
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var body string
	var getErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + s.Addr() + "/slow")
		if err != nil {
			getErr = err
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a handler was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if getErr != nil {
		t.Fatalf("in-flight request failed across Close: %v", getErr)
	}
	if body != "done" {
		t.Fatalf("in-flight response = %q, want %q", body, "done")
	}
}

// TestServeCloseNoGoroutineLeak cycles the endpoint many times and
// asserts the goroutine count returns to baseline — repeated
// start/stop in multi-node tests must not leak serve goroutines (or
// ports, which the serve loop holding the listener would pin).
func TestServeCloseNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s, err := Serve("127.0.0.1:0", ServerOptions{Registry: New()})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + s.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("Close cycle %d: %v", i, err)
		}
	}
	// Idle HTTP client keep-alive goroutines wind down asynchronously;
	// poll instead of asserting a single instantaneous count.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across Serve/Close cycles: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandlerEventsEndpoint(t *testing.T) {
	ring := NewEventRing(slog.LevelDebug, nil)
	log := slog.New(ring).With("component", "c")
	log.Debug("d")
	log.Info("i")
	log.Warn("w1")
	log.Error("e")
	log.Warn("w2")
	srv := httptest.NewServer(NewHandler(ServerOptions{Events: ring}))
	defer srv.Close()

	get := func(query string) (int, []string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/er/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		var msgs []string
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var rec struct{ Msg string }
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("drain line %q: %v", line, err)
			}
			msgs = append(msgs, rec.Msg)
		}
		return resp.StatusCode, msgs
	}
	for _, c := range []struct {
		query string
		want  string
	}{
		{"", "[d i w1 e w2]"},
		{"?level=warn", "[w1 e w2]"},
		{"?level=ERROR", "[e]"},
		{"?n=2", "[e w2]"},
		{"?level=warn&n=2", "[e w2]"},
	} {
		if code, msgs := get(c.query); code != http.StatusOK || fmt.Sprint(msgs) != c.want {
			t.Errorf("GET %q = %d %v, want %s", c.query, code, msgs, c.want)
		}
	}
	for _, q := range []string{"?level=bogus", "?level=warning", "?n=-1", "?n=x"} {
		if code, _ := get(q); code != http.StatusBadRequest {
			t.Errorf("GET %q = %d, want 400", q, code)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/er")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Events *[4]uint64 `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Events == nil || *payload.Events != [4]uint64{1, 1, 2, 1} {
		t.Errorf("/debug/er events = %v, want [1 1 2 1]", payload.Events)
	}
}
