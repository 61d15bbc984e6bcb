package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// ServerOptions configures the live introspection endpoint.
type ServerOptions struct {
	// Registry backs /metrics (Prometheus text format) and the
	// "metrics" section of /debug/er. Nil serves empty output.
	Registry *Registry
	// Tracer supplies the recent span trees of /debug/er.
	Tracer *Tracer
	// Debug, when set, is called per /debug/er request and its result
	// is embedded as the "state" section — the hook fleet uses to dump
	// per-bucket pipeline state.
	Debug func() interface{}
	// Events backs /debug/er/events (JSONL drain, ?level= and ?n=
	// filters) and the "events" counts of /debug/er. Nil serves an
	// empty drain.
	Events *EventRing
	// Overhead, when set, embeds the recording-overhead ledger as the
	// "overhead" section of /debug/er — including the per-version
	// over-budget flags the SLO gate latches.
	Overhead *Overhead
	// Timeline, when set, backs /debug/er/timeline — the cluster
	// coordinator serves its stitched per-bucket timelines through
	// this hook.
	Timeline func() interface{}
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Extend, when set, is called with the mux after the standard
	// routes are mounted, so subsystems can layer their own API on the
	// same endpoint (the cluster coordinator mounts its versioned
	// /v1/* wire protocol this way).
	Extend func(mux *http.ServeMux)
}

// NewHandler returns the introspection mux:
//
//	/metrics   Prometheus text exposition of the registry
//	/debug/er  JSON: {state, metrics, spans} — live subsystem dump
//	/debug/pprof/... (only with Options.Pprof)
func NewHandler(opts ServerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := opts.Registry.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is note it.
			fmt.Fprintf(w, "# error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/er", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := struct {
			Time     time.Time        `json:"time"`
			State    interface{}      `json:"state,omitempty"`
			Metrics  []FamilySnapshot `json:"metrics"`
			Spans    []SpanSnapshot   `json:"spans,omitempty"`
			Events   *[4]uint64       `json:"events,omitempty"`
			Overhead []OverheadRow    `json:"overhead,omitempty"`
		}{Time: time.Now(), Metrics: opts.Registry.Snapshot(), Spans: opts.Tracer.Recent()}
		if opts.Debug != nil {
			payload.State = opts.Debug()
		}
		if opts.Events != nil {
			counts := opts.Events.Counts()
			payload.Events = &counts
		}
		if opts.Overhead != nil {
			payload.Overhead = opts.Overhead.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/er/events", func(w http.ResponseWriter, r *http.Request) {
		min := slog.LevelDebug
		if s := r.URL.Query().Get("level"); s != "" {
			if err := min.UnmarshalText([]byte(s)); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		max := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n %q", s), http.StatusBadRequest)
				return
			}
			max = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if opts.Events != nil {
			for _, line := range opts.Events.Recent(min, max) {
				w.Write(line) //nolint:errcheck // a gone client ends the drain
			}
		}
	})
	mux.HandleFunc("/debug/er/timeline", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var state interface{}
		if opts.Timeline != nil {
			state = opts.Timeline()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(state); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if opts.Extend != nil {
		opts.Extend(mux)
	}
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{} // closed when the serve goroutine exits
	once   sync.Once
	err    error
}

// drainTimeout bounds how long Close waits for in-flight handlers
// before tearing connections down. Handlers are fast (JSON/metric
// dumps), so a stuck connection past this is a hung client, not a
// draining response.
const drainTimeout = 5 * time.Second

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// introspection handler on it until Close.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:     ln,
		srv:    &http.Server{Handler: NewHandler(opts), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan struct{}),
	}
	go func() {
		// ErrServerClosed after Close is the expected shutdown path;
		// any other serve error leaves the endpoint dark but must not
		// take the reconstruction service down with it.
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the endpoint deterministically: the listener stops
// accepting, in-flight handlers drain (bounded by drainTimeout, after
// which lingering connections are torn down), and the serve goroutine
// is joined before Close returns — so repeated start/stop cycles
// (multi-node tests especially) can never leak the goroutine or the
// port. Nil-safe and idempotent.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if err != nil {
			// Drain window expired: force-close whatever is left.
			_ = s.srv.Close()
		}
		<-s.served
		s.err = err
	})
	return s.err
}
