package telemetry

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
)

// EventRing is the service's event journal: a log/slog handler that
// keeps the last ringEvents (1024) records as the JSON lines
// slog.NewJSONHandler renders, counts records per level, and forwards
// each record to an optional next handler (erd's stderr output).
// /debug/er/events drains the ring; er_journal_events_total{level}
// and the "events" section of /debug/er report the counts.
//
// One mutex guards the ring: the service emits about ten events per
// failure bucket, so there is no contention to spread.
type EventRing struct {
	s    *ringState
	json slog.Handler // renders into s.buf; carries this handler's attrs and groups
	next slog.Handler
}

// ringEvents is how many records the ring keeps.
const ringEvents = 1024

type ringEvent struct {
	level slog.Level
	line  []byte // one JSON object and its newline
}

type ringState struct {
	min slog.Leveler

	mu     sync.Mutex
	buf    bytes.Buffer
	ring   [ringEvents]ringEvent
	head   int // index of the oldest record once the ring is full
	n      int
	counts [4]uint64 // records kept per level bucket (levelIndex)
}

// NewEventRing returns a ring keeping records at or above min (nil
// means slog.LevelInfo) and forwarding every record that next is
// enabled for to next (nil forwards nothing).
func NewEventRing(min slog.Leveler, next slog.Handler) *EventRing {
	if min == nil {
		min = slog.LevelInfo
	}
	s := &ringState{min: min}
	return &EventRing{s: s, json: slog.NewJSONHandler(&s.buf, nil), next: next}
}

// Enabled implements slog.Handler.
func (h *EventRing) Enabled(ctx context.Context, l slog.Level) bool {
	return l >= h.s.min.Level() || (h.next != nil && h.next.Enabled(ctx, l))
}

// Handle implements slog.Handler: it keeps the record's JSON line and
// forwards the record.
func (h *EventRing) Handle(ctx context.Context, r slog.Record) error {
	if s := h.s; r.Level >= s.min.Level() {
		s.mu.Lock()
		s.buf.Reset()
		if err := h.json.Handle(ctx, r); err == nil {
			s.push(r.Level, bytes.Clone(s.buf.Bytes()))
		}
		s.mu.Unlock()
	}
	if h.next != nil && h.next.Enabled(ctx, r.Level) {
		return h.next.Handle(ctx, r)
	}
	return nil
}

// WithAttrs implements slog.Handler.
func (h *EventRing) WithAttrs(as []slog.Attr) slog.Handler {
	d := &EventRing{s: h.s, json: h.json.WithAttrs(as)}
	if h.next != nil {
		d.next = h.next.WithAttrs(as)
	}
	return d
}

// WithGroup implements slog.Handler.
func (h *EventRing) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	d := &EventRing{s: h.s, json: h.json.WithGroup(name)}
	if h.next != nil {
		d.next = h.next.WithGroup(name)
	}
	return d
}

func (s *ringState) push(l slog.Level, line []byte) {
	s.counts[levelIndex(l)]++
	if s.n < ringEvents {
		s.ring[s.n] = ringEvent{l, line}
		s.n++
		return
	}
	s.ring[s.head] = ringEvent{l, line}
	s.head = (s.head + 1) % ringEvents
}

// levelIndex buckets a level into debug, info, warn or error.
func levelIndex(l slog.Level) int {
	switch {
	case l < slog.LevelInfo:
		return 0
	case l < slog.LevelWarn:
		return 1
	case l < slog.LevelError:
		return 2
	}
	return 3
}

var levelNames = [4]string{"debug", "info", "warn", "error"}

// Recent returns the JSON lines of up to n kept records at or above
// min, oldest first; n <= 0 means all of them.
func (h *EventRing) Recent(min slog.Level, n int) [][]byte {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for i := 0; i < s.n; i++ {
		if ev := s.ring[(s.head+i)%ringEvents]; ev.level >= min {
			out = append(out, ev.line)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Counts returns how many records the ring kept over its lifetime, by
// level: debug, info, warn, error.
func (h *EventRing) Counts() [4]uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.counts
}

// RegisterMetrics exposes Counts on r as
// er_journal_events_total{level=...}.
func (h *EventRing) RegisterMetrics(r *Registry) {
	if r == nil {
		return
	}
	for i, name := range levelNames {
		i := i
		r.CounterFunc("er_journal_events_total", "journal events retained by level",
			func() float64 { return float64(h.Counts()[i]) }, L("level", name))
	}
}

// RingOf returns the ring l writes to, or nil when l's handler is not
// an EventRing.
func RingOf(l *slog.Logger) *EventRing {
	if l == nil {
		return nil
	}
	h, _ := l.Handler().(*EventRing)
	return h
}

// OrDiscard returns l, or a logger that drops every record when l is
// nil: components resolve their logger once at construction.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return discardLogger
}

// TextLogger returns a logger writing w as slog text lines, or nil
// when w is nil.
func TextLogger(w io.Writer) *slog.Logger {
	if w == nil {
		return nil
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

var discardLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
