package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records the ER iteration lifecycle as nested timed spans:
// ingest → decode → shepherd → constraint-build → solve → keyselect →
// instrument → reoccurrence-wait, each carrying attributes (failure
// signature, iteration number, recording-set size, solver verdict).
//
// The concurrency contract mirrors how reconstruction actually runs:
// a span tree is built and mutated by the single goroutine driving
// one pipeline, and becomes visible to other goroutines (the
// introspection endpoint, ertrace -spans) only as an immutable
// SpanSnapshot, captured when its root span ends. The tracer keeps a
// bounded ring of the most recent finished root trees.
//
// All methods are nil-safe: a nil *Tracer starts nil *Spans, and nil
// *Span methods are no-ops, so instrumented code pays one predictable
// branch when tracing is off.
type Tracer struct {
	// now is the clock; tests override it. It must return monotonic
	// readings (the time package's default); span durations are
	// computed exclusively with Sub on these values and clamped at
	// zero, so a wall-clock step (NTP, manual adjustment) can never
	// yield a negative or inflated duration.
	now func() time.Time

	mu     sync.Mutex
	recent []SpanSnapshot // ring, oldest first
	keep   int
	seq    uint64 // finished root trees, total
}

// DefaultKeepSpans is how many finished root span trees a tracer
// retains by default.
const DefaultKeepSpans = 32

// NewTracer returns a tracer retaining the last keep finished root
// span trees (keep <= 0 uses DefaultKeepSpans).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = DefaultKeepSpans
	}
	return &Tracer{now: time.Now, keep: keep}
}

// SetClock overrides the tracer's clock (tests only). The clock must
// be safe for use from the goroutines that start spans.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.now = now
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value string
}

// A is shorthand for constructing an Attr; the value is rendered with
// %v.
func A(key string, value interface{}) Attr {
	return Attr{Key: key, Value: fmt.Sprintf("%v", value)}
}

// Span is one timed node of a trace tree. Mutate (Child, SetAttr,
// End) only from the goroutine that owns the tree.
type Span struct {
	tracer   *Tracer
	parent   *Span
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Start begins a new root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, name: name, start: t.now(), attrs: attrs}
}

// Child begins a nested span. Returns nil on a nil span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, parent: s, name: name, start: s.tracer.now(), attrs: attrs}
	s.children = append(s.children, c)
	return c
}

// SetAttr records (or overwrites) an attribute.
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	v := fmt.Sprintf("%v", value)
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// End closes the span, computing its duration from the monotonic
// clock; negative results (possible only if a test clock runs
// backwards — the runtime's monotonic readings cannot) clamp to zero.
// Ending a root span publishes its snapshot to the tracer's recent
// ring. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.endAt(s.tracer.now())
}

// EndAfter closes the span with an explicitly measured duration —
// used for stages whose time is metered elsewhere (e.g. solver wall
// time accumulated inside shepherded execution). Negative durations
// clamp to zero.
func (s *Span) EndAfter(d time.Duration) {
	if s == nil || s.ended {
		return
	}
	if d < 0 {
		d = 0
	}
	s.dur = d
	s.ended = true
	s.publish()
}

func (s *Span) endAt(now time.Time) {
	d := now.Sub(s.start)
	if d < 0 {
		d = 0
	}
	s.dur = d
	s.ended = true
	s.publish()
}

// publish snapshots a finished root span into the tracer ring. Open
// children are snapshotted as-is with their current elapsed time.
func (s *Span) publish() {
	if s.parent != nil || s.tracer == nil {
		return
	}
	sn := s.snapshot(s.tracer.now())
	t := s.tracer
	t.mu.Lock()
	t.seq++
	t.recent = append(t.recent, sn)
	if len(t.recent) > t.keep {
		t.recent = t.recent[len(t.recent)-t.keep:]
	}
	t.mu.Unlock()
}

// Duration returns the span's duration (elapsed-so-far while open; 0
// on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.dur
	}
	d := s.tracer.now().Sub(s.start)
	if d < 0 {
		d = 0
	}
	return d
}

// SpanSnapshot is an immutable copy of a span tree node.
type SpanSnapshot struct {
	Name string `json:"name"`
	// Start is the span's wall-clock start (informational only;
	// durations never derive from it).
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanSnapshot    `json:"children,omitempty"`
	// Open marks a span that had not ended when the snapshot was
	// taken (duration is elapsed-so-far).
	Open bool `json:"open,omitempty"`
}

// Snapshot copies the span tree rooted at s. Safe only from the
// owning goroutine (other goroutines should consume Tracer.Recent).
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot(s.tracer.now())
}

func (s *Span) snapshot(now time.Time) SpanSnapshot {
	sn := SpanSnapshot{Name: s.name, Start: s.start, Open: !s.ended}
	if s.ended {
		sn.Duration = s.dur
	} else {
		if d := now.Sub(s.start); d > 0 {
			sn.Duration = d
		}
	}
	if len(s.attrs) > 0 {
		sn.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			sn.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		sn.Children = append(sn.Children, c.snapshot(now))
	}
	return sn
}

// Recent returns the tracer's retained finished root span trees,
// oldest first. Safe concurrently.
func (t *Tracer) Recent() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanSnapshot, len(t.recent))
	copy(out, t.recent)
	return out
}

// Finished returns how many root span trees have ended over the
// tracer's lifetime (retained or evicted).
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// WriteTree renders a span tree as an indented text outline:
//
//	reconstruction 12.3ms sig="assert @kv_get"
//	  iteration 8.1ms occurrence=1
//	    shepherd 7.9ms status=stalled
//	    keyselect 180µs sites=2
//
// Attributes print sorted by key for deterministic output.
func WriteTree(w io.Writer, sn SpanSnapshot) error {
	return writeTree(w, sn, 0)
}

func writeTree(w io.Writer, sn SpanSnapshot, depth int) error {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(sn.Name)
	b.WriteByte(' ')
	b.WriteString(sn.Duration.Round(time.Microsecond).String())
	if sn.Open {
		b.WriteString(" (open)")
	}
	keys := make([]string, 0, len(sn.Attrs))
	for k := range sn.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%q", k, sn.Attrs[k])
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range sn.Children {
		if err := writeTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
