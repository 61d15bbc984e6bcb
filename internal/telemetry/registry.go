// Package telemetry is the measurement substrate of the ER service:
// a dependency-free, lock-sharded metrics registry (counters, gauges,
// bounded-bucket histograms with quantile estimation), a lightweight
// span tracer that records the ER iteration lifecycle as nested timed
// spans, a Prometheus text-exposition writer, and a live introspection
// HTTP handler (/metrics, /debug/er, optional pprof).
//
// ER is pitched as an always-on production service with a ~0.3%
// overhead budget (paper §2); a system with that posture must be able
// to watch itself. Every layer of the reconstruction loop — fleet
// ingest/triage, the per-bucket core pipelines, shepherded symbolic
// execution, the abstract pre-discharge pass, and the trace archive —
// registers its counters here under the `er_<pkg>_<name>` naming
// scheme instead of (or in addition to) its bespoke one-shot stats
// structs, which remain as thin compatibility views.
//
// The registry is cheap by construction: metric lookup is two RLocks
// on a name-sharded table, and every mutation on the hot path is a
// single atomic op. All exported types are nil-safe — a nil *Registry
// hands out nil *Counter/*Gauge/*Histogram, and every method on those
// is a no-op — so instrumented code needs no "enabled?" branches:
// thread a nil registry and the whole layer costs a predicted
// branch per call site.
package telemetry

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type.
type Kind int

// Metric kinds, mirroring the Prometheus data model.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one metric dimension (name=value pair).
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// regShards is the registry's shard count: metric families spread by
// name hash so unrelated packages registering or looking up metrics
// never contend on one lock.
const regShards = 16

// maxBuckets bounds a histogram's bucket count (the "+Inf" overflow
// bucket excluded); larger bound slices are truncated.
const maxBuckets = 64

// Registry is a lock-sharded metric registry. The zero value is not
// usable; call New. A nil *Registry is valid everywhere and disables
// collection.
type Registry struct {
	shards [regShards]regShard
}

type regShard struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family groups all series of one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []float64 // histogram upper bounds (ascending, +Inf implicit)
	mu      sync.RWMutex
	series  map[string]*series
	ordered []*series // registration order, for stable exposition
}

// series is one labelled time series.
type series struct {
	labels []Label
	// bounds is the owning family's bucket ladder (histograms only);
	// shared, read-only after registration.
	bounds []float64

	// counter value (KindCounter).
	count atomic.Int64
	// gauge value as float bits (KindGauge), or fn when the gauge is
	// a callback.
	fbits atomic.Uint64
	fn    func() float64

	// histogram state (KindHistogram).
	hcounts []atomic.Int64 // one per bound, overflow bucket last
	hsum    atomic.Uint64  // float bits, CAS-accumulated
	hcount  atomic.Int64
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].fams = make(map[string]*family)
	}
	return r
}

// shardOf picks the shard owning a metric name.
func (r *Registry) shardOf(name string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%regShards]
}

// getOrCreate resolves (or registers) the family and the labelled
// series within it. Kind/bounds conflicts on an existing name keep
// the first registration; the caller's request is coerced onto it —
// misuse shows up in tests via Snapshot, never as a runtime panic in
// the serving path.
func (r *Registry) getOrCreate(name, help string, kind Kind, bounds []float64, labels []Label) *series {
	name = SanitizeName(name)
	sh := r.shardOf(name)

	sh.mu.RLock()
	fam := sh.fams[name]
	sh.mu.RUnlock()
	if fam == nil {
		sh.mu.Lock()
		fam = sh.fams[name]
		if fam == nil {
			if len(bounds) > maxBuckets {
				bounds = bounds[:maxBuckets]
			}
			fam = &family{
				name:   name,
				help:   help,
				kind:   kind,
				bounds: append([]float64(nil), bounds...),
				series: make(map[string]*series),
			}
			sh.fams[name] = fam
		}
		sh.mu.Unlock()
	}

	key := labelKey(labels)
	fam.mu.RLock()
	s := fam.series[key]
	fam.mu.RUnlock()
	if s != nil {
		return s
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if s = fam.series[key]; s != nil {
		return s
	}
	s = &series{labels: canonLabels(labels)}
	if fam.kind == KindHistogram {
		s.bounds = fam.bounds
		s.hcounts = make([]atomic.Int64, len(fam.bounds)+1)
	}
	fam.series[key] = s
	fam.ordered = append(fam.ordered, s)
	return s
}

// canonLabels returns a sorted copy of the labels with sanitized
// names.
func canonLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	for i, l := range labels {
		out[i] = Label{Name: SanitizeName(l.Name), Value: l.Value}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelKey encodes a label set into a map key (order-insensitive).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := canonLabels(labels)
	var b []byte
	for _, l := range ls {
		b = append(b, l.Name...)
		b = append(b, 0x1f)
		b = append(b, l.Value...)
		b = append(b, 0x1e)
	}
	return string(b)
}

// Counter registers (or resolves) a monotonically increasing counter.
// Returns nil on a nil registry; a nil *Counter's methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return (*Counter)(r.getOrCreate(name, help, KindCounter, nil, labels))
}

// CounterFunc registers a counter whose value is read from fn at
// collection time — the bridge for existing atomic counters that
// should not be double-counted. fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	s := r.getOrCreate(name, help, KindCounter, nil, labels)
	s.fn = fn
}

// Gauge registers (or resolves) a gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return (*Gauge)(r.getOrCreate(name, help, KindGauge, nil, labels))
}

// GaugeFunc registers a gauge whose value is read from fn at
// collection time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	s := r.getOrCreate(name, help, KindGauge, nil, labels)
	s.fn = fn
}

// Histogram registers (or resolves) a bounded-bucket histogram with
// the given ascending upper bounds (nil = DefTimeBuckets). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefTimeBuckets
	}
	return (*Histogram)(r.getOrCreate(name, help, KindHistogram, bounds, labels))
}

// DefTimeBuckets is the default histogram bucket ladder for stage
// latencies, in seconds: 10µs … ~82s, exponential base 3.
var DefTimeBuckets = func() []float64 {
	var out []float64
	for b := 1e-5; b < 100; b *= 3 {
		out = append(out, b)
	}
	return out
}()

// Counter is a monotonically increasing counter. Nil-safe.
type Counter series

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	(*series)(c).count.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if (*series)(c).fn != nil {
		return int64((*series)(c).fn())
	}
	return (*series)(c).count.Load()
}

// Gauge is an instantaneous value. Nil-safe.
type Gauge series

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	(*series)(g).fbits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; safe concurrently).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	s := (*series)(g)
	for {
		old := s.fbits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.fbits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	s := (*series)(g)
	if s.fn != nil {
		return s.fn()
	}
	return math.Float64frombits(s.fbits.Load())
}

// Histogram is a bounded-bucket histogram. Nil-safe.
type Histogram series

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := (*series)(h)
	// Find the first bound >= v. Bucket ladders are short (<= 64);
	// linear scan beats binary search at these sizes and keeps the
	// code branch-predictable.
	i := len(s.hcounts) - 1 // overflow by default
	for b, ub := range s.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	s.hcounts[i].Add(1)
	s.hcount.Add(1)
	for {
		old := s.hsum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.hsum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds (negative durations — which a
// monotonic-clock regression could in principle produce — are clamped
// to zero rather than corrupting the sum).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(d.Seconds())
}

// Snapshot returns the histogram's point-in-time state (zero value
// on nil).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := (*series)(h)
	hs := HistSnapshot{
		Bounds: s.bounds,
		Counts: make([]int64, len(s.hcounts)),
		Sum:    math.Float64frombits(s.hsum.Load()),
		Count:  s.hcount.Load(),
	}
	var cum int64
	for i := range s.hcounts {
		hs.Counts[i] = s.hcounts[i].Load()
		cum += hs.Counts[i]
	}
	if cum > hs.Count {
		hs.Count = cum
	}
	return hs
}

// HistSnapshot is a consistent-enough point-in-time histogram view
// (bucket counts are read individually; the histogram may be observed
// concurrently, so Count can trail the bucket sum by in-flight
// updates — never the reverse).
type HistSnapshot struct {
	Bounds []float64 // upper bounds, ascending; overflow implicit
	Counts []int64   // per-bucket counts, overflow bucket last
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the owning bucket; the overflow bucket reports
// its lower bound. Returns 0 on an empty histogram.
func (hs HistSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 || len(hs.Counts) == 0 {
		return 0
	}
	rank := q * float64(hs.Count)
	var cum float64
	lower := 0.0
	for i, c := range hs.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i == len(hs.Counts)-1 {
				return lower // overflow bucket: report its lower bound
			}
			ub := hs.Bounds[i]
			frac := (rank - cum) / float64(c)
			return lower + (ub-lower)*frac
		}
		if i < len(hs.Bounds) {
			lower = hs.Bounds[i]
		}
		cum = next
	}
	if len(hs.Bounds) > 0 {
		return hs.Bounds[len(hs.Bounds)-1]
	}
	return 0
}

// Mean returns the sample mean (0 when empty).
func (hs HistSnapshot) Mean() float64 {
	if hs.Count == 0 {
		return 0
	}
	return hs.Sum / float64(hs.Count)
}

// SeriesSnapshot is one labelled series' point-in-time value.
type SeriesSnapshot struct {
	Labels []Label       `json:"labels,omitempty"`
	Value  float64       `json:"value"`          // counter/gauge value
	Hist   *HistSnapshot `json:"hist,omitempty"` // histogram only
}

// FamilySnapshot is one metric family's point-in-time state.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every registered family, sorted by name (series
// in registration order). Safe to call while the registry is written.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	var fams []*family
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, f := range sh.fams {
			fams = append(fams, f)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
	f.mu.RLock()
	ordered := append([]*series(nil), f.ordered...)
	f.mu.RUnlock()
	for _, s := range ordered {
		ss := SeriesSnapshot{Labels: s.labels}
		switch f.kind {
		case KindCounter:
			if s.fn != nil {
				ss.Value = s.fn()
			} else {
				ss.Value = float64(s.count.Load())
			}
		case KindGauge:
			if s.fn != nil {
				ss.Value = s.fn()
			} else {
				ss.Value = math.Float64frombits(s.fbits.Load())
			}
		case KindHistogram:
			h := (*Histogram)(s).Snapshot()
			ss.Hist = &h
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}

// Family returns the named family's snapshot (zero value, false when
// absent).
func (r *Registry) Family(name string) (FamilySnapshot, bool) {
	if r == nil {
		return FamilySnapshot{}, false
	}
	name = SanitizeName(name)
	sh := r.shardOf(name)
	sh.mu.RLock()
	f := sh.fams[name]
	sh.mu.RUnlock()
	if f == nil {
		return FamilySnapshot{}, false
	}
	return f.snapshot(), true
}

// SanitizeName coerces s into a legal Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*. Illegal runes become '_'; an illegal
// leading rune is prefixed.
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		legal := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !legal {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	b := []byte(s)
	for i := range b {
		c := b[i]
		legal := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !legal {
			b[i] = '_'
		}
	}
	return string(b)
}

// FormatValue renders a float the way the exposition format expects.
func FormatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
