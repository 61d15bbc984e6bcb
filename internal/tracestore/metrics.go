package tracestore

import "execrecon/internal/telemetry"

// RegisterMetrics publishes the store's counters into the shared
// telemetry registry as collection-time callbacks (er_tracestore_*).
// The callbacks read through Stats(), which takes the store mutex, so
// a concurrent /metrics scrape always sees a consistent snapshot —
// there is no second copy of the numbers to fall out of sync, and the
// Stats struct remains the programmatic view.
//
// Safe to call more than once per registry (callbacks re-resolve the
// same series); nil registry is a no-op.
func (s *Store) RegisterMetrics(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.GaugeFunc("er_tracestore_segments",
		"live segment files", func() float64 { return float64(s.Stats().Segments) })
	reg.GaugeFunc("er_tracestore_records",
		"live archived records", func() float64 { return float64(s.Stats().Records) })
	reg.GaugeFunc("er_tracestore_raw_bytes",
		"raw (as-shipped) bytes of live records", func() float64 { return float64(s.Stats().RawBytes) })
	reg.GaugeFunc("er_tracestore_stored_bytes",
		"framed on-disk bytes of live records", func() float64 { return float64(s.Stats().StoredBytes) })
	reg.GaugeFunc("er_tracestore_compression_ratio",
		"raw over stored bytes of live records", func() float64 { return s.Stats().Ratio() })
	reg.CounterFunc("er_tracestore_appends_total",
		"records appended since Open", func() float64 { return float64(s.Stats().Appends) })
	reg.CounterFunc("er_tracestore_recoveries_total",
		"torn tails truncated at Open", func() float64 { return float64(s.Stats().Recoveries) })
}
