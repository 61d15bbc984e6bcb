package telemetry

import (
	"log/slog"
	"testing"
	"time"
)

// feedRuns records n runs of d for (app, version).
func feedRuns(o *Overhead, app string, version, n int, traced bool, d time.Duration) {
	for i := 0; i < n; i++ {
		o.RecordRun(app, version, traced, d)
	}
}

func TestOverheadBaselineAndPct(t *testing.T) {
	o := NewOverhead(OverheadOptions{})
	feedRuns(o, "app", 0, minOverheadSamples, false, 10*time.Millisecond)
	feedRuns(o, "app", 1, minOverheadSamples, true, 11*time.Millisecond)
	o.SetRecordingCost("app", 1, 3, 24)

	rows := o.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("ledger has %d cells, want 2: %+v", len(rows), rows)
	}
	v0, v1 := rows[0], rows[1]
	if v0.Version != 0 || v1.Version != 1 {
		t.Fatalf("snapshot not sorted by version: %+v", rows)
	}
	if v0.Measured {
		t.Error("version 0 must never report an overhead (it is the baseline)")
	}
	if !v1.Measured {
		t.Fatalf("version 1 not measured with %d samples each side: %+v", minOverheadSamples, v1)
	}
	if v1.OverheadPct < 9 || v1.OverheadPct > 11 {
		t.Errorf("overhead = %.2f%%, want ~10%%", v1.OverheadPct)
	}
	if v1.Sites != 3 || v1.CostBytes != 24 {
		t.Errorf("recording cost = %d sites / %dB, want 3 / 24", v1.Sites, v1.CostBytes)
	}
	if v1.TracedRuns != uint64(minOverheadSamples) || v0.UntracedRuns != uint64(minOverheadSamples) {
		t.Errorf("traced/untraced split wrong: v0=%+v v1=%+v", v0, v1)
	}
	if v0.MeanRunMillis < 9.9 || v0.MeanRunMillis > 10.1 {
		t.Errorf("baseline mean = %.3fms, want 10ms", v0.MeanRunMillis)
	}
}

func TestOverheadMinSamplesGuard(t *testing.T) {
	o := NewOverhead(OverheadOptions{BudgetPct: 1})
	// A wildly overbudget version must not trip the gate before both
	// sides have minOverheadSamples — below that the means are noise.
	feedRuns(o, "app", 0, minOverheadSamples-1, false, time.Millisecond)
	feedRuns(o, "app", 1, minOverheadSamples-1, true, 100*time.Millisecond)
	if o.Breaches() != 0 {
		t.Errorf("gate tripped with %d samples: %d breaches", minOverheadSamples-1, o.Breaches())
	}
	for _, row := range o.Snapshot() {
		if row.Measured || row.OverBudget {
			t.Errorf("row measured/flagged below the sample floor: %+v", row)
		}
	}
}

func TestOverheadBudgetGateLatchesOnce(t *testing.T) {
	ring := NewEventRing(nil, nil)
	o := NewOverhead(OverheadOptions{BudgetPct: 5, Logger: slog.New(ring)})
	feedRuns(o, "app", 0, 32, false, time.Millisecond)
	feedRuns(o, "app", 1, 32, true, 2*time.Millisecond) // +100% vs +5% budget
	if o.Breaches() != 1 {
		t.Fatalf("breaches = %d, want exactly 1 (the gate latches per cell)", o.Breaches())
	}
	var alerts int
	for _, ev := range records(t, ring, slog.LevelError) {
		if ev["component"] == "overhead" {
			alerts++
			if ev["app"] != "app" || ev["version"] != 1.0 {
				t.Errorf("alert attrs = %v", ev)
			}
		}
	}
	if alerts != 1 {
		t.Errorf("error alerts = %d, want 1", alerts)
	}
	for _, row := range o.Snapshot() {
		if row.Version == 1 && !row.OverBudget {
			t.Errorf("version 1 not flagged over budget: %+v", row)
		}
	}
	// A second offending version is its own breach.
	feedRuns(o, "app", 2, 32, true, 3*time.Millisecond)
	if o.Breaches() != 2 {
		t.Errorf("breaches after second version = %d, want 2", o.Breaches())
	}
	// An in-budget version never trips.
	feedRuns(o, "other", 0, 32, false, 10*time.Millisecond)
	feedRuns(o, "other", 1, 32, true, 10*time.Millisecond)
	if o.Breaches() != 2 {
		t.Errorf("in-budget version tripped the gate: %d breaches", o.Breaches())
	}
}

func TestOverheadGateOffWithoutBudget(t *testing.T) {
	o := NewOverhead(OverheadOptions{}) // BudgetPct 0: accounting only
	feedRuns(o, "app", 0, 32, false, time.Millisecond)
	feedRuns(o, "app", 1, 32, true, 10*time.Millisecond)
	if o.Breaches() != 0 {
		t.Errorf("gate tripped with no budget configured: %d", o.Breaches())
	}
	if o.Budget() != 0 {
		t.Errorf("Budget = %v, want 0", o.Budget())
	}
}

func TestOverheadMetrics(t *testing.T) {
	reg := New()
	o := NewOverhead(OverheadOptions{BudgetPct: 5, Registry: reg})
	feedRuns(o, "app", 0, minOverheadSamples, false, time.Millisecond)
	feedRuns(o, "app", 1, minOverheadSamples, true, 2*time.Millisecond)
	o.SetRecordingCost("app", 1, 2, 16)
	for _, name := range []string{
		"er_overhead_run_mean_seconds",
		"er_overhead_pct",
		"er_overhead_recording_bytes",
		"er_overhead_recording_sites",
		"er_overhead_budget_breaches_total",
	} {
		if _, ok := reg.Family(name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	fam, _ := reg.Family("er_overhead_pct")
	var v1pct float64
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "version" && l.Value == "1" {
				v1pct = s.Value
			}
		}
	}
	if v1pct < 90 || v1pct > 110 {
		t.Errorf("er_overhead_pct{version=1} = %v, want ~100", v1pct)
	}
	fam, _ = reg.Family("er_overhead_budget_breaches_total")
	if len(fam.Series) != 1 || fam.Series[0].Value != 1 {
		t.Errorf("er_overhead_budget_breaches_total = %+v", fam.Series)
	}
}

func TestOverheadNilReceiver(t *testing.T) {
	var o *Overhead
	o.RecordRun("app", 1, true, time.Millisecond)
	o.SetRecordingCost("app", 1, 1, 1)
	if o.Breaches() != 0 || o.Budget() != 0 {
		t.Error("nil accountant reports activity")
	}
	if o.Snapshot() != nil {
		t.Error("nil accountant Snapshot != nil")
	}
}

func TestOverheadNegativeDurationClamped(t *testing.T) {
	o := NewOverhead(OverheadOptions{})
	o.RecordRun("app", 0, false, -time.Second)
	rows := o.Snapshot()
	if len(rows) != 1 || rows[0].MeanRunMillis != 0 {
		t.Errorf("negative duration not clamped: %+v", rows)
	}
}
